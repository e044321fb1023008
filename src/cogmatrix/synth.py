"""Synthetic one-to-one relation datasets with controllable noise.

Generates a score matrix with a planted one-to-one pairing: planted cells
draw from Normal(1, noise_sigma), everything else from Normal(0, noise_sigma).
The matrix is min-max normalised, which removes any common scale of the two
means and sigma, so sigma alone sets the signal-to-noise ratio.  Optional
distractor rows and columns have no partner at all, modelling the realistic
condition where most candidates are not in the relation.  Generation is
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import GoldPairs, ScoreMatrix, _normalize_in_place


@dataclass(frozen=True)
class SynthConfig:
    n_pairs: int
    n_distractors_per_side: int = 0
    noise_sigma: float = 0.25
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.n_distractors_per_side < 0:
            raise ValueError("n_distractors_per_side must be >= 0")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma!r}")


def _labels(prefix: str, n: int) -> tuple[str, ...]:
    width = max(5, len(str(n)))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(n))


def generate(cfg: SynthConfig) -> tuple[ScoreMatrix, GoldPairs]:
    """Build the planted matrix (min-max normalized) and its gold pairing.

    Draw order is fixed (permutation, noise matrix, signal cells) so a given
    seed always reproduces the same dataset.
    """
    n = cfg.n_pairs + cfg.n_distractors_per_side
    rng = np.random.default_rng(cfg.rng_seed)
    perm = rng.permutation(cfg.n_pairs)
    scores = rng.normal(0.0, cfg.noise_sigma, size=(n, n))
    scores[np.arange(cfg.n_pairs), perm] = rng.normal(1.0, cfg.noise_sigma, size=cfg.n_pairs)
    rows = _labels("x", n)
    cols = _labels("y", n)
    matrix = ScoreMatrix(rows, cols, _normalize_in_place(scores))
    gold = GoldPairs(frozenset((rows[i], cols[perm[i]]) for i in range(cfg.n_pairs)))
    return matrix, gold
