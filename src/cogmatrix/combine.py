"""Linear combination of metric matrices with max-margin learned weights.

A small seed set of known pairs provides positive examples; negatives are
sampled from pairs sharing no word with the seed.  A linear classifier is
trained by deterministic full-batch subgradient descent on the hinge loss
with L2 regularization, and its weights combine the per-metric matrices into
the baseline score matrix that rescoring consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .ingest import _records
from .matrix import GoldPairs, ScoreMatrix, _blocks, _normalize_in_place, _run_blocks
from .scorers import MetricId

# Constant step size for the full-batch subgradient updates.  Deterministic
# and dependency-free; epochs and regularization are the tuning knobs.
LEARNING_RATE = 0.1


@dataclass(frozen=True)
class WeightVector:
    """Learned weight per metric plus an additive bias."""

    weights: dict[MetricId, float]
    bias: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", {MetricId(m): float(w) for m, w in self.weights.items()}
        )


@dataclass(frozen=True)
class TrainingConfig:
    regularization: float = 1e-3
    epochs: int = 200
    negative_ratio: int = 5
    rng_seed: int = 13

    def __post_init__(self) -> None:
        if not (math.isfinite(self.regularization) and self.regularization > 0):
            raise ValueError(
                f"regularization must be a finite positive number, got {self.regularization!r}"
            )
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.negative_ratio <= 0:
            raise ValueError("negative_ratio must be positive")


def uniform_weights(metrics: Iterable[MetricId]) -> WeightVector:
    """Equal weighting of all active metrics, no training required."""
    return WeightVector({MetricId(m): 1.0 for m in metrics}, bias=0.0)


_LABELS_DIFFER = "metric matrices must share identical row and column labels"


def _sample_negative_indices(
    rng: np.random.Generator, rows: np.ndarray, cols: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``count`` distinct cells of rows x cols, as (rows, cols) arrays in draw order."""
    grid = len(rows) * len(cols)
    take = min(count, grid)
    chosen: dict[int, None] = {}
    while len(chosen) < take:
        for flat in rng.integers(0, grid, size=2 * (take - len(chosen))):
            if len(chosen) == take:
                break
            chosen.setdefault(int(flat), None)
    flat = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    return rows[flat // len(cols)], cols[flat % len(cols)]


def train_weights(
    metric_matrices: Mapping[MetricId, ScoreMatrix],
    seed: GoldPairs,
    cfg: TrainingConfig = TrainingConfig(),
) -> WeightVector:
    """Learn one weight per metric from the seed pairs.

    Positives are the seed pairs; negatives are ``cfg.negative_ratio`` random
    pairs per positive, drawn (without replacement, seeded) from rows and
    columns that no seed pair touches.  Training order is fixed, so identical
    inputs and config produce identical weights.
    """
    if not metric_matrices:
        raise ValueError("no metric matrices given")
    first = next(iter(metric_matrices.values()))
    for m in metric_matrices.values():
        if (m.row_labels, m.col_labels) != (first.row_labels, first.col_labels):
            raise ValueError(_LABELS_DIFFER)
    metrics = sorted(metric_matrices, key=lambda m: m.value)

    missing = sorted(
        (l1, l2)
        for l1, l2 in seed.pairs
        if l1 not in first.row_index or l2 not in first.col_index
    )
    if missing:
        raise ValueError(f"seed pairs not in universe: {missing}")
    if len(seed) == 0:
        raise ValueError("seed set is empty")

    pos = sorted((first.row_index[l1], first.col_index[l2]) for l1, l2 in seed.pairs)
    pos_rows, pos_cols = np.array(pos, dtype=np.int64).T
    free_rows = np.setdiff1d(np.arange(first.n_rows, dtype=np.int64), pos_rows)
    free_cols = np.setdiff1d(np.arange(first.n_cols, dtype=np.int64), pos_cols)
    if len(free_rows) == 0 or len(free_cols) == 0:
        raise ValueError("no candidate pairs left for negative sampling")

    rng = np.random.default_rng(cfg.rng_seed)
    neg_rows, neg_cols = _sample_negative_indices(rng, free_rows, free_cols,
                                                  cfg.negative_ratio * len(pos_rows))

    rows, cols = np.concatenate((pos_rows, neg_rows)), np.concatenate((pos_cols, neg_cols))
    features = np.column_stack([metric_matrices[m].scores[rows, cols] for m in metrics])
    labels = np.repeat([1.0, -1.0], (len(pos_rows), len(neg_rows)))

    w = np.zeros(len(metrics), dtype=np.float64)
    b = 0.0
    n = len(labels)
    for _ in range(cfg.epochs):
        margins = labels * (features @ w + b)
        violating = margins < 1.0
        grad_w = cfg.regularization * w - (labels[violating, None] * features[violating]).sum(axis=0) / n
        grad_b = -float(labels[violating].sum()) / n
        w = w - LEARNING_RATE * grad_w
        b = b - LEARNING_RATE * grad_b
    return WeightVector({m: float(wm) for m, wm in zip(metrics, w)}, bias=b)


def combine(
    matrix_of: Callable[[MetricId], ScoreMatrix], weights: WeightVector
) -> ScoreMatrix:
    """Entrywise weighted sum of the weighted metrics' matrices, min-max normalized.

    Normalization maps the combined scores onto [0, 1], which rescoring
    requires; it preserves the ranking of every row and column.

    The total starts at the bias.  ``matrix_of(metric)`` is called once per
    weighted metric, in metric-name order, and its matrix is added into the
    total one row block at a time (so no full-size ``weight * scores`` is
    built) and dropped before the next call: a ``matrix_of`` that builds or
    loads each matrix has at most one alive.  For matrices in a dict, pass
    ``matrices.__getitem__``.  Every cell sees the same operations in the
    same order as a whole-array sum.
    """
    metrics = sorted(weights.weights, key=lambda m: m.value)
    if not metrics:
        raise ValueError("no weighted metrics given")
    labels = total = None
    for metric in metrics:
        m = matrix_of(metric)
        if total is None:
            labels = (m.row_labels, m.col_labels)
            total = np.full(m.shape, weights.bias, dtype=np.float64)
        elif (m.row_labels, m.col_labels) != labels:
            raise ValueError(_LABELS_DIFFER)
        weight = weights.weights[metric]

        def add(rows):
            total[rows] += weight * m.scores[rows]

        _run_blocks(add, _blocks(*total.shape))
        del m  # also empties ``add``'s reference to it
    return ScoreMatrix(*labels, _normalize_in_place(total))


def save_weights(weights: WeightVector, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#bias {weights.bias!r}\n")
        for metric in sorted(weights.weights, key=lambda m: m.value):
            f.write(f"{metric.value}\t{weights.weights[metric]!r}\n")


def load_weights(path: str | Path) -> WeightVector:
    path = Path(path)
    bias = 0.0
    entries: dict[MetricId, float] = {}
    for where, fields in _records(path, "metric<TAB>weight", "bias"):
        if isinstance(fields, str):
            try:
                bias = float(fields)
            except ValueError:
                raise ValueError(f"{path}:{where}: unparseable bias") from None
            if not math.isfinite(bias):
                raise ValueError(f"{path}:{where}: non-finite bias")
            continue
        for lineno, name, tok in zip(where, fields[0::2], fields[1::2]):
            try:
                metric = MetricId(name)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unknown metric {name!r}") from None
            if metric in entries:
                raise ValueError(f"{path}:{lineno}: duplicate weight for metric {metric.value!r}")
            try:
                weight = float(tok)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable weight {tok!r}") from None
            if not math.isfinite(weight):
                raise ValueError(f"{path}:{lineno}: non-finite weight {tok!r}")
            entries[metric] = weight
    return WeightVector(entries, bias=bias)
