"""Maximum-total one-to-one assignment over a score matrix.

Solves the assignment problem: pick min(n1, n2) pairs, no row or column used
twice, maximizing the summed score.  On planted matrices with 3x partnerless
distractors per side rank rescoring does better (``test_distractor_robustness``),
but on the generated corpus at k = 10^4 (one seed) assignment had the best
MaxF1: 0.8512, against 0.8347 for ``rr_fr_1step``.

The back-traced curve sweeps a threshold down over the chosen pairs so the
single assignment point expands into a full precision-recall curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .evaluate import PRCurve, _sweep
from .matrix import GoldPairs, ScoreMatrix, _label_ranks

# Refuse to solve beyond this per-side size rather than thrash: the cubic
# solver is infeasible at the large-data scale.
DEFAULT_MAX_SIDE = 20_000


class ResourceLimitError(RuntimeError):
    """Raised when an assignment problem exceeds the configured size budget."""


@dataclass(frozen=True)
class Assignment:
    """One-to-one set of (row index, column index) pairs with their scores."""

    pairs: tuple[tuple[int, int], ...]
    scores: tuple[float, ...]
    total: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple((int(i), int(j)) for i, j in self.pairs))
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        if len(self.pairs) != len(self.scores):
            raise ValueError("pairs and scores must have equal length")
        rows = [i for i, _ in self.pairs]
        cols = [j for _, j in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("assignment violates the one-to-one constraint")

    def __len__(self) -> int:
        return len(self.pairs)


def hungarian_max(m: ScoreMatrix, max_side: int = DEFAULT_MAX_SIDE) -> Assignment:
    """Maximum-total assignment of size min(n1, n2).

    Scores are negated into a standard minimization assignment solve, one
    copy of the matrix; rectangular matrices assign every element of the
    shorter side, and pairs come in row order.  Raises ResourceLimitError
    beyond ``max_side`` per side.
    """
    if m.n_rows < 1 or m.n_cols < 1:
        raise ValueError("assignment requires a non-empty matrix")
    if max(m.n_rows, m.n_cols) > max_side:
        raise ResourceLimitError(
            f"matrix {m.n_rows}x{m.n_cols} exceeds the assignment size limit {max_side}"
        )
    # The solver would transpose a tall negated copy into a second one;
    # negating the wide orientation into C order makes one copy in all.
    tall = m.n_rows > m.n_cols
    rows, cols = linear_sum_assignment(np.negative(m.scores.T if tall else m.scores, order="C"))
    if tall:
        rows, cols = cols, rows
    order = np.argsort(rows)
    rows, cols = rows[order], cols[order]
    scores = m.scores[rows, cols]
    assignment = Assignment(
        pairs=tuple(zip(rows.tolist(), cols.tolist())),
        scores=tuple(scores.tolist()),
        total=float(scores.sum()),
    )
    assert len(assignment) == min(m.n_rows, m.n_cols)
    return assignment


def max_assignment_curve(m: ScoreMatrix, a: Assignment, gold: GoldPairs) -> PRCurve:
    """Precision-recall curve traced back from the full assignment.

    Thresholds sweep down over the assigned pairs' scores (ties broken by
    row label then column label); each point predicts the pairs scoring at
    or above the threshold.  The leading point is the empty prediction at
    recall 0 with precision 1 by convention.
    """
    if len(gold.pairs) == 0:
        raise ValueError("gold pairs are empty")
    # Each row is assigned once, so row-label order is the whole tie order.
    row_rank = _label_ranks(m.row_labels)
    order = np.argsort([row_rank[i] for i, _ in a.pairs])
    is_gold = np.array([(m.row_labels[i], m.col_labels[j]) in gold.pairs for i, j in a.pairs])
    curve = _sweep(np.array(a.scores)[order], is_gold[order], len(gold.pairs))
    return PRCurve(
        np.append(np.inf, curve.thresholds),
        np.append(1.0, curve.precisions),
        np.append(0.0, curve.recalls),
    )


def save_assignment(m: ScoreMatrix, a: Assignment, path: str | Path) -> None:
    """Write ``row_label<TAB>col_label<TAB>score`` lines, rows in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for (i, j), score in zip(a.pairs, a.scores):
            f.write(f"{m.row_labels[i]}\t{m.col_labels[j]}\t{score!r}\n")
