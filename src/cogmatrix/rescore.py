"""Global-constraint rescoring of score matrices by rank division.

When the target relation is one-to-one, a pair's score should not be judged
in isolation: if many other rows outscore it on the same column (or many
other columns outscore it on the same row), that is evidence against the
pair.  Each method here divides every score by a rank computed over its
column, its row, or both:

* ``rr``          - divide by the reverse rank (competition down the column)
* ``fr``          - divide by the forward rank (competition along the row)
* ``rr_fr_1step`` - divide once by the product of both ranks, both computed
                    on the input matrix
* ``rr_fr_2step`` - apply ``rr`` first, then ``fr`` on the already-rescored
                    matrix

The rank of entry (i, j) within its column is the number of entries in that
column with a score >= s(i, j), so ranks start at 1 and tied entries all
share the worst rank of their tie group.  Scores must be non-negative
(normalize first): dividing a negative score by a large rank would raise it.
"""

from __future__ import annotations

import enum

import numpy as np

from .matrix import ScoreMatrix


class RescoreMethod(str, enum.Enum):
    BASELINE = "baseline"
    RR = "rr"
    FR = "fr"
    RR_FR_1STEP = "rr_fr_1step"
    RR_FR_2STEP = "rr_fr_2step"


ALL_METHODS = tuple(RescoreMethod)


def _row_ranks_ge(a: np.ndarray) -> np.ndarray:
    """For every entry, the count of entries in its row that are >= it.

    One sort per row plus a binary search of the row against its own sorted
    order: count(>= x) = row_length - first_sorted_position(x).  This streams
    rows without materializing per-cell comparison sets, which keeps the
    10^8-entry regime tractable.
    """
    n_rows, n_cols = a.shape
    ranks = np.empty(a.shape, dtype=np.int64)
    srt = np.sort(a, axis=1)
    for i in range(n_rows):
        ranks[i] = n_cols - np.searchsorted(srt[i], a[i], side="left")
    return ranks


def forward_rank_matrix(m: ScoreMatrix) -> np.ndarray:
    """forward_rank for every cell: competitors along the cell's row."""
    return _row_ranks_ge(m.scores)


def reverse_rank_matrix(m: ScoreMatrix) -> np.ndarray:
    """reverse_rank for every cell: competitors down the cell's column."""
    return _row_ranks_ge(np.ascontiguousarray(m.scores.T)).T


def _check_index(n: int, idx: int, kind: str) -> None:
    if not 0 <= idx < n:
        raise IndexError(f"{kind} index {idx} out of range for size {n}")


def reverse_rank(m: ScoreMatrix, i: int, j: int) -> int:
    """Number of rows whose score against column j is >= s(i, j)."""
    _check_index(m.n_rows, i, "row")
    _check_index(m.n_cols, j, "column")
    return int(_row_ranks_ge(m.scores[None, :, j])[0, i])


def forward_rank(m: ScoreMatrix, i: int, j: int) -> int:
    """Number of columns whose score against row i is >= s(i, j)."""
    _check_index(m.n_rows, i, "row")
    _check_index(m.n_cols, j, "column")
    return int(_row_ranks_ge(m.scores[None, i, :])[0, j])


def _require_non_negative(m: ScoreMatrix) -> None:
    if m.scores.size and float(m.scores.min()) < 0.0:
        raise ValueError("rescoring requires non-negative scores")


def rescore_rr(m: ScoreMatrix) -> ScoreMatrix:
    """Divide every score by its reverse rank on the input matrix."""
    _require_non_negative(m)
    return m.with_scores(m.scores / reverse_rank_matrix(m))


def rescore_fr(m: ScoreMatrix) -> ScoreMatrix:
    """Divide every score by its forward rank on the input matrix."""
    _require_non_negative(m)
    return m.with_scores(m.scores / forward_rank_matrix(m))


def rescore_rr_fr_1step(m: ScoreMatrix) -> ScoreMatrix:
    """Divide by the product of both ranks, both taken on the input matrix."""
    _require_non_negative(m)
    return m.with_scores(m.scores / (reverse_rank_matrix(m) * forward_rank_matrix(m)))


def rescore_rr_fr_2step(m: ScoreMatrix) -> ScoreMatrix:
    """Reverse-rank rescore, then forward-rank rescore the adjusted scores."""
    return rescore_fr(rescore_rr(m))


_DISPATCH = {
    RescoreMethod.BASELINE: lambda m: m,
    RescoreMethod.RR: rescore_rr,
    RescoreMethod.FR: rescore_fr,
    RescoreMethod.RR_FR_1STEP: rescore_rr_fr_1step,
    RescoreMethod.RR_FR_2STEP: rescore_rr_fr_2step,
}


def apply(method: RescoreMethod, m: ScoreMatrix) -> ScoreMatrix:
    """Run one rescoring method; ``baseline`` returns the input unchanged."""
    return _DISPATCH[RescoreMethod(method)](m)
