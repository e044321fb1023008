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

Column ranks are the input matrix's cached ``reverse_ranks``: ``rr``,
``rr_fr_1step`` and ``rr_fr_2step`` on one matrix share a single column pass.
Row ranks are computed per row block by each method that needs them.
"""

from __future__ import annotations

import enum

import numpy as np

from .matrix import ScoreMatrix, _blocks, _by_row_blocks, _rank_dtype, _row_ranks_ge


class RescoreMethod(str, enum.Enum):
    BASELINE = "baseline"
    RR = "rr"
    FR = "fr"
    RR_FR_1STEP = "rr_fr_1step"
    RR_FR_2STEP = "rr_fr_2step"


ALL_METHODS = tuple(RescoreMethod)


def forward_rank_matrix(m: ScoreMatrix) -> np.ndarray:
    """forward_rank for every cell: competitors along the cell's row."""
    s = m.scores
    return _by_row_blocks(*m.shape, lambda rows: _row_ranks_ge(s[rows]), _rank_dtype(m.n_cols))


def reverse_rank_matrix(m: ScoreMatrix) -> np.ndarray:
    """reverse_rank for every cell: competitors down the cell's column.  This
    is the matrix's own read-only ``reverse_ranks``, computed once."""
    return m.reverse_ranks


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


def _divide_by_forward_ranks(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a`` divided by its forward ranks, into ``out`` (which may be ``a``:
    a row block's ranks depend on that block alone)."""
    for rows in _blocks(*a.shape):
        np.divide(a[rows], _row_ranks_ge(a[rows]), out=out[rows])
    return out


def rescore_rr(m: ScoreMatrix) -> ScoreMatrix:
    """Divide every score by its reverse rank on the input matrix."""
    _require_non_negative(m)
    return m.with_scores(np.divide(m.scores, m.reverse_ranks))


def rescore_fr(m: ScoreMatrix) -> ScoreMatrix:
    """Divide every score by its forward rank on the input matrix."""
    _require_non_negative(m)
    return m.with_scores(_divide_by_forward_ranks(m.scores, np.empty(m.shape)))


def rescore_rr_fr_1step(m: ScoreMatrix) -> ScoreMatrix:
    """Divide by the product of both ranks, both taken on the input matrix."""
    _require_non_negative(m)
    s, rr = m.scores, m.reverse_ranks

    def divide(rows):
        # The float64 product of two ranks is exact below 2^53.
        product = np.multiply(rr[rows], _row_ranks_ge(s[rows]), dtype=np.float64)
        return np.divide(s[rows], product, out=product)

    return m.with_scores(_by_row_blocks(*m.shape, divide))


def rescore_rr_fr_2step(m: ScoreMatrix) -> ScoreMatrix:
    """Reverse-rank rescore, then forward-rank rescore the adjusted scores."""
    _require_non_negative(m)
    adjusted = np.divide(m.scores, m.reverse_ranks)
    return m.with_scores(_divide_by_forward_ranks(adjusted, adjusted))


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
