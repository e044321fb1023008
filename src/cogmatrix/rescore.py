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

Every method is row-local once the column ranks are known: ``_KERNELS`` holds
one formula per method that writes a block of output rows, and ``apply``
alone checks the scores, allocates the output and walks the blocks.  ``rr``,
``rr_fr_1step`` and ``rr_fr_2step`` share the input's cached
``reverse_ranks``, one column pass; ``fr`` never reads them.
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


def forward_rank_matrix(m: ScoreMatrix) -> np.ndarray:
    """forward_rank for every cell: competitors along the cell's row."""
    s = m.scores
    return _by_row_blocks(*m.shape, lambda rows: _row_ranks_ge(s[rows]), _rank_dtype(m.n_cols))


def reverse_rank_matrix(m: ScoreMatrix) -> np.ndarray:
    """reverse_rank for every cell: competitors down the cell's column.  This
    is the matrix's own read-only ``reverse_ranks``, computed once."""
    return m.reverse_ranks


def _check_cell(m: ScoreMatrix, i: int, j: int) -> None:
    for kind, n, idx in (("row", m.n_rows, i), ("column", m.n_cols, j)):
        if not 0 <= idx < n:
            raise IndexError(f"{kind} index {idx} out of range for size {n}")


def reverse_rank(m: ScoreMatrix, i: int, j: int) -> int:
    """Number of rows whose score against column j is >= s(i, j)."""
    _check_cell(m, i, j)
    return int(_row_ranks_ge(m.scores[None, :, j])[0, i])


def forward_rank(m: ScoreMatrix, i: int, j: int) -> int:
    """Number of columns whose score against row i is >= s(i, j)."""
    _check_cell(m, i, j)
    return int(_row_ranks_ge(m.scores[None, i, :])[0, j])


def _rr(m, rows, out):
    return np.divide(m.scores[rows], m.reverse_ranks[rows], out=out[rows])


def _fr(m, rows, out):
    return np.divide(m.scores[rows], _row_ranks_ge(m.scores[rows]), out=out[rows])


def _rr_fr_1step(m, rows, out):
    # The float64 product of two ranks is exact below 2^53.
    product = np.multiply(m.reverse_ranks[rows], _row_ranks_ge(m.scores[rows]), dtype=np.float64)
    return np.divide(m.scores[rows], product, out=out[rows])


def _rr_fr_2step(m, rows, out):
    # ``fr`` of the ``rr`` rows, in place: a row block's ranks depend on it alone.
    a = _rr(m, rows, out)
    return np.divide(a, _row_ranks_ge(a), out=a)


# Method -> the formula that writes rows ``rows`` (a slice) of its output into ``out``.
_KERNELS = {
    RescoreMethod.RR: _rr,
    RescoreMethod.FR: _fr,
    RescoreMethod.RR_FR_1STEP: _rr_fr_1step,
    RescoreMethod.RR_FR_2STEP: _rr_fr_2step,
}


def apply(method: RescoreMethod, m: ScoreMatrix) -> ScoreMatrix:
    """Run one rescoring method; ``baseline`` returns the input unchanged."""
    method = RescoreMethod(method)
    if method is RescoreMethod.BASELINE:
        return m
    if m.scores.size and float(m.scores.min()) < 0.0:
        raise ValueError("rescoring requires non-negative scores")
    out = np.empty(m.shape)
    for rows in _blocks(*m.shape):
        _KERNELS[method](m, rows, out)
    return m.with_scores(out)


def rescore_rr(m: ScoreMatrix) -> ScoreMatrix:
    """Divide every score by its reverse rank on the input matrix."""
    return apply(RescoreMethod.RR, m)


def rescore_fr(m: ScoreMatrix) -> ScoreMatrix:
    """Divide every score by its forward rank on the input matrix."""
    return apply(RescoreMethod.FR, m)


def rescore_rr_fr_1step(m: ScoreMatrix) -> ScoreMatrix:
    """Divide by the product of both ranks, both taken on the input matrix."""
    return apply(RescoreMethod.RR_FR_1STEP, m)


def rescore_rr_fr_2step(m: ScoreMatrix) -> ScoreMatrix:
    """Reverse-rank rescore, then forward-rank rescore the adjusted scores."""
    return apply(RescoreMethod.RR_FR_2STEP, m)
