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

``apply(method, m)`` is the one way to run a method.  Every method is
row-local once the column ranks are known: ``_KERNELS`` holds one formula
per method that writes a block of output rows, and ``apply`` alone checks
the scores, allocates the output and runs the blocks (in parallel, by
``matrix._run_blocks``).  ``rr``, ``rr_fr_1step`` and ``rr_fr_2step`` share
the input's cached ``ScoreMatrix.reverse_ranks`` (every cell's column rank,
one column pass); ``fr`` never reads them.  ``forward_rank_matrix`` gives
every cell's row rank, so cell (i, j) has the ranks ``m.reverse_ranks[i, j]``
and ``forward_rank_matrix(m)[i, j]``.
"""

from __future__ import annotations

import enum

import numpy as np

from .matrix import ScoreMatrix, _blocks, _by_row_blocks, _rank_dtype, _row_ranks_ge, _run_blocks


class RescoreMethod(str, enum.Enum):
    BASELINE = "baseline"
    RR = "rr"
    FR = "fr"
    RR_FR_1STEP = "rr_fr_1step"
    RR_FR_2STEP = "rr_fr_2step"


def forward_rank_matrix(m: ScoreMatrix) -> np.ndarray:
    """The rank of every cell along its row: the number of columns whose
    score against the cell's row is >= the cell's."""
    s = m.scores
    return _by_row_blocks(*m.shape, lambda rows: _row_ranks_ge(s[rows]), _rank_dtype(m.n_cols))


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
    if method is not RescoreMethod.FR:
        m.reverse_ranks  # the column pass runs its own blocks in parallel, before the rows'
    kernel = _KERNELS[method]
    out = np.empty(m.shape)
    _run_blocks(lambda rows: kernel(m, rows, out), _blocks(*m.shape))
    return m.with_scores(out)

