"""Rank computation and rescoring: worked fixtures, oracle equivalence, invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogmatrix import RescoreMethod, ScoreMatrix, apply, forward_rank_matrix
from cogmatrix import matrix


def mat(scores):
    scores = np.asarray(scores, dtype=np.float64)
    rows = tuple(f"r{i}" for i in range(scores.shape[0]))
    cols = tuple(f"c{j}" for j in range(scores.shape[1]))
    return ScoreMatrix(rows, cols, scores)


def reverse_rank_oracle(scores, i, j):
    """Literal set enumeration: |{k : s[k, j] >= s[i, j]}|."""
    return sum(1 for k in range(scores.shape[0]) if scores[k, j] >= scores[i, j])


def forward_rank_oracle(scores, i, j):
    return sum(1 for k in range(scores.shape[1]) if scores[i, k] >= scores[i, j])


FIXTURE = [[0.9, 0.2], [0.5, 0.7]]


class TestSingleEntryRanks:
    def test_reverse_rank_top_of_column(self):
        m = mat([[0.9], [0.5]])
        assert m.reverse_ranks[0, 0] == 1
        assert m.reverse_ranks[1, 0] == 2

    def test_reverse_rank_ties_share_worst(self):
        m = mat([[0.7], [0.7]])
        assert m.reverse_ranks[0, 0] == 2
        assert m.reverse_ranks[1, 0] == 2

    def test_forward_rank_along_row(self):
        m = mat([[0.9, 0.2]])
        assert forward_rank_matrix(m)[0, 0] == 1
        assert forward_rank_matrix(m)[0, 1] == 2

    def test_one_by_one(self):
        m = mat([[0.3]])
        assert forward_rank_matrix(m)[0, 0] == 1
        assert m.reverse_ranks[0, 0] == 1


class TestRankMatrices:
    def test_fixture_ranks(self):
        m = mat(FIXTURE)
        assert m.reverse_ranks.tolist() == [[1, 2], [2, 1]]
        assert forward_rank_matrix(m).tolist() == [[1, 2], [2, 1]]

    def test_matches_set_enumeration_oracle(self):
        rng = np.random.default_rng(99)
        for trial in range(40):
            n1 = int(rng.integers(1, 12))
            n2 = int(rng.integers(1, 12))
            scores = rng.random((n1, n2))
            if trial % 2:
                scores = np.round(scores, 1)  # force heavy ties
            m = mat(scores)
            rr = m.reverse_ranks
            fr = forward_rank_matrix(m)
            for i in range(n1):
                for j in range(n2):
                    assert rr[i, j] == reverse_rank_oracle(m.scores, i, j)
                    assert fr[i, j] == forward_rank_oracle(m.scores, i, j)

    def test_rank_bounds(self):
        rng = np.random.default_rng(123)
        m = mat(np.round(rng.random((9, 7)), 1))
        rr = m.reverse_ranks
        fr = forward_rank_matrix(m)
        assert rr.min() >= 1 and rr.max() <= 9
        assert fr.min() >= 1 and fr.max() <= 7


class TestRescoreFixtures:
    def test_rr_worked_example(self):
        out = apply("rr", mat(FIXTURE))
        assert out.scores.tolist() == [[0.9, 0.1], [0.25, 0.7]]

    def test_fr_worked_example(self):
        out = apply("fr", mat(FIXTURE))
        assert out.scores.tolist() == [[0.9, 0.1], [0.25, 0.7]]

    def test_1step_worked_example(self):
        out = apply("rr_fr_1step", mat(FIXTURE))
        assert out.scores[0, 0] == 0.9
        assert out.scores[1, 0] == 0.5 / 4
        assert out.scores.tolist() == [[0.9, 0.05], [0.125, 0.7]]

    def test_2step_worked_example(self):
        out = apply("rr_fr_2step", mat(FIXTURE))
        assert out.scores.tolist() == [[0.9, 0.05], [0.125, 0.7]]

    def test_2step_is_fr_after_rr(self):
        rng = np.random.default_rng(5)
        m = mat(rng.random((6, 8)))
        assert np.array_equal(apply("rr_fr_2step", m).scores, apply("fr", apply("rr", m)).scores)

    def test_single_column_collapses_to_descending_ranks(self):
        m = mat([[0.9], [0.1], [0.5]])
        out = apply("rr", m)
        assert out.scores.tolist() == [[0.9 / 1], [0.1 / 3], [0.5 / 2]]

    def test_single_row_fr(self):
        m = mat([[0.6, 0.3]])
        out = apply("fr", m)
        assert out.scores.tolist() == [[0.6, 0.15]]

    def test_all_equal_matrix_divides_by_n(self):
        m = mat(np.full((4, 4), 0.8))
        assert np.array_equal(apply("rr", m).scores, np.full((4, 4), 0.8 / 4))

    def test_1step_one_by_one_unchanged(self):
        m = mat([[0.4]])
        assert apply("rr_fr_1step", m).scores[0, 0] == 0.4

    def test_negative_scores_rejected(self):
        m = mat([[0.5, -0.1]])
        for method in ("rr", "fr", "rr_fr_1step", "rr_fr_2step"):
            with pytest.raises(ValueError, match="non-negative"):
                apply(method, m)


class TestApplyDispatch:
    def test_baseline_is_identity(self):
        m = mat(FIXTURE)
        assert apply(RescoreMethod.BASELINE, m) is m

    def test_fr_and_baseline_never_compute_column_ranks(self):
        m = mat(FIXTURE)
        apply("fr", m)
        apply("baseline", m)
        assert "reverse_ranks" not in vars(m)
        apply("rr", m)
        assert "reverse_ranks" in vars(m)

    def test_accepts_method_names(self):
        m = mat(FIXTURE)
        for method in RescoreMethod:
            assert np.array_equal(apply(method.value, m).scores, apply(method, m).scores)


class TestRescoreProperties:
    def test_transpose_duality(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = mat(rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 9)))))
            mt = ScoreMatrix(m.col_labels, m.row_labels, m.scores.T)
            assert np.array_equal(apply("fr", m).scores, apply("rr", mt).scores.T)

    def test_entrywise_dominance(self):
        rng = np.random.default_rng(32)
        m = mat(rng.random((10, 10)))
        for method in RescoreMethod:
            assert (apply(method, m).scores <= m.scores + 1e-15).all()

    def test_column_weak_order_preserved_by_rr(self):
        rng = np.random.default_rng(33)
        m = mat(np.round(rng.random((12, 6)), 1))
        out = apply("rr", m).scores
        for j in range(6):
            order = np.argsort(m.scores[:, j], kind="stable")
            col_in = m.scores[order, j]
            col_out = out[order, j]
            for a in range(len(col_in) - 1):
                if col_in[a] < col_in[a + 1]:
                    assert col_out[a] <= col_out[a + 1]
                else:  # tie in, tie out
                    assert col_out[a] == col_out[a + 1]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(34)
        m = mat(rng.random((7, 5)))
        rp = rng.permutation(7)
        cp = rng.permutation(5)
        permuted = ScoreMatrix(
            tuple(m.row_labels[i] for i in rp),
            tuple(m.col_labels[j] for j in cp),
            m.scores[np.ix_(rp, cp)],
        )
        for method in RescoreMethod:
            direct = apply(method, permuted).scores
            via = apply(method, m).scores[np.ix_(rp, cp)]
            assert np.array_equal(direct, via)

    def test_not_idempotent_in_general(self):
        rng = np.random.default_rng(35)
        m = mat(rng.random((6, 6)))
        once = apply("rr", m)
        twice = apply("rr", once)
        assert not np.array_equal(once.scores, twice.scores)

    def test_2step_equals_1step_when_rr_keeps_row_order(self):
        # constant columns: every reverse rank is n1, so the RR step divides
        # the whole matrix uniformly and no row ordering changes
        m = mat(np.tile(np.array([1.0, 0.8, 0.6, 0.4, 0.2]), (4, 1)))
        one = apply("rr_fr_1step", m)
        two = apply("rr_fr_2step", m)
        assert np.allclose(one.scores, two.scores, rtol=0, atol=1e-15)


# Tie-heavy score levels; -0.0 and 0.0 compare equal and must tie.
LEVELS = (-0.0, 0.0, 0.25, 0.5, 1.0)


@st.composite
def score_matrices(draw, min_value):
    """Matrices of 0-9 rows and columns: tie-heavy, spread over finite floats,
    or mixed (spread, with a few cells copied from another cell of the same
    row, so that tied and tie-free rows share a block)."""
    n_rows, n_cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    kind = draw(st.sampled_from(("levels", "spread", "mixed")))
    if kind == "levels":
        values = st.sampled_from([v for v in LEVELS if v >= min_value])
    else:
        values = st.floats(min_value, 1e300, allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    scores = np.array(cells, dtype=np.float64).reshape(n_rows, n_cols)
    if kind == "mixed" and scores.size:
        cell = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1),
                         st.integers(0, n_cols - 1))
        for i, src, dst in draw(st.lists(cell, max_size=3)):
            scores[i, dst] = scores[i, src]
    return mat(scores)


def searchsorted_ranks(a):
    """The former rank kernel: one row sort, then one binary search of the
    row's own values into it, per row."""
    n_rows, n_cols = a.shape
    ranks = np.empty(a.shape, dtype=np.int64)
    srt = np.sort(a, axis=1)
    for i in range(n_rows):
        ranks[i] = n_cols - np.searchsorted(srt[i], a[i], side="left")
    return ranks


def searchsorted_rescore(scores):
    """Every rescoring method computed from whole-matrix int64 ranks."""
    rr = searchsorted_ranks(np.ascontiguousarray(scores.T)).T
    fr = searchsorted_ranks(scores)
    by_rr = scores / rr
    return {
        RescoreMethod.RR: by_rr,
        RescoreMethod.FR: scores / fr,
        RescoreMethod.RR_FR_1STEP: scores / (rr * fr),
        RescoreMethod.RR_FR_2STEP: by_rr / searchsorted_ranks(by_rr),
    }


@settings(max_examples=300, deadline=None)
@given(score_matrices(min_value=-1e300), st.integers(1, 50))
def test_rank_operators_match_set_enumeration(m, block_cells):
    # Small blocks give single-row, single-column and ragged last blocks.
    with mock.patch.object(matrix, "_BLOCK_CELLS", block_cells):
        rr, fr = m.reverse_ranks, forward_rank_matrix(m)
    assert rr.shape == fr.shape == m.shape
    # The column ranks are the matrix's own, shared and read-only.
    assert rr is m.reverse_ranks
    assert not rr.flags.writeable
    assert rr.dtype == matrix._rank_dtype(m.n_rows)
    for i in range(m.n_rows):
        for j in range(m.n_cols):
            assert rr[i, j] == reverse_rank_oracle(m.scores, i, j)
            assert fr[i, j] == forward_rank_oracle(m.scores, i, j)


@settings(max_examples=300, deadline=None)
@given(score_matrices(min_value=0.0), st.integers(1, 50))
def test_rescorers_bit_identical_to_searchsorted_ranks(m, block_cells):
    # Three orders of computing the methods: all on one matrix in order, each
    # on a fresh matrix (cold column-rank cache), all on one matrix in reverse.
    with mock.patch.object(matrix, "_BLOCK_CELLS", block_cells):
        in_order = {method: apply(method, m).scores for method in RescoreMethod}
        cold = {method: apply(method, mat(m.scores)).scores for method in RescoreMethod}
        shared = mat(m.scores)
        reverse = {method: apply(method, shared).scores for method in reversed(RescoreMethod)}
    for method, want in searchsorted_rescore(m.scores).items():
        for got in (in_order, cold, reverse):
            assert got[method].shape == m.shape
            assert np.array_equal(got[method].view(np.uint64), want.view(np.uint64)), method


@settings(max_examples=300, deadline=None)
@given(score_matrices(min_value=-1e300))
def test_kernel_ranks_non_contiguous_views(m):
    # A transposed view, and one single-column view per column.
    views = (m.scores.T, *(m.scores[None, :, j] for j in range(m.n_cols)))
    for view in views:
        assert np.array_equal(matrix._row_ranks_ge(view), searchsorted_ranks(view))


def test_methods_on_one_matrix_share_one_column_rank_pass():
    rng = np.random.default_rng(7)
    m = mat(np.round(rng.random((40, 30)), 1))
    # Row ranks are called from rescore; only the column pass calls the kernel
    # from matrix.
    with mock.patch.object(matrix, "_BLOCK_CELLS", 64), mock.patch.object(
        matrix, "_row_ranks_ge", wraps=matrix._row_ranks_ge
    ) as kernel:
        column_blocks = len(matrix._blocks(m.n_cols, m.n_rows))
        for method in RescoreMethod:
            apply(method, m)
        m.reverse_ranks
    assert column_blocks > 1
    assert kernel.call_count == column_blocks
