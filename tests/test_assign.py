"""Maximum assignment: optimality against a permutation oracle, constraints, curve."""

import importlib.machinery
import io
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from cogmatrix import assign
from cogmatrix import (
    GoldPairs,
    ResourceLimitError,
    ScoreMatrix,
    hit_curve,
    hungarian_max,
    max_assignment_curve,
    save_assignment,
)


def mat(scores):
    scores = np.asarray(scores, dtype=np.float64)
    rows = tuple(f"r{i}" for i in range(scores.shape[0]))
    cols = tuple(f"c{j}" for j in range(scores.shape[1]))
    return ScoreMatrix(rows, cols, scores)


def brute_force_max_total(scores):
    """Exhaustive search over all one-to-one assignments of the short side."""
    n1, n2 = scores.shape
    best = -np.inf
    if n1 <= n2:
        for cols in itertools.permutations(range(n2), n1):
            best = max(best, sum(scores[i, c] for i, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n1), n2):
            best = max(best, sum(scores[r, j] for j, r in enumerate(rows)))
    return best


def total(scores, assignment):
    return np.asarray(scores)[assignment].sum()


class TestHungarianMax:
    def test_diagonal_dominance(self):
        scores = [[2.0, 1.0], [1.0, 2.0]]
        rows, cols = hungarian_max(mat(scores))
        assert (rows.tolist(), cols.tolist()) == ([0, 1], [0, 1])
        assert total(scores, (rows, cols)) == 4.0

    def test_anti_diagonal_dominance(self):
        scores = [[1.0, 2.0], [2.0, 1.0]]
        rows, cols = hungarian_max(mat(scores))
        assert (rows.tolist(), cols.tolist()) == ([0, 1], [1, 0])
        assert total(scores, (rows, cols)) == 4.0

    def test_matches_brute_force_on_random_squares(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            scores = rng.normal(size=(n, n))
            a = hungarian_max(mat(scores))
            assert total(scores, a) == pytest.approx(brute_force_max_total(scores), abs=1e-10)

    def test_matches_brute_force_on_rectangles(self):
        rng = np.random.default_rng(78)
        for _ in range(40):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            scores = rng.normal(size=(n1, n2))
            a = hungarian_max(mat(scores))
            assert len(a[0]) == len(a[1]) == min(n1, n2)
            assert total(scores, a) == pytest.approx(brute_force_max_total(scores), abs=1e-10)

    def test_one_to_one_constraints_hold(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            rows, cols = hungarian_max(mat(rng.random((5, 8))))
            assert np.issubdtype(rows.dtype, np.integer) and np.issubdtype(cols.dtype, np.integer)
            assert (np.diff(rows) > 0).all()  # row order, each row once
            assert len(np.unique(cols)) == len(cols)

    def test_constant_shift_leaves_argmax_unchanged(self):
        rng = np.random.default_rng(80)
        scores = rng.random((6, 6))
        base = hungarian_max(mat(scores))
        shifted = hungarian_max(mat(scores + 3.7))
        assert np.array_equal(base, shifted)
        assert total(scores + 3.7, shifted) == pytest.approx(total(scores, base) + 3.7 * 6,
                                                             abs=1e-9)

    @pytest.mark.parametrize("shape", [(9, 4), (40, 39), (4, 9), (39, 40), (1, 5), (5, 1), (12, 12)])
    @pytest.mark.parametrize("levels", [None, 1, 2, 3])
    def test_same_pairs_as_negated_solve(self, shape, levels):
        # A tall matrix is solved on its transpose; the pairs, tie breaks
        # included, must be those of the plain solve, in row order.
        rng = np.random.default_rng(81)
        for _ in range(5):
            scores = rng.random(shape) if levels is None else (
                rng.integers(0, levels, size=shape).astype(np.float64))
            rows, cols = linear_sum_assignment(-scores)
            got_rows, got_cols = hungarian_max(mat(scores))
            assert got_rows.tolist() == rows.tolist()
            assert got_cols.tolist() == cols.tolist()

    def test_memory_guard(self, loaded_solver, monkeypatch):
        # The solve's one negated copy takes 8 * n1 * n2 bytes; a matrix whose
        # copy exceeds the available memory is refused before SciPy is loaded.
        m = mat(np.zeros((3, 2)))
        monkeypatch.setattr(assign, "_mem_available", lambda: 47)
        with pytest.raises(ResourceLimitError) as refused:
            hungarian_max(m)
        assert str(refused.value) == (
            "matrix 3x2 needs 48 bytes for its assignment copy; 47 bytes available")
        assert isinstance(refused.value, MemoryError)
        assert loaded_solver.cache_info().misses == 0
        monkeypatch.setattr(assign, "_mem_available", lambda: 48)
        rows, cols = hungarian_max(m)
        assert (rows.tolist(), cols.tolist()) == ([0, 1], [0, 1])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            hungarian_max(ScoreMatrix((), ("c0",), np.zeros((0, 1))))


@pytest.fixture
def loaded_solver():
    """``assign._linear_sum_assignment``, its cache cleared before and after."""
    assign._linear_sum_assignment.cache_clear()
    yield assign._linear_sum_assignment
    assign._linear_sum_assignment.cache_clear()


class TestMemAvailable:
    MEMINFO = "MemTotal:        8221716 kB\nMemFree:         6654352 kB\n"

    def read(self, monkeypatch, text=None):
        """``assign._mem_available()`` with ``open`` in ``assign`` serving
        ``text`` as /proc/meminfo, or failing as a missing file if it is None."""
        def fake_open(path, *args, **kwargs):
            assert path == "/proc/meminfo"
            if text is None:
                raise FileNotFoundError(path)
            return io.StringIO(text)

        monkeypatch.setattr(assign, "open", fake_open, raising=False)
        return assign._mem_available()

    def test_kib_line_read_as_bytes(self, monkeypatch):
        text = self.MEMINFO + "MemAvailable:    7689472 kB\nBuffers:          102400 kB\n"
        assert self.read(monkeypatch, text) == 7689472 * 1024

    def test_missing_line_is_unbounded(self, monkeypatch):
        assert self.read(monkeypatch, self.MEMINFO) == math.inf

    def test_unreadable_file_is_unbounded(self, monkeypatch):
        assert self.read(monkeypatch) == math.inf

    def test_this_machine(self):
        available = assign._mem_available()
        assert available == math.inf or (isinstance(available, int) and available > 0)


class TestCompiledSolver:
    @pytest.mark.parametrize("fallback", [False, True])
    def test_same_arrays_as_scipy_optimize(self, loaded_solver, monkeypatch, fallback):
        if fallback:
            find_spec, asked = importlib.machinery.PathFinder.find_spec, []

            def no_lsap(name, *args):
                asked.append(name)
                return None if name == "scipy.optimize._lsap" else find_spec(name, *args)

            monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_lsap)
        solve = loaded_solver()
        assert not fallback or "scipy.optimize._lsap" in asked
        rng = np.random.default_rng(82)
        for scores in (rng.random((12, 12)), rng.random((4, 9)), rng.random((9, 4)),
                       np.ones((6, 8)), rng.integers(0, 2, size=(10, 10)).astype(np.float64)):
            for cost in (scores, -scores):
                rows, cols = solve(cost)
                want_rows, want_cols = linear_sum_assignment(cost)
                assert rows.tolist() == want_rows.tolist()
                assert cols.tolist() == want_cols.tolist()


class TestMaxAssignmentCurve:
    def test_perfect_assignment_reaches_full_recall(self):
        m = mat([[0.9, 0.1], [0.2, 0.8]])
        a = hungarian_max(m)
        gold = GoldPairs(frozenset({("r0", "c0"), ("r1", "c1")}))
        curve = max_assignment_curve(m, a, gold)
        assert (curve.precisions == 1.0).all()
        assert curve.recalls[-1] == 1.0

    def test_no_leading_point(self):
        # Like every other curve, it starts at its first gold hit.
        m = mat([[0.9, 0.1], [0.2, 0.8]])
        a = hungarian_max(m)
        gold = GoldPairs(frozenset({("r0", "c0")}))
        curve = max_assignment_curve(m, a, gold)
        assert curve.thresholds.tolist() == [0.9, 0.8]
        assert curve.precisions.tolist() == [1.0, 0.5]
        assert curve.recalls.tolist() == [1.0, 1.0]
        assert np.isfinite(curve.thresholds).all()

    def test_no_gold_hit_is_one_point(self):
        # A leading empty-prediction point would make IAP11 1/11 here.
        m = mat([[0.9, 0.1], [0.2, 0.8]])
        a = hungarian_max(m)
        gold = GoldPairs(frozenset({("r0", "c1"), ("out", "out")}))
        curve = max_assignment_curve(m, a, gold)
        assert curve.thresholds.tolist() == [0.8]
        assert curve.precisions.tolist() == [0.0]
        assert curve.recalls.tolist() == [0.0]
        assert curve.max_f1 == 0.0
        assert curve.iap11 == 0.0

    def test_three_pair_sweep_by_hand(self):
        # assignment pairs score 0.9 (gold), 0.6 (not), 0.3 (gold); |gold|=3
        scores = np.array([
            [0.9, 0.0, 0.0],
            [0.0, 0.6, 0.0],
            [0.0, 0.0, 0.3],
        ])
        m = mat(scores)
        a = hungarian_max(m)
        gold = GoldPairs(frozenset({("r0", "c0"), ("r2", "c2"), ("r1", "c1x")}))
        curve = max_assignment_curve(m, a, gold)
        # prefix walk: (1/1, 1/3), (1/2, 1/3), (2/3, 2/3); the hits and the last
        assert curve.thresholds.tolist() == [0.9, 0.3, 0.3]
        assert curve.precisions.tolist() == [1.0, 2 / 3, 2 / 3]
        assert curve.recalls.tolist() == [1 / 3, 2 / 3, 2 / 3]

    def test_tied_scores_swept_in_row_label_order(self):
        # Rows c, b, a assigned to x, y, z; b and a tie at 0.7, so a (not
        # gold) is predicted before b (gold), though b has the lower index.
        m = ScoreMatrix(("c", "b", "a"), ("x", "y", "z"), np.diag([0.9, 0.7, 0.7]))
        a = hungarian_max(m)
        gold = GoldPairs(frozenset({("c", "x"), ("b", "y")}))
        curve = max_assignment_curve(m, a, gold)
        assert curve.thresholds.tolist() == [0.9, 0.7, 0.7]
        assert curve.precisions.tolist() == [1.0, 2 / 3, 2 / 3]
        assert curve.recalls.tolist() == [0.5, 1.0, 1.0]

    def test_empty_gold_rejected(self):
        m = mat([[1.0]])
        a = hungarian_max(m)
        with pytest.raises(ValueError, match="gold"):
            max_assignment_curve(m, a, GoldPairs(frozenset()))

    def test_gold_without_candidates_rejected_as_by_hit_curve(self):
        m = mat([[0.9, 0.1], [0.2, 0.8]])
        gold = GoldPairs(frozenset({("r0", "out"), ("out", "c1")}))
        message = "^no gold pairs in candidate universe$"
        with pytest.raises(ValueError, match=message):
            hit_curve(m, gold)
        with pytest.raises(ValueError, match=message):
            max_assignment_curve(m, hungarian_max(m), gold)


class TestPersistence:
    def test_save_assignment(self, tmp_path):
        m = mat([[2.0, 1.0], [1.0, 2.0]])
        a = hungarian_max(m)
        path = tmp_path / "assignment.tsv"
        save_assignment(m, a, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["r0\tc0\t2.0", "r1\tc1\t2.0"]

    @pytest.mark.parametrize("label", ["a\tb", "a\nb"])
    def test_label_with_separator_refused(self, tmp_path, label):
        m = ScoreMatrix(("r0", "r1"), ("c0", label), np.array([[2.0, 1.0], [1.0, 2.0]]))
        path = tmp_path / "assignment.tsv"
        with pytest.raises(ValueError) as exc:
            save_assignment(m, hungarian_max(m), path)
        assert str(exc.value) == f"label not representable in an assignment file: {label!r}"
        assert not path.exists()
