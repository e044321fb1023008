"""PR curves, interpolated precision, MaxF1, IAP11, and the method report."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cogmatrix import (
    GoldPairs,
    PRCurve,
    ScoreMatrix,
    compare_methods,
    hit_curve,
    interpolated_precision,
    load_curve,
    max_assignment_curve,
    pr_curve,
    save_curve,
    save_report,
)
from cogmatrix.evaluate import _label_ranks


def mat(scores, rows=None, cols=None):
    scores = np.asarray(scores, dtype=np.float64)
    rows = rows or tuple(f"r{i}" for i in range(scores.shape[0]))
    cols = cols or tuple(f"c{j}" for j in range(scores.shape[1]))
    return ScoreMatrix(tuple(rows), tuple(cols), scores)


@pytest.fixture
def ranked_101_curve():
    """The ranked list (gold, not, gold) with |gold| = 2, as a direct curve."""
    return PRCurve(
        thresholds=np.array([3.0, 2.0, 1.0]),
        precisions=np.array([1.0, 0.5, 2 / 3]),
        recalls=np.array([0.5, 0.5, 1.0]),
    )


@pytest.fixture
def ranked_101_matrix():
    """2x2 matrix whose descending pair list is (gold, not, gold, not).

    The trailing fourth position changes neither MaxF1 nor the 11-point
    average, so the curve summaries equal the 3-point ranked-list example.
    """
    m = mat([[4.0, 3.0], [1.0, 2.0]], rows=("a", "b"), cols=("u", "v"))
    gold = GoldPairs(frozenset({("a", "u"), ("b", "v")}))
    return m, gold


class TestPRCurve:
    def test_hand_counted_prefixes(self, ranked_101_matrix):
        m, gold = ranked_101_matrix
        curve = pr_curve(m, gold)
        assert curve.thresholds.tolist() == [4.0, 3.0, 2.0, 1.0]
        assert curve.precisions.tolist() == [1.0, 0.5, 2 / 3, 0.5]
        assert curve.recalls.tolist() == [0.5, 0.5, 1.0, 1.0]

    def test_perfect_ranking_contains_perfect_point(self):
        m = mat([[0.9, 0.1], [0.2, 0.8]], rows=("a", "b"), cols=("u", "v"))
        gold = GoldPairs(frozenset({("a", "u"), ("b", "v")}))
        curve = pr_curve(m, gold)
        perfect = (curve.precisions == 1.0) & (curve.recalls == 1.0)
        assert perfect.any()

    def test_all_gold_universe_has_precision_one(self):
        m = mat([[0.9]], rows=("a",), cols=("u",))
        curve = pr_curve(m, GoldPairs(frozenset({("a", "u")})))
        assert (curve.precisions == 1.0).all()

    def test_no_gold_in_universe_rejected(self):
        m = mat([[1.0]])
        with pytest.raises(ValueError, match="no gold pairs"):
            pr_curve(m, GoldPairs(frozenset({("other", "pair")})))

    def test_recall_denominator_counts_all_gold(self):
        # one gold pair is outside the matrix, so recall tops out at 0.5
        m = mat([[0.9]], rows=("a",), cols=("u",))
        gold = GoldPairs(frozenset({("a", "u"), ("zzz", "www")}))
        curve = pr_curve(m, gold)
        assert curve.recalls.max() == 0.5

    def test_ties_broken_by_row_then_column_label(self):
        m = mat([[0.5, 0.5], [0.5, 0.5]], rows=("b", "a"), cols=("v", "u"))
        gold = GoldPairs(frozenset({("a", "u")}))
        curve = pr_curve(m, gold)
        # order must be (a,u), (a,v), (b,u), (b,v): the gold hit comes first
        assert curve.precisions.tolist() == [1.0, 0.5, 1 / 3, 0.25]

    def test_recall_non_decreasing_enforced(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            PRCurve(np.array([2.0, 1.0]), np.array([1.0, 1.0]), np.array([0.5, 0.25]))


# Characters where numpy string arrays and Python strings part ways (a
# trailing NUL), and astral-plane ones beyond the basic multilingual plane.
EDGE_CHARS = ("\x00", "a", "b", "\xe9", "\uffff", "\U00010000", "\U0001f600")


@st.composite
def label_lists(draw):
    """Distinct labels, with NUL-padded, prefix and astral variants of each other."""
    text = st.text(st.one_of(st.sampled_from(EDGE_CHARS), st.characters()), max_size=4)
    labels = []
    for base in draw(st.lists(text, max_size=6)):
        labels += [base, base + "\x00", base + "\x00\x00", base[:-1], base + "\U0001f600"]
    return draw(st.permutations(list(dict.fromkeys(labels))))


class TestTieOrder:
    """Every curve breaks score ties by row label, then column label, as Python strings."""

    @given(label_lists())
    @example(["a\x00", "a"])
    def test_label_order_is_python_string_order(self, labels):
        labels = tuple(labels)
        ranks = _label_ranks(labels)
        ordered = [None] * len(labels)
        for label, rank in zip(labels, ranks):
            ordered[rank] = label
        assert ordered == sorted(labels)

    def test_trailing_nul_label_sorts_after_its_prefix(self):
        m = mat(np.full((2, 2), 0.5), rows=("a\x00", "a"), cols=("u", "v"))
        gold = GoldPairs(frozenset({("a", "u")}))
        assert pr_curve(m, gold).precisions.tolist() == [1.0, 0.5, 1 / 3, 0.25]
        assert hit_curve(m, gold).precisions.tolist() == [1.0, 0.25]
        # (a\x00, v) and (a, u): the gold pair is predicted first.
        a = (np.array([0, 1]), np.array([1, 0]))
        assert max_assignment_curve(m, a, gold).precisions.tolist() == [1.0, 0.5]


class TestInterpolatedPrecision:
    def test_at_zero_takes_global_max(self, ranked_101_curve):
        assert interpolated_precision(ranked_101_curve, 0.0) == 1.0

    def test_above_half_takes_tail_max(self, ranked_101_curve):
        assert interpolated_precision(ranked_101_curve, 0.6) == 2 / 3

    def test_at_one_takes_final_point(self, ranked_101_curve):
        assert interpolated_precision(ranked_101_curve, 1.0) == 2 / 3

    def test_out_of_range_rejected(self, ranked_101_curve):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                interpolated_precision(ranked_101_curve, bad)

    def test_non_increasing_in_r(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            recalls = np.sort(rng.random(n))
            curve = PRCurve(np.arange(n, dtype=float)[::-1], rng.random(n), recalls)
            levels = np.linspace(0, 1, 21)
            values = [interpolated_precision(curve, r) for r in levels]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestSummaries:
    def test_iap11_matches_hand_sum(self, ranked_101_curve):
        # six levels see precision 1.0, five see 2/3
        assert ranked_101_curve.iap11 == (6 * 1.0 + 5 * (2 / 3)) / 11

    def test_iap11_on_matrix_fixture(self, ranked_101_matrix):
        m, gold = ranked_101_matrix
        assert pr_curve(m, gold).iap11 == (6 * 1.0 + 5 * (2 / 3)) / 11

    def test_max_f1_exact(self, ranked_101_curve):
        assert ranked_101_curve.max_f1 == 0.8

    def test_max_f1_on_matrix_fixture(self, ranked_101_matrix):
        m, gold = ranked_101_matrix
        assert pr_curve(m, gold).max_f1 == 0.8

    def test_perfect_ranking_scores_one(self):
        m = mat([[0.9, 0.1], [0.2, 0.8]], rows=("a", "b"), cols=("u", "v"))
        gold = GoldPairs(frozenset({("a", "u"), ("b", "v")}))
        curve = pr_curve(m, gold)
        assert curve.iap11 == 1.0
        assert curve.max_f1 == 1.0

    def test_f1_zero_when_no_hits_in_prefix(self):
        curve = PRCurve(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        assert curve.max_f1 == 0.0
        assert curve.iap11 == 0.0

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(41)
        scores = rng.random((6, 6))
        rows = tuple(f"a{i}" for i in range(6))
        cols = tuple(f"b{j}" for j in range(6))
        gold = GoldPairs(frozenset({(rows[i], cols[i]) for i in range(6)}))
        m1 = mat(scores, rows, cols)
        m2 = mat(np.exp(3.0 * scores) + 5.0, rows, cols)
        c1, c2 = pr_curve(m1, gold), pr_curve(m2, gold)
        assert c1.max_f1 == c2.max_f1
        assert c1.iap11 == c2.iap11


class TestCompareMethods:
    def test_report_shape_and_order(self):
        rng = np.random.default_rng(42)
        rows = tuple(f"a{i}" for i in range(5))
        cols = tuple(f"b{j}" for j in range(5))
        gold = GoldPairs(frozenset({(rows[i], cols[i]) for i in range(5)}))
        m = mat(rng.random((5, 5)), rows, cols)
        result = compare_methods({"rr": m, "baseline": m}, gold)
        assert [row.method for row in result] == ["baseline", "rr"]

    def test_identical_matrices_identical_rows(self):
        rng = np.random.default_rng(43)
        rows = tuple(f"a{i}" for i in range(4))
        cols = tuple(f"b{j}" for j in range(4))
        gold = GoldPairs(frozenset({(rows[i], cols[i]) for i in range(4)}))
        m = mat(rng.random((4, 4)), rows, cols)
        result = compare_methods({"one": m, "two": m}, gold)
        assert result[0][1:] == result[1][1:]

    def test_writes_curve_files(self, tmp_path):
        m = mat([[0.9]], rows=("a",), cols=("u",))
        gold = GoldPairs(frozenset({("a", "u")}))
        compare_methods({"baseline": m}, gold, out_dir=tmp_path)
        assert (tmp_path / "curve_baseline.tsv").exists()


class TestCurveAndReportFiles:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5\t1.0\t0.5\n", ":1: expected header '#prcurve v1 method=<name>'"),
            ("#prcurve v1 method=rr\n0.5\t1.0\n", ":2: expected 3 tab-separated values"),
            ("#prcurve v1 method=rr\n0.5\t1.0\t0.5\n0.4\tx\t0.5\n",
             ":3: unparseable value in '0.4\\tx\\t0.5'"),
        ],
    )
    def test_malformed_curve_file_names_line(self, tmp_path, text, message):
        path = tmp_path / "curve.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_curve(path)
        assert str(exc.value) == f"{path}{message}"

    def test_curve_round_trip(self, tmp_path, ranked_101_curve):
        path = tmp_path / "curve.tsv"
        save_curve(ranked_101_curve, path, "baseline")
        back, method = load_curve(path)
        assert method == "baseline"
        assert np.array_equal(back.thresholds, ranked_101_curve.thresholds)
        assert np.array_equal(back.precisions, ranked_101_curve.precisions)
        assert np.array_equal(back.recalls, ranked_101_curve.recalls)

    @pytest.mark.parametrize("field", ["thresholds", "precisions", "recalls"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_curve_rejected(self, field, value):
        arrays = {"thresholds": [0.5, 0.25], "precisions": [1.0, 0.5], "recalls": [0.5, 0.5]}
        arrays[field] = [arrays[field][0], value]
        with pytest.raises(ValueError) as exc:
            PRCurve(**arrays)
        assert str(exc.value) == (
            "thresholds, precisions, recalls must be finite (no NaN or infinity)")

    @pytest.mark.parametrize("line", ["0.5\tnan\t0.5", "nan\t1.0\t0.5", "0.5\t1.0\tinf"])
    def test_non_finite_curve_file_rejected(self, tmp_path, line):
        path = tmp_path / "curve.tsv"
        path.write_text(f"#prcurve v1 method=rr\n0.9\t1.0\t0.0\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="must be finite"):
            load_curve(path)

    def test_curve_compared_and_hashed_by_identity(self):
        curve = PRCurve(np.array([2.0, 1.0]), np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        twin = PRCurve(curve.thresholds, curve.precisions, curve.recalls)
        assert (curve == twin) is False
        assert len({curve, curve, twin}) == 2

    @pytest.mark.parametrize("method", ["a\tb", "a\nb"])
    def test_method_name_with_separator_refused(self, tmp_path, ranked_101_curve, method):
        with pytest.raises(ValueError) as exc:
            save_curve(ranked_101_curve, tmp_path / "curve.tsv", method)
        assert str(exc.value) == f"method name not representable in a curve file: {method!r}"
        with pytest.raises(ValueError) as exc:
            save_report([("rr", 0.5, 0.5), (method, 0.5, 0.5)], tmp_path / "report.tsv")
        assert str(exc.value) == f"method name not representable in a report file: {method!r}"
        assert list(tmp_path.iterdir()) == []

    def test_report_format(self, tmp_path):
        save_report(
            [("baseline", 0.54921, 0.50994), ("rr", 0.62944, 0.59618)],
            tmp_path / "report.tsv",
        )
        text = (tmp_path / "report.tsv").read_text(encoding="utf-8")
        assert text == "baseline\t0.5492\t0.5099\nrr\t0.6294\t0.5962\n"
