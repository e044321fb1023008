"""The hit-point curves against full-sweep oracles, bit for bit: hit_curve
against pr_curve, max_assignment_curve against a prefix walk of its pairs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogmatrix import (GoldPairs, PRCurve, ScoreMatrix, compare_methods, hit_curve, hungarian_max,
                       load_curve, max_assignment_curve, pr_curve)
from cogmatrix import matrix

# Tie-heavy score levels; -0.0 and 0.0 compare equal and must tie.
LEVELS = (-0.0, 0.0, 0.25, 0.5, 1.0)


@st.composite
def evaluation_cases(draw):
    """A labeled matrix, a one-to-one gold set with at least one candidate, a block size."""
    n_rows = draw(st.integers(1, 9))
    n_cols = draw(st.integers(1, 9))
    if draw(st.booleans()):
        values = st.sampled_from(LEVELS)
    else:
        values = st.floats(0.0, 1.0, allow_nan=False)
    scores = np.array(
        draw(st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols)),
        dtype=np.float64,
    ).reshape(n_rows, n_cols)
    rows = draw(st.permutations([f"r{i}" for i in range(n_rows)]))
    cols = draw(st.permutations([f"c{j}" for j in range(n_cols)]))
    n_gold = draw(st.integers(1, min(n_rows, n_cols)))
    gold_rows = draw(st.permutations(rows))[:n_gold]
    gold_cols = draw(st.permutations(cols))[:n_gold]
    pairs = set(zip(gold_rows, gold_cols))
    # Gold pairs outside the universe count only in the recall denominator.
    pairs |= {(f"out{i}", f"out{i}") for i in range(draw(st.integers(0, 2)))}
    block_cells = draw(st.integers(1, 50))
    return ScoreMatrix(tuple(rows), tuple(cols), scores), GoldPairs(frozenset(pairs)), block_cells


def hit_points(curve):
    """The oracle's points where recall rises, plus its last point."""
    rises = np.flatnonzero(np.diff(curve.recalls, prepend=0.0) > 0)
    keep = np.append(rises, len(curve) - 1)
    return curve.thresholds[keep], curve.precisions[keep], curve.recalls[keep]


def assert_matches_oracle(m, gold):
    oracle, hits = pr_curve(m, gold), hit_curve(m, gold)
    assert hits.max_f1 == oracle.max_f1
    assert hits.iap11 == oracle.iap11
    thresholds, precisions, recalls = hit_points(oracle)
    assert np.array_equal(hits.thresholds, thresholds)
    assert np.array_equal(hits.precisions, precisions)
    assert np.array_equal(hits.recalls, recalls)


@settings(max_examples=300, deadline=None)
@given(evaluation_cases())
def test_matches_oracle_on_multi_block_walks(case):
    m, gold, block_cells = case
    with mock.patch.object(matrix, "_BLOCK_CELLS", block_cells):
        assert_matches_oracle(m, gold)


@settings(max_examples=100, deadline=None)
@given(evaluation_cases())
def test_matches_oracle_in_one_block(case):
    m, gold, _ = case
    assert_matches_oracle(m, gold)


def test_one_by_one_matrix():
    m = ScoreMatrix(("a",), ("u",), np.array([[0.3]]))
    curve = hit_curve(m, GoldPairs(frozenset({("a", "u"), ("b", "v")})))
    assert curve.thresholds.tolist() == [0.3, 0.3]
    assert curve.precisions.tolist() == [1.0, 1.0]
    assert curve.recalls.tolist() == [0.5, 0.5]


@pytest.mark.parametrize(
    "n, levels, block_cells",
    [
        pytest.param(60, 4, 300, id="four-levels-five-rows-per-block"),
        # Every cell tied: many gold cells share one block and one score.
        pytest.param(50, 1, 600, id="constant"),
        # Real multi-row blocks at the default size, label order not index order.
        pytest.param(701, 5, matrix._BLOCK_CELLS, id="701-five-levels-default-blocks"),
    ],
)
def test_larger_tie_heavy_matrix_across_blocks(n, levels, block_cells):
    rng = np.random.default_rng(7)
    scores = np.floor(rng.random((n, n)) * levels) / levels
    rows = tuple(f"w{i:03d}" for i in rng.permutation(n))
    cols = tuple(f"v{j:03d}" for j in rng.permutation(n))
    gold = GoldPairs(frozenset((rows[i], cols[(7 * i) % n]) for i in range(0, n, 2)))
    with mock.patch.object(matrix, "_BLOCK_CELLS", block_cells):
        assert_matches_oracle(ScoreMatrix(rows, cols, scores), gold)


def one_row_per_block(scores, gold_cells, rows=None):
    """``assert_matches_oracle`` with every row a block of its own."""
    n_rows, n_cols = scores.shape
    rows = rows or tuple(f"r{i}" for i in range(n_rows))
    cols = tuple(f"c{j}" for j in range(n_cols))
    gold = GoldPairs(frozenset((rows[i], cols[j]) for i, j in gold_cells))
    with mock.patch.object(matrix, "_BLOCK_CELLS", 1):
        assert len(matrix._blocks(n_rows, n_cols)) == n_rows
        assert_matches_oracle(ScoreMatrix(rows, cols, scores), gold)


def test_block_entirely_below_lowest_gold_score():
    # Every cell of three of the four blocks lies below the one gold cell, so
    # their partition point is the last cell (partition(k) would raise).
    scores = np.zeros((4, 6))
    scores[2, 3] = 1.0
    one_row_per_block(scores, [(2, 3)])


def test_no_cell_below_lowest_gold_score():
    scores = np.random.default_rng(3).random((4, 6)) + 1.0
    scores[1, 4] = 0.5
    scores[3, 0] = 1.5
    one_row_per_block(scores, [(1, 4), (3, 0)])


def test_cells_equal_to_lowest_gold_score_around_its_row():
    # The lowest gold score 0.3 also lies in rows before and after the gold
    # row in label order, and beside the gold cell in its own row; the
    # partition must keep those cells, which precede the gold cell or not by
    # label order alone.
    rng = np.random.default_rng(4)
    scores = rng.choice([0.1, 0.2, 0.6, 0.9], size=(5, 6))
    scores[2, [1, 3, 5]] = 0.3
    scores[[0, 4], 2] = 0.3
    scores[1, 0] = 0.9
    rows = ("r3", "r0", "r2", "r4", "r1")  # label order differs from index order
    one_row_per_block(scores, [(2, 3), (1, 0)], rows)


def test_compare_methods_writes_hit_point_curve(tmp_path):
    rng = np.random.default_rng(8)
    rows = tuple(f"a{i}" for i in range(7))
    cols = tuple(f"b{j}" for j in range(9))
    gold = GoldPairs(frozenset({(rows[i], cols[i + 1]) for i in range(5)}))
    m = ScoreMatrix(rows, cols, rng.random((7, 9)))
    report = compare_methods({"baseline": m}, gold, out_dir=tmp_path)
    path = tmp_path / "curve_baseline.tsv"
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + len(gold) + 1
    curve, method = load_curve(path)
    assert method == "baseline"
    assert len(curve) == len(gold) + 1
    expected = hit_curve(m, gold)
    assert np.array_equal(curve.thresholds, expected.thresholds)
    assert np.array_equal(curve.precisions, expected.precisions)
    assert np.array_equal(curve.recalls, expected.recalls)
    assert report[0].max_f1 == pr_curve(m, gold).max_f1
    assert report[0].iap11 == pr_curve(m, gold).iap11


def prefix_walk(m, a, gold):
    """Every prefix of the assigned pairs sorted by (-score, row label) as one
    (threshold, precision, recall, hit) point, in plain Python."""
    swept = sorted(zip(m.scores[a].tolist(), zip(*a)), key=lambda sp: (-sp[0], m.row_labels[sp[1][0]]))
    points, hits = [], 0
    for k, (score, (i, j)) in enumerate(swept, start=1):
        hit = (m.row_labels[i], m.col_labels[j]) in gold.pairs
        hits += hit
        points.append((score, hits / k, hits / len(gold), hit))
    return points


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(evaluation_cases(), st.data())
def test_assignment_curve_matches_prefix_walk(case, data):
    m, gold, _ = case
    a = hungarian_max(m)
    if data.draw(st.booleans()):
        # Gold drawn from the assigned pairs, so that most sweeps hit it often.
        assigned = [(m.row_labels[i], m.col_labels[j]) for i, j in zip(*a)]
        picked = data.draw(st.lists(st.sampled_from(assigned), unique=True))
        outside = {pair for pair in gold.pairs if pair[0].startswith("out")}
        assume(picked or outside)
        gold = GoldPairs(frozenset(picked) | outside)
        if not picked:  # no gold pair among the candidates: refused, as by hit_curve
            with pytest.raises(ValueError, match="no gold pairs in candidate universe"):
                max_assignment_curve(m, a, gold)
            return
    walk = prefix_walk(m, a, gold)
    expected = [point[:3] for point in walk if point[3]] + [walk[-1][:3]]
    curve = max_assignment_curve(m, a, gold)
    assert bits(curve.thresholds) == bits([t for t, _, _ in expected])
    assert bits(curve.precisions) == bits([p for _, p, _ in expected])
    assert bits(curve.recalls) == bits([r for _, _, r in expected])
    full = PRCurve(*np.array([point[:3] for point in walk]).T)
    assert curve.max_f1 == full.max_f1
    assert curve.iap11 == full.iap11
