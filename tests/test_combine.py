"""Weight training and matrix combination."""

import weakref

import numpy as np
import pytest

from cogmatrix import (
    GoldPairs,
    MetricId,
    ScoreMatrix,
    TrainingConfig,
    WeightVector,
    combine,
    load_weights,
    save_weights,
    score_all_pairs,
    train_weights,
    uniform_weights,
)
from cogmatrix import matrix
from sides import lexicon_side


def labeled(scores, rows, cols):
    return ScoreMatrix(tuple(rows), tuple(cols), np.asarray(scores, dtype=np.float64))


def toy_universe(n=30, seed=0):
    """Separable toy problem: the phonetic metric alone identifies the pairs.

    Positives (the planted diagonal) score high on phonetic; everything else
    scores low.  The frequency metric is uniform noise on all cells.
    """
    rng = np.random.default_rng(seed)
    rows = tuple(f"a{i:03d}" for i in range(n))
    cols = tuple(f"b{i:03d}" for i in range(n))
    signal = rng.uniform(0.0, 0.2, size=(n, n))
    signal[np.arange(n), np.arange(n)] = rng.uniform(0.8, 1.0, size=n)
    noise = rng.uniform(0.0, 1.0, size=(n, n))
    matrices = {
        MetricId.PHONETIC: labeled(signal, rows, cols),
        MetricId.FREQUENCY: labeled(noise, rows, cols),
    }
    gold = GoldPairs(frozenset((rows[i], cols[i]) for i in range(n)))
    seed_set = GoldPairs(frozenset((rows[i], cols[i]) for i in range(n // 3)))
    return matrices, gold, seed_set


class TestTrainingConfig:
    def test_zero_epochs_forbidden(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainingConfig(epochs=0)

    def test_nonpositive_regularization_forbidden(self):
        with pytest.raises(ValueError, match="regularization"):
            TrainingConfig(regularization=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_regularization_named(self, value):
        with pytest.raises(ValueError) as exc:
            TrainingConfig(regularization=value)
        assert str(exc.value) == f"regularization must be a finite positive number, got {value!r}"

    def test_nonpositive_ratio_forbidden(self):
        with pytest.raises(ValueError, match="negative_ratio"):
            TrainingConfig(negative_ratio=0)


class TestTrainWeights:
    def test_informative_metric_dominates(self):
        matrices, _, seed_set = toy_universe()
        cfg = TrainingConfig(epochs=500, rng_seed=3)
        wv = train_weights(matrices, seed_set, cfg)
        w_signal = wv.weights[MetricId.PHONETIC]
        w_noise = wv.weights[MetricId.FREQUENCY]
        assert w_signal > 0
        assert abs(w_signal) > 5 * abs(w_noise)

    def test_duplicated_metric_behaves_like_doubled_weight(self):
        matrices, _, seed_set = toy_universe()
        cfg = TrainingConfig(epochs=300, rng_seed=3)
        single = train_weights({MetricId.PHONETIC: matrices[MetricId.PHONETIC]}, seed_set, cfg)
        doubled = train_weights(
            {
                MetricId.PHONETIC: matrices[MetricId.PHONETIC],
                MetricId.BURSTINESS: matrices[MetricId.PHONETIC],  # same matrix twice
            },
            seed_set,
            cfg,
        )
        # identical features receive identical weights, and the combined
        # score is then a positive multiple of the single-metric score
        assert doubled.weights[MetricId.PHONETIC] == pytest.approx(
            doubled.weights[MetricId.BURSTINESS], abs=1e-12
        )
        c1 = combine(matrices.__getitem__, single)
        c2 = combine(lambda metric: matrices[MetricId.PHONETIC], doubled)  # one matrix for both
        assert np.array_equal(
            np.argsort(c1.scores.ravel(), kind="stable"),
            np.argsort(c2.scores.ravel(), kind="stable"),
        )

    def test_deterministic(self):
        matrices, _, seed_set = toy_universe()
        cfg = TrainingConfig(epochs=100, rng_seed=5)
        w1 = train_weights(matrices, seed_set, cfg)
        w2 = train_weights(matrices, seed_set, cfg)
        assert w1.weights == w2.weights
        assert w1.bias == w2.bias

    def test_seed_pair_missing_from_universe_rejected(self):
        matrices, _, _ = toy_universe()
        ghost = GoldPairs(frozenset({("ghost", "b000")}))
        with pytest.raises(ValueError, match=r"seed pairs not in universe.*ghost"):
            train_weights(matrices, ghost, TrainingConfig())

    def test_mismatched_labels_rejected(self):
        matrices, _, seed_set = toy_universe()
        other = labeled(np.zeros((2, 2)), ("x1", "x2"), ("y1", "y2"))
        with pytest.raises(ValueError, match="share identical"):
            train_weights({**matrices, MetricId.TEMPORAL: other}, seed_set, TrainingConfig())


class TestCombine:
    def test_weighted_average_prenormalization(self):
        rows, cols = ("a", "b"), ("u", "v")
        m1 = labeled([[0.4, 0.0], [1.0, 0.2]], rows, cols)
        m2 = labeled([[0.8, 0.0], [1.0, 0.6]], rows, cols)
        wv = WeightVector({MetricId.PHONETIC: 0.5, MetricId.FREQUENCY: 0.5})
        out = combine({MetricId.PHONETIC: m1, MetricId.FREQUENCY: m2}.__getitem__, wv)
        # raw combination: [[0.6, 0.0], [1.0, 0.4]] -> already spans [0, 1]
        assert np.allclose(out.scores, [[0.6, 0.0], [1.0, 0.4]], atol=1e-15)

    def test_all_zero_weights_normalize_to_half(self):
        m = labeled([[0.1, 0.9]], ("a",), ("u", "v"))
        out = combine(lambda metric: m, WeightVector({MetricId.PHONETIC: 0.0}))
        assert (out.scores == 0.5).all()

    @pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
    def test_non_finite_combination_rejected_not_made_constant(self, weight):
        m = labeled([[0.1, 0.9]], ("a",), ("u", "v"))
        with pytest.raises(ValueError, match="finite"):
            combine(lambda metric: m, WeightVector({MetricId.PHONETIC: weight}))

    def test_single_metric_preserves_argsort(self):
        rng = np.random.default_rng(9)
        m = labeled(rng.random((5, 5)), [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)])
        out = combine(lambda metric: m, WeightVector({MetricId.PHONETIC: 1.0}))
        assert np.array_equal(
            np.argsort(m.scores.ravel(), kind="stable"),
            np.argsort(out.scores.ravel(), kind="stable"),
        )

    def test_weight_scaling_leaves_ranking_unchanged(self):
        matrices, _, _ = toy_universe()
        w1 = WeightVector({MetricId.PHONETIC: 0.3, MetricId.FREQUENCY: 0.7})
        w2 = WeightVector({MetricId.PHONETIC: 0.3 * 4, MetricId.FREQUENCY: 0.7 * 4})
        c1 = combine(matrices.__getitem__, w1)
        c2 = combine(matrices.__getitem__, w2)
        assert np.array_equal(
            np.argsort(c1.scores.ravel(), kind="stable"),
            np.argsort(c2.scores.ravel(), kind="stable"),
        )

    def test_uniform_weights(self):
        wv = uniform_weights([MetricId.PHONETIC, MetricId.CONTEXT])
        assert wv.weights == {MetricId.PHONETIC: 1.0, MetricId.CONTEXT: 1.0}
        assert wv.bias == 0.0


def scored_universe(n1=23, n2=19, n_days=12, seed=4):
    """Words, both lexicon sides and a seed bridge with data for every metric."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdeklmnorstu"))

    def side(n, tag):
        words = [tag + "".join(rng.choice(letters, size=int(rng.integers(2, 8)))) + str(i)
                 for i in range(n)]
        daily = {w: rng.poisson(3.0, size=n_days) for w in words[: n - 3]}
        cooc = {w: {f"{tag}ctx{int(c)}": int(rng.integers(1, 9))
                    for c in rng.choice(10, size=4, replace=False)}
                for w in words[: n - 2]}
        freq = {w: int(rng.integers(1, 60)) for w in words}
        return words, lexicon_side(words, 5000, freq, daily, cooc, n_days)

    x_words, lex1 = side(n1, "x")
    y_words, lex2 = side(n2, "y")
    bridge = {f"yctx{c}": f"xctx{c}" for c in range(0, 10, 2)}
    return x_words, y_words, lex1, lex2, bridge


def whole_array_combine(matrices, weights):
    """The combination as one whole-array sum per metric, in name order."""
    total = np.full(next(iter(matrices.values())).shape, weights.bias, dtype=np.float64)
    for metric in sorted(matrices, key=lambda m: m.value):
        total += weights.weights[metric] * matrices[metric].scores
    return matrix._normalize_in_place(total)


class TestCombineStreamed:
    # 23 x 19 cells: one block, 8 blocks of up to 3 rows, and one block per row.
    @pytest.mark.parametrize("block_cells", [matrix._BLOCK_CELLS, 40, 1])
    @pytest.mark.parametrize("metrics, raw_weights, bias", [
        (tuple(MetricId), (0.7, -1.3, 0.25, 2.0, -0.05), 0.375),
        ((MetricId.CONTEXT, MetricId.PHONETIC), (-2.5, 1.0), -1.75),
        ((MetricId.TEMPORAL,), (-0.5,), 3.0),
        ((MetricId.BURSTINESS, MetricId.FREQUENCY, MetricId.TEMPORAL), (1.0, 0.0, -4.0), 0.0),
    ])
    def test_bit_identical_to_whole_array_sum(self, monkeypatch, block_cells, metrics,
                                              raw_weights, bias):
        monkeypatch.setattr(matrix, "_BLOCK_CELLS", block_cells)
        x_words, y_words, lex1, lex2, bridge = scored_universe()
        weights = WeightVector(dict(zip(metrics, raw_weights)), bias=bias)
        scored = {m: score_all_pairs(m, x_words, y_words, lex1, lex2, bridge) for m in metrics}
        asked = []

        def score(metric):
            asked.append(metric)
            return score_all_pairs(metric, x_words, y_words, lex1, lex2, bridge)

        streamed = combine(score, weights)
        expected = whole_array_combine(scored, weights).view(np.uint64)
        assert asked == sorted(metrics, key=lambda m: m.value)
        assert np.array_equal(streamed.scores.view(np.uint64), expected)
        assert np.array_equal(combine(scored.__getitem__, weights).scores.view(np.uint64), expected)
        assert (streamed.row_labels, streamed.col_labels) == (tuple(x_words), tuple(y_words))

    def test_each_matrix_dropped_before_the_next_is_scored(self):
        scored = []

        def score(metric):
            assert all(ref() is None for ref in scored), "an earlier matrix is still alive"
            m = labeled(np.random.default_rng(len(scored)).random((3, 4)), "abc", "uvwx")
            scored.append(weakref.ref(m))
            return m

        combine(score, uniform_weights(MetricId))
        assert len(scored) == len(MetricId)

    def test_label_mismatch_rejected(self):
        a = labeled([[0.1, 0.2]], ("a",), ("u", "v"))
        b = labeled([[0.1, 0.2]], ("a",), ("u", "w"))
        matrices = {MetricId.PHONETIC: a, MetricId.FREQUENCY: b}
        with pytest.raises(ValueError, match="share identical"):
            combine(matrices.__getitem__, uniform_weights(matrices))


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        wv = WeightVector({MetricId.PHONETIC: 1.25, MetricId.TEMPORAL: -0.5}, bias=0.125)
        path = tmp_path / "weights.tsv"
        save_weights(wv, path)
        back = load_weights(path)
        assert back.weights == wv.weights
        assert back.bias == wv.bias

    def test_unknown_metric_rejected(self, tmp_path):
        path = tmp_path / "weights.tsv"
        path.write_text("vibes\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown metric"):
            load_weights(path)

    def test_duplicate_metric_rejected(self, tmp_path):
        path = tmp_path / "weights.tsv"
        path.write_text("#bias 0.0\nphonetic\t1.0\ntemporal\t0.5\nphonetic\t2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"weights\.tsv:4: duplicate weight for metric 'phonetic'"):
            load_weights(path)
