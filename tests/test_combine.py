"""Weight training and matrix combination."""

import numpy as np
import pytest

from cogmatrix import (
    GoldPairs,
    MetricId,
    ScoreMatrix,
    SeedSet,
    TrainingConfig,
    WeightVector,
    combine,
    load_weights,
    save_weights,
    train_weights,
    uniform_weights,
)


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
    seed_set = SeedSet(GoldPairs(frozenset((rows[i], cols[i]) for i in range(n // 3))))
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
        c1 = combine({MetricId.PHONETIC: matrices[MetricId.PHONETIC]}, single)
        c2 = combine(
            {
                MetricId.PHONETIC: matrices[MetricId.PHONETIC],
                MetricId.BURSTINESS: matrices[MetricId.PHONETIC],
            },
            doubled,
        )
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
        ghost = SeedSet(GoldPairs(frozenset({("ghost", "b000")})))
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
        out = combine({MetricId.PHONETIC: m1, MetricId.FREQUENCY: m2}, wv)
        # raw combination: [[0.6, 0.0], [1.0, 0.4]] -> already spans [0, 1]
        assert np.allclose(out.scores, [[0.6, 0.0], [1.0, 0.4]], atol=1e-15)

    def test_all_zero_weights_normalize_to_half(self):
        m = labeled([[0.1, 0.9]], ("a",), ("u", "v"))
        out = combine({MetricId.PHONETIC: m}, WeightVector({MetricId.PHONETIC: 0.0}))
        assert (out.scores == 0.5).all()

    @pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
    def test_non_finite_combination_rejected_not_made_constant(self, weight):
        m = labeled([[0.1, 0.9]], ("a",), ("u", "v"))
        with pytest.raises(ValueError, match="finite"):
            combine({MetricId.PHONETIC: m}, WeightVector({MetricId.PHONETIC: weight}))

    def test_single_metric_preserves_argsort(self):
        rng = np.random.default_rng(9)
        m = labeled(rng.random((5, 5)), [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)])
        out = combine({MetricId.PHONETIC: m}, WeightVector({MetricId.PHONETIC: 1.0}))
        assert np.array_equal(
            np.argsort(m.scores.ravel(), kind="stable"),
            np.argsort(out.scores.ravel(), kind="stable"),
        )

    def test_weight_scaling_leaves_ranking_unchanged(self):
        matrices, _, _ = toy_universe()
        w1 = WeightVector({MetricId.PHONETIC: 0.3, MetricId.FREQUENCY: 0.7})
        w2 = WeightVector({MetricId.PHONETIC: 0.3 * 4, MetricId.FREQUENCY: 0.7 * 4})
        c1 = combine(matrices, w1)
        c2 = combine(matrices, w2)
        assert np.array_equal(
            np.argsort(c1.scores.ravel(), kind="stable"),
            np.argsort(c2.scores.ravel(), kind="stable"),
        )

    def test_missing_weight_rejected(self):
        m = labeled([[1.0]], ("a",), ("u",))
        with pytest.raises(ValueError, match="no weight for metric 'phonetic'"):
            combine({MetricId.PHONETIC: m}, WeightVector({MetricId.FREQUENCY: 1.0}))

    def test_weight_without_matrix_rejected(self):
        m = labeled([[1.0]], ("a",), ("u",))
        weights = WeightVector({MetricId.PHONETIC: 1.0, MetricId.CONTEXT: 5.0, MetricId.TEMPORAL: 1.0})
        with pytest.raises(ValueError) as exc:
            combine({MetricId.PHONETIC: m}, weights)
        assert str(exc.value) == "no matrix for weighted metric 'context', 'temporal'"

    def test_uniform_weights(self):
        wv = uniform_weights([MetricId.PHONETIC, MetricId.CONTEXT])
        assert wv.weights == {MetricId.PHONETIC: 1.0, MetricId.CONTEXT: 1.0}
        assert wv.bias == 0.0


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
