"""Synthetic dataset generation."""

import numpy as np
import pytest

from cogmatrix import GoldPairs, SynthConfig, generate, pr_curve


class TestSynthConfig:
    def test_n_pairs_must_be_positive(self):
        with pytest.raises(ValueError, match="n_pairs"):
            SynthConfig(n_pairs=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthConfig(n_pairs=3, noise_sigma=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sigma_named(self, value):
        with pytest.raises(ValueError) as exc:
            SynthConfig(n_pairs=3, noise_sigma=value)
        assert str(exc.value) == f"noise_sigma must be a finite number >= 0, got {value!r}"

    def test_signal_mu_is_gone(self):
        # The planted mean is 1: min-max normalisation cancels any common
        # scale of it and noise_sigma, so noise_sigma alone sets the ratio.
        with pytest.raises(TypeError, match="signal_mu"):
            SynthConfig(n_pairs=3, signal_mu=1.0)


class TestGenerate:
    def test_noiseless_separation_is_perfect(self):
        matrix, gold = generate(SynthConfig(n_pairs=20, noise_sigma=0.0, rng_seed=1))
        assert pr_curve(matrix, gold).iap11 == 1.0

    def test_square_full_permutation_without_distractors(self):
        cfg = SynthConfig(n_pairs=15, n_distractors_per_side=0, rng_seed=2)
        matrix, gold = generate(cfg)
        assert matrix.shape == (15, 15)
        assert len(gold) == 15
        assert gold.l1_words() == set(matrix.row_labels)
        assert gold.l2_words() == set(matrix.col_labels)

    def test_distractors_extend_both_sides(self):
        cfg = SynthConfig(n_pairs=10, n_distractors_per_side=30, rng_seed=3)
        matrix, gold = generate(cfg)
        assert matrix.shape == (40, 40)
        assert len(gold) == 10

    def test_deterministic(self):
        cfg = SynthConfig(n_pairs=12, n_distractors_per_side=5, noise_sigma=0.3, rng_seed=9)
        m1, g1 = generate(cfg)
        m2, g2 = generate(cfg)
        assert np.array_equal(m1.scores, m2.scores)
        assert g1.pairs == g2.pairs

    def test_planted_gold_is_one_to_one(self):
        matrix, gold = generate(SynthConfig(n_pairs=50, rng_seed=4))
        GoldPairs(gold.pairs)  # construction re-validates one-to-one
        assert len(gold) == 50

    def test_scores_normalized(self):
        matrix, _ = generate(SynthConfig(n_pairs=25, noise_sigma=0.4, rng_seed=5))
        assert matrix.scores.min() == 0.0
        assert matrix.scores.max() == 1.0

    def test_iap_approaches_one_as_noise_vanishes(self):
        values = []
        for sigma in (0.5, 0.2, 0.05):
            matrix, gold = generate(SynthConfig(n_pairs=40, noise_sigma=sigma, rng_seed=6))
            values.append(pr_curve(matrix, gold).iap11)
        assert values == sorted(values)
        assert values[-1] > 0.99
