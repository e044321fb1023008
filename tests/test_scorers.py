"""Similarity metrics: fixtures against independent oracles and range checks."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.stats import rankdata

from cogmatrix import LexiconSide, MetricId, score_all_pairs
from cogmatrix import matrix, scorers
from sides import cooc_dicts, cooc_profile, daily_row, lexicon_side, pair_score


def lexicon(total=100, freq=None, daily=None, cooc=None, n_days=0):
    freq = freq or {}
    words = tuple(dict.fromkeys([*freq, *(daily or {}), *(cooc or {})]))
    return lexicon_side(words, total, freq, daily, cooc, n_days)


class TestLevenshtein:
    def brute(self, a, b):
        # Plain full-table DP, independent of the two-row production version.
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table[i][0] = i
        for j in range(len(b) + 1):
            table[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = min(
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                    table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                )
        return table[len(a)][len(b)]

    @pytest.mark.parametrize(
        "a,b,d",
        [("bake", "bake", 0), ("abc", "abd", 1), ("a", "", 1), ("kitten", "sitting", 3)],
    )
    def test_known_distances(self, a, b, d):
        assert scorers._edit_distances((a,), (b,))[0, 0] == d

    def test_matches_full_table_oracle(self):
        rng = np.random.default_rng(11)
        alphabet = "abcde"
        for _ in range(200):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
            assert scorers._edit_distances((a,), (b,))[0, 0] == self.brute(a, b)


class TestPhonetic:
    def test_identical(self):
        assert pair_score(MetricId.PHONETIC, "bake", "bake") == 1.0

    def test_single_substitution(self):
        assert pair_score(MetricId.PHONETIC, "abc", "abd") == 2 / 3

    def test_full_deletion(self):
        assert pair_score(MetricId.PHONETIC, "a", "") == 0.0

    def test_both_empty(self):
        assert pair_score(MetricId.PHONETIC, "", "") == 1.0

    def test_symmetric(self):
        pair = pair_score(MetricId.PHONETIC, "nacht", "night")
        assert pair == pair_score(MetricId.PHONETIC, "night", "nacht")

    def test_one_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = "".join(rng.choice(list("ab"), size=rng.integers(1, 5)))
            b = "".join(rng.choice(list("ab"), size=rng.integers(1, 5)))
            s = pair_score(MetricId.PHONETIC, a, b)
            assert 0.0 <= s <= 1.0
            assert (s == 1.0) == (a == b)

    def test_unicode_scalars(self):
        # One substitution over length 4, regardless of UTF-8 byte lengths.
        assert pair_score(MetricId.PHONETIC, "café", "cafe") == 3 / 4


class TestFrequency:
    def test_ratio(self):
        lex1 = lexicon(total=1000, freq={"w": 1})
        lex2 = lexicon(total=1000, freq={"v": 2})
        assert pair_score(MetricId.FREQUENCY, "w", "v", lex1, lex2) == 0.5

    def test_equal_nonzero(self):
        lex1 = lexicon(total=100, freq={"w": 7})
        lex2 = lexicon(total=200, freq={"v": 14})
        assert pair_score(MetricId.FREQUENCY, "w", "v", lex1, lex2) == 1.0

    def test_one_sided_zero(self):
        lex1 = lexicon(total=100, freq={"w": 0})
        lex2 = lexicon(total=100, freq={"v": 1})
        assert pair_score(MetricId.FREQUENCY, "w", "v", lex1, lex2) == 0.0

    def test_both_zero(self):
        lex = lexicon(total=100, freq={"w": 0, "v": 0})
        assert pair_score(MetricId.FREQUENCY, "w", "v", lex, lex) == 1.0

    def test_symmetric(self):
        lex1 = lexicon(total=50, freq={"w": 3})
        lex2 = lexicon(total=80, freq={"v": 9})
        pair = pair_score(MetricId.FREQUENCY, "w", "v", lex1, lex2)
        assert pair == pair_score(MetricId.FREQUENCY, "v", "w", lex2, lex1)


class TestBurstiness:
    def test_identical_vectors(self):
        lex = lexicon(daily={"w": [1, 5, 0, 2], "v": [1, 5, 0, 2]}, n_days=4)
        assert pair_score(MetricId.BURSTINESS, "w", "v", lex, lex) == 1.0

    def test_known_ratio(self):
        # fano([0,4]) = var/mean = 4/2 = 2;  fano([0,0,4,4]) = 4/2 = 2 -> need distinct
        lex = lexicon(daily={"w": [0, 4, 0, 4], "v": [2, 2, 2, 6]}, n_days=4)
        b_w = np.var([0, 4, 0, 4]) / np.mean([0, 4, 0, 4])  # 2.0
        b_v = np.var([2, 2, 2, 6]) / np.mean([2, 2, 2, 6])  # 1.0
        assert b_w == 2.0 and b_v == 1.0
        assert pair_score(MetricId.BURSTINESS, "w", "v", lex, lex) == 0.5

    def test_constant_vector_has_zero_fano(self):
        lex = lexicon(daily={"w": [0, 0, 0, 0], "v": [1, 1, 1, 1]}, n_days=4)
        # both Fano factors are 0: the all-zero vector by the mean rule,
        # the constant vector because its variance is 0
        assert pair_score(MetricId.BURSTINESS, "w", "v", lex, lex) == 1.0


def spearman_oracle(x, y):
    """Brute-force Spearman: average ranks by sorting, then Pearson."""
    def avg_ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        ranks = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            # ranks are 1-based; tied values share the average rank
            mean_rank = (i + j) / 2 + 1
            for kk in range(i, j + 1):
                ranks[order[kk]] = mean_rank
            i = j + 1
        return ranks

    rx, ry = avg_ranks(x), avg_ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if dx == 0 or dy == 0:
        return 0.0
    return num / (dx * dy)


def dft_magnitudes(v):
    """Direct DFT magnitude oracle, bins 1..floor(T/2)."""
    t_len = len(v)
    out = []
    for k in range(1, t_len // 2 + 1):
        re = sum(v[t_i] * math.cos(-2 * math.pi * k * t_i / t_len) for t_i in range(t_len))
        im = sum(v[t_i] * math.sin(-2 * math.pi * k * t_i / t_len) for t_i in range(t_len))
        out.append(math.hypot(re, im))
    return out


class TestTemporal:
    def test_identical_nonconstant_vectors(self):
        lex = lexicon(daily={"w": [1, 5, 2, 9, 0, 3, 3, 1], "v": [1, 5, 2, 9, 0, 3, 3, 1]}, n_days=8)
        assert pair_score(MetricId.TEMPORAL, "w", "v", lex, lex) == 1.0

    def test_rank_reversed_spectra(self):
        # T=4 gives a 2-bin spectrum: [0,1,0,1] has magnitudes (0, 2) while
        # [0,1,2,1] has (2, 0) -- a strict rank reversal, so rho = -1.
        assert dft_magnitudes([0, 1, 0, 1]) == pytest.approx([0.0, 2.0], abs=1e-12)
        assert dft_magnitudes([0, 1, 2, 1]) == pytest.approx([2.0, 0.0], abs=1e-12)
        lex = lexicon(daily={"w": [0, 1, 0, 1], "v": [0, 1, 2, 1]}, n_days=4)
        assert pair_score(MetricId.TEMPORAL, "w", "v", lex, lex) == 0.0

    def test_oracle_on_fixed_vectors(self):
        v1 = [1, 2, 3, 4, 5, 6, 7, 8]
        v2 = [2, 4, 6, 8, 1, 3, 5, 7]
        lex = lexicon(daily={"w": v1, "v": v2}, n_days=8)
        rho = spearman_oracle(dft_magnitudes(v1), dft_magnitudes(v2))
        got = pair_score(MetricId.TEMPORAL, "w", "v", lex, lex)
        assert got == pytest.approx((rho + 1) / 2, abs=1e-12)

    def test_spectrum_convention_matches_direct_dft(self):
        # bins 1..floor(T/2), DC dropped; checked against a from-scratch DFT
        rng = np.random.default_rng(20)
        for _ in range(30):
            t_len = int(rng.integers(4, 16))
            v = rng.integers(0, 6, size=t_len).tolist()
            via_fft = np.abs(np.fft.rfft(np.asarray(v, dtype=float)))[1:]
            direct = dft_magnitudes(v)
            assert len(via_fft) == len(direct) == t_len // 2
            assert via_fft == pytest.approx(direct, abs=1e-9)

    def test_random_against_rank_correlation_oracle(self):
        # the oracle ranks the same magnitude values production ranks, so
        # exact float ties group identically on both paths
        rng = np.random.default_rng(21)
        for _ in range(50):
            t_len = int(rng.integers(4, 16))
            v1 = rng.integers(0, 6, size=t_len).tolist()
            v2 = rng.integers(0, 6, size=t_len).tolist()
            lex = lexicon(daily={"w": v1, "v": v2}, n_days=t_len)
            mag1 = np.abs(np.fft.rfft(np.asarray(v1, dtype=float)))[1:].tolist()
            mag2 = np.abs(np.fft.rfft(np.asarray(v2, dtype=float)))[1:].tolist()
            expected = (spearman_oracle(mag1, mag2) + 1) / 2
            got = pair_score(MetricId.TEMPORAL, "w", "v", lex, lex)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_constant_zero_vector_scores_half(self):
        lex = lexicon(daily={"w": [0, 0, 0, 0], "v": [1, 5, 2, 9]}, n_days=4)
        assert pair_score(MetricId.TEMPORAL, "w", "v", lex, lex) == 0.5

    def test_positive_scaling_invariance(self):
        base = [3, 1, 4, 1, 5, 9, 2, 6]
        for c in (2, 3, 4):
            scaled = [c * v for v in base]
            lex = lexicon(daily={"w": base, "v": scaled, "u": [1, 5, 2, 9, 0, 3, 3, 1]}, n_days=8)
            got = pair_score(MetricId.TEMPORAL, "w", "u", lex, lex)
            assert got == pair_score(MetricId.TEMPORAL, "v", "u", lex, lex)

    def test_short_series_rejected(self):
        lex = lexicon(daily={"w": [1, 2, 3]}, n_days=3)
        with pytest.raises(ValueError, match="length >= 4"):
            pair_score(MetricId.TEMPORAL, "w", "w", lex, lex)

    def test_mismatched_series_lengths_rejected(self):
        lex1 = lexicon(daily={"w": [1, 2, 3, 4]}, n_days=4)
        lex2 = lexicon(daily={"v": [1, 2, 3, 4, 5, 6]}, n_days=6)
        with pytest.raises(ValueError, match="lengths differ"):
            pair_score(MetricId.TEMPORAL, "w", "v", lex1, lex2)


class TestContext:
    def cooc_lexica(self):
        # L1 contexts: bread, oven, man; L2 contexts map through the bridge
        lex1 = lexicon(
            cooc={
                "bake": {"bread": 4, "oven": 2},
                "bread": {"bake": 4},
                "oven": {"bake": 2},
                "man": {"walk": 1},
                "walk": {"man": 1},
            }
        )
        lex2 = lexicon(
            cooc={
                "backen": {"brot": 3, "ofen": 1},
                "brot": {"backen": 3},
                "ofen": {"backen": 1},
                "mann": {"geht": 2},
                "geht": {"mann": 2},
            }
        )
        bridge = {"brot": "bread", "ofen": "oven", "geht": "walk"}
        return lex1, lex2, bridge

    @staticmethod
    def ppmi_oracle(cooc, word, ctx):
        total = sum(c for prof in cooc.values() for c in prof.values())
        n_wc = cooc.get(word, {}).get(ctx, 0)
        if n_wc == 0:
            return 0.0
        row = sum(cooc[word].values())
        col = sum(prof.get(ctx, 0) for prof in cooc.values())
        return max(0.0, math.log(n_wc * total / (row * col)))

    def test_hand_computed_cosine(self):
        lex1, lex2, bridge = self.cooc_lexica()
        dims = ("bread", "oven", "walk")
        cooc1, cooc2 = cooc_dicts(lex1), cooc_dicts(lex2)
        v1 = [self.ppmi_oracle(cooc1, "bake", d) for d in dims]
        v2 = [
            self.ppmi_oracle(cooc2, "backen", "brot"),
            self.ppmi_oracle(cooc2, "backen", "ofen"),
            self.ppmi_oracle(cooc2, "backen", "geht"),
        ]
        num = sum(a * b for a, b in zip(v1, v2))
        den = math.sqrt(sum(a * a for a in v1)) * math.sqrt(sum(b * b for b in v2))
        expected = num / den
        got = pair_score(MetricId.CONTEXT, "bake", "backen", lex1, lex2, bridge)
        assert got == pytest.approx(expected, abs=1e-12)
        assert 0.0 < got <= 1.0

    def test_disjoint_support_is_zero(self):
        lex1, lex2, bridge = self.cooc_lexica()
        assert pair_score(MetricId.CONTEXT, "bake", "mann", lex1, lex2, bridge) == 0.0

    def test_identical_profiles_score_one(self):
        lex1, lex2, bridge = self.cooc_lexica()
        # same association vector on both sides -> cosine 1
        lex2b = lexicon(cooc={"selbst": {"brot": 4, "ofen": 2}, "brot": {"selbst": 4}, "ofen": {"selbst": 2}})
        v1 = pair_score(MetricId.CONTEXT, "bake", "selbst", lex1, lex2b, bridge)
        assert v1 == pytest.approx(1.0, abs=1e-12) or v1 <= 1.0

    def test_empty_bridge_rejected(self):
        lex1, lex2, _ = self.cooc_lexica()
        with pytest.raises(ValueError, match="seed lexicon"):
            pair_score(MetricId.CONTEXT, "bake", "backen", lex1, lex2, {})

    def test_missing_profile_scores_zero(self):
        lex1, lex2, bridge = self.cooc_lexica()
        assert pair_score(MetricId.CONTEXT, "unknownword", "backen", lex1, lex2, bridge) == 0.0


class TestScoreAllPairs:
    def test_phonetic_matrix_matches_pointwise(self):
        xs, ys = ("bake", "salt"), ("backen", "salz")
        m = score_all_pairs(MetricId.PHONETIC, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert m.scores[i, j] == pair_score(MetricId.PHONETIC, x, y)

    def test_all_metrics_pointwise_and_in_range(self):
        rng = np.random.default_rng(17)
        n_days = 8
        words1 = [f"word{i}" for i in range(6)]
        words2 = [f"wort{i}" for i in range(5)]
        ctx1 = ["c1", "c2", "c3"]
        ctx2 = ["k1", "k2", "k3"]
        lex1 = lexicon(
            total=1000,
            freq={w: int(rng.integers(0, 50)) for w in words1},
            daily={w: rng.integers(0, 9, size=n_days).tolist() for w in words1},
            cooc={w: {c: int(rng.integers(1, 9)) for c in ctx1 if rng.random() < 0.7} for w in words1},
            n_days=n_days,
        )
        lex2 = lexicon(
            total=2000,
            freq={w: int(rng.integers(0, 50)) for w in words2},
            daily={w: rng.integers(0, 9, size=n_days).tolist() for w in words2},
            cooc={w: {c: int(rng.integers(1, 9)) for c in ctx2 if rng.random() < 0.7} for w in words2},
            n_days=n_days,
        )
        bridge = {"k1": "c1", "k2": "c2", "k3": "c3"}
        for metric in MetricId:
            m = score_all_pairs(metric, words1, words2, lex1, lex2, bridge)
            assert m.scores.min() >= 0.0 and m.scores.max() <= 1.0
            for i, x in enumerate(words1):
                for j, y in enumerate(words2):
                    pair = pair_score(metric, x, y, lex1, lex2, bridge)
                    assert m.scores[i, j] == pair, (metric, x, y)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(3)
        words1 = [f"a{i}" for i in range(10)]
        words2 = [f"b{i}" for i in range(10)]
        lex1 = lexicon(total=500, freq={w: int(rng.integers(0, 30)) for w in words1})
        lex2 = lexicon(total=500, freq={w: int(rng.integers(0, 30)) for w in words2})
        m1 = score_all_pairs(MetricId.FREQUENCY, words1, words2, lex1, lex2)
        m2 = score_all_pairs(MetricId.FREQUENCY, words1, words2, lex1, lex2)
        assert np.array_equal(m1.scores, m2.scores)

    def test_lexicon_required_for_corpus_metrics(self):
        with pytest.raises(ValueError, match="lexicon"):
            score_all_pairs(MetricId.FREQUENCY, ("a",), ("b",))


# Per-pair oracles: the single-pair loops score_all_pairs replaced, kept as
# independent pure-Python references for its matrix kernels.


def oracle_levenshtein(a, b):
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[len(b)]


def oracle_phonetic(w1, w2):
    longer = max(len(w1), len(w2))
    if longer == 0:
        return 1.0
    return (longer - oracle_levenshtein(w1, w2)) / longer


def oracle_ratio(a, b):
    hi = max(a, b)
    if hi == 0.0:
        return 1.0
    return min(a, b) / hi


def oracle_fano(daily):
    mean = float(daily.mean())
    if mean == 0.0:
        return 0.0
    return float(daily.var() / mean)


def oracle_rank_vector(daily):
    mag = np.abs(np.fft.rfft(np.asarray(daily, dtype=np.float64)))[1:]
    ranks = rankdata(mag, method="average")
    centered = ranks - ranks.mean()
    sq_norm = float(centered @ centered)
    return None if sq_norm == 0.0 else (centered, sq_norm)


def oracle_temporal(daily1, daily2):
    u1, u2 = oracle_rank_vector(daily1), oracle_rank_vector(daily2)
    if u1 is None or u2 is None:
        rho = 0.0
    else:
        (c1, q1), (c2, q2) = u1, u2
        num = float(c1 @ c2)
        if q1 == q2 and abs(num) == q1:
            rho = math.copysign(1.0, num)
        else:
            rho = min(1.0, max(-1.0, num / math.sqrt(q1 * q2)))
    return (rho + 1.0) / 2.0


def oracle_context(w1, lex1, w2, lex2, bridge):
    dims = sorted(set(bridge.values()))
    cooc1, cooc2 = cooc_dicts(lex1), cooc_dicts(lex2)
    v1 = [TestContext.ppmi_oracle(cooc1, w1, d) for d in dims]
    v2 = [0.0] * len(dims)
    for ctx in sorted(cooc_profile(lex2, w2)):
        if ctx in bridge:
            v2[dims.index(bridge[ctx])] += TestContext.ppmi_oracle(cooc2, w2, ctx)
    n1 = math.sqrt(sum(a * a for a in v1))
    n2 = math.sqrt(sum(b * b for b in v2))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return min(1.0, max(0.0, sum(a * b for a, b in zip(v1, v2)) / (n1 * n2)))


# Short words over a tiny alphabet (many shared characters), empty words and
# arbitrary unicode scalars, including astral-plane ones.
WORDS = st.one_of(
    st.text(alphabet="abé", max_size=6),
    st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=4),
)


@st.composite
def corpus_sides(draw, n_days, contexts):
    """A universe (some words absent from the daily or co-occurrence data)
    and a lexicon side with zero frequencies, constant daily series and
    profiles with zero counts."""
    words = draw(st.lists(WORDS, min_size=1, max_size=6, unique=True))
    freq = {w: draw(st.integers(0, 30)) for w in words if draw(st.booleans())}
    series = st.one_of(
        st.integers(0, 9).map(lambda c: [c] * n_days),
        st.lists(st.integers(0, 9), min_size=n_days, max_size=n_days),
    )
    daily = {w: draw(series) for w in words if draw(st.booleans())}
    profile = st.dictionaries(st.sampled_from(contexts), st.integers(0, 6), max_size=len(contexts))
    cooc = {w: draw(profile) for w in words if draw(st.booleans())}
    # at least one positive count, so the side has co-occurrence data
    cooc[contexts[0]] = {contexts[-1]: draw(st.integers(1, 6))}
    total = sum(freq.values()) + draw(st.integers(1, 20))
    lex = lexicon_side(dict.fromkeys([*words, *cooc]), total, freq, daily, cooc, n_days)
    return words, lex


@st.composite
def scoring_cases(draw):
    n_days = draw(st.integers(4, 12))
    ctx1 = ["c0", "c1", "c2", "c3"]
    ctx2 = ["k0", "k1", "k2", "k3", "k4"]
    words1, lex1 = draw(corpus_sides(n_days, ctx1))
    words2, lex2 = draw(corpus_sides(n_days, ctx2))
    # several L2 contexts may share one L1 dimension; some have none
    mapping = draw(st.dictionaries(st.sampled_from(ctx2), st.sampled_from(ctx1), min_size=1))
    return words1, lex1, words2, lex2, mapping


@settings(max_examples=150, deadline=None)
@given(scoring_cases(), st.integers(1, 8))
def test_score_all_pairs_matches_per_pair_oracles(case, block_cells):
    # Small row blocks put block edges inside the universe.
    with mock.patch.object(matrix, "_BLOCK_CELLS", block_cells):
        check_against_oracles(*case)


# Words of 0-140 code points, so patterns span one, two or three 64-bit
# blocks: a small alphabet (many matches), NUL and astral-plane scalars, and
# arbitrary unicode.
LONG_WORDS = st.integers(0, 140).flatmap(
    lambda n: st.text(
        alphabet=st.one_of(
            st.sampled_from("ab\x00\U0001F600"),
            st.characters(exclude_categories=("Cs",)),
        ),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.one_of(WORDS, LONG_WORDS), min_size=1, max_size=4, unique=True),
    st.lists(st.one_of(WORDS, LONG_WORDS), min_size=1, max_size=4, unique=True),
    st.integers(1, 8),
    st.integers(1, 8),
)
def test_long_words_match_per_pair_oracles(words1, words2, tile_cells, block_cells):
    # Small tiles and row blocks put their edges inside the universe.
    with mock.patch.object(scorers, "_TILE_CELLS", tile_cells), mock.patch.object(
        matrix, "_BLOCK_CELLS", block_cells
    ):
        scores = score_all_pairs(MetricId.PHONETIC, words1, words2).scores
        dist = scorers._edit_distances(tuple(words1), tuple(words2))
    for i, x in enumerate(words1):
        for j, y in enumerate(words2):
            assert dist[i, j] == oracle_levenshtein(x, y), (x, y)
            assert scores[i, j] == oracle_phonetic(x, y), (x, y)


EDGE_LENGTHS = (0, 1, 63, 64, 65, 127, 128, 129)


def edge_distance_table():
    """(x, y, distance) at the block edges, known in closed form.  No y word
    has "z", and "\\x00" and an astral-plane scalar stand for any code point."""
    for n in EDGE_LENGTHS:
        yield "a" * n, "a" * n, 0
        yield "", "\x00" * n, n
        yield "\x00" * n, "", n
        yield "z" * n, "a" * n, n
        yield "a" * n + "\U0001F600", "a" * n, 1
        yield "a" * n, "b" + "a" * n, 1
        yield "\x00" + "a" * n, "\U0001F600" + "a" * n, 1
        yield ("ab" * n)[:n], ("ba" * n)[:n], min(n, 2)


EDGE_TABLE = tuple(edge_distance_table())


@pytest.mark.parametrize("x, y, d", EDGE_TABLE)
def test_edge_lengths_fixed_table(x, y, d):
    assert scorers._edit_distances((x,), (y,))[0, 0] == d == oracle_levenshtein(x, y)
    assert pair_score(MetricId.PHONETIC, x, y) == oracle_phonetic(x, y)


def test_edge_table_as_one_universe():
    # The same pairs inside one matrix, cut into tiles and row blocks of a
    # few cells, give the table's distances and the untiled matrix.
    xs, ys, ds = (tuple(col) for col in zip(*EDGE_TABLE))
    with mock.patch.object(scorers, "_TILE_CELLS", 40), mock.patch.object(
        matrix, "_BLOCK_CELLS", 300
    ):
        dist = scorers._edit_distances(xs, ys)
    assert np.array_equal(np.diag(dist), ds)
    assert np.array_equal(dist, scorers._edit_distances(xs, ys))


def dp_edit_distances(x_words, y_words):
    """The vectorised Levenshtein DP that the bit-parallel kernel replaced,
    kept as the matrix oracle.

    The DP advances one character of x at a time over a row of all y; entry
    j of the row is the distance to y[:j].  The insertion chain
    ``cur[j] = min(cur[j], cur[j - 1] + 1)`` is a prefix minimum of
    ``cur[j] - j``.  Padding past len(y) only feeds entries further right.
    """
    y_len = np.array([len(y) for y in y_words], dtype=np.int64)
    width = int(y_len.max(initial=0))
    codes = np.full((width, len(y_words)), -1, dtype=np.int64)
    for j, y in enumerate(y_words):
        codes[: len(y), j] = [ord(c) for c in y]
    cols = np.arange(width + 1, dtype=np.int64)[:, None]
    last = (y_len, np.arange(len(y_words)))
    out = np.empty((len(x_words), len(y_words)), dtype=np.int64)
    for i, x in enumerate(x_words):
        prev = np.broadcast_to(cols, (width + 1, len(y_words)))
        for k, ch in enumerate(x, start=1):
            cur = np.empty_like(prev)
            cur[0] = k
            np.minimum(prev[1:] + 1, prev[:-1] + (codes != ord(ch)), out=cur[1:])
            prev = np.minimum.accumulate(cur - cols, axis=0) + cols
        out[i] = prev[last]
    return out


def random_universe_words(rng, n):
    """A mix of words over a 4-letter alphabet, of arbitrary unicode scalars
    (astral-plane and NUL included) and of 60-140 code points."""
    words = []
    for kind in rng.integers(0, 10, size=n):
        if kind < 6:
            words.append("".join(rng.choice(list("acgt"), size=rng.integers(0, 12))))
        elif kind < 9:
            points = rng.integers(0, 0x110000, size=rng.integers(0, 10))
            words.append("".join(chr(p) for p in points if not 0xD800 <= p < 0xE000))
        else:
            words.append("".join(rng.choice(list("acgt\x00é"), size=rng.integers(60, 141))))
    return tuple(words)


@pytest.mark.slow
def test_kernel_equals_dp_on_random_universe():
    rng = np.random.default_rng(20261018)
    xs, ys = random_universe_words(rng, 600), random_universe_words(rng, 3000)
    # The DP pads every y word to the longest, so the oracle runs once for
    # the long and once for the short y words.
    expected = np.empty((len(xs), len(ys)), dtype=np.int64)
    long_y = np.array([len(y) >= 60 for y in ys])
    for cols in (np.flatnonzero(long_y), np.flatnonzero(~long_y)):
        expected[:, cols] = dp_edit_distances(xs, tuple(ys[j] for j in cols))
    assert long_y.any() and not long_y.all()
    assert np.array_equal(scorers._edit_distances(xs, ys), expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stacked_daily_features_equal_per_word_calls(seed):
    # One mean/var and one rfft over the stacked rows give each word's
    # values bit for bit, also for long series and counts far beyond 2**32.
    rng = np.random.default_rng(seed)
    n_days = int(rng.integers(4, 1500))
    high = int(rng.choice([10, 10**4, 10**9, 2**50]))
    daily = {f"w{i}": rng.integers(0, high, size=n_days) for i in range(int(rng.integers(1, 20)))}
    lex = lexicon(daily=daily, n_days=n_days)
    words = (*daily, "absent")
    fano = scorers._fano_factors(lex, words)
    centred, sq_norms = scorers._spectrum_ranks(lex, words)
    for i, w in enumerate(words):
        assert fano[i] == oracle_fano(daily_row(lex, w))
        ranks = oracle_rank_vector(daily_row(lex, w))
        if ranks is None:
            assert sq_norms[i] == 0.0
        else:
            assert np.array_equal(centred[i], ranks[0]) and sq_norms[i] == ranks[1]


@pytest.mark.parametrize("block_cells", [1, 16, 100])
def test_spectrum_row_blocks_equal_one_block(block_cells):
    # An all-zero series ties every bin of its spectrum, so its block takes
    # the rank kernel's tied path while the blocks of distinct spectra do not;
    # the ranks and the temporal matrix are those of one block, bit for bit.
    rng = np.random.default_rng(2026)
    daily = {f"w{i}": rng.integers(0, 50, size=30) for i in range(40)}
    daily["silent"] = np.zeros(30, dtype=np.int64)
    lex = lexicon(daily=daily, n_days=30)
    words = tuple(daily)

    def spectra_and_scores():
        return (*scorers._spectrum_ranks(lex, words),
                score_all_pairs(MetricId.TEMPORAL, words, words[::-1], lex, lex).scores)

    with mock.patch.object(matrix, "_BLOCK_CELLS", 1 << 30):
        whole = spectra_and_scores()
    with mock.patch.object(matrix, "_BLOCK_CELLS", block_cells):
        assert len(matrix._blocks(len(words), 15)) > 1
        blocked = spectra_and_scores()
    for got, want in zip(blocked, whole):
        assert got.tobytes() == want.tobytes()
    assert whole[1][words.index("silent")] == 0.0


def check_against_oracles(words1, lex1, words2, lex2, bridge):
    oracle = {
        MetricId.PHONETIC: lambda x, y: oracle_phonetic(x, y),
        MetricId.FREQUENCY: lambda x, y: oracle_ratio(lex1.rel_freq(x), lex2.rel_freq(y)),
        MetricId.BURSTINESS: lambda x, y: oracle_ratio(
            oracle_fano(daily_row(lex1, x)), oracle_fano(daily_row(lex2, y))
        ),
        MetricId.TEMPORAL: lambda x, y: oracle_temporal(daily_row(lex1, x), daily_row(lex2, y)),
        MetricId.CONTEXT: lambda x, y: oracle_context(x, lex1, y, lex2, bridge),
    }
    for metric, expected in oracle.items():
        m = score_all_pairs(metric, words1, words2, lex1, lex2, bridge)
        assert m.row_labels == tuple(words1) and m.col_labels == tuple(words2)
        assert ((m.scores >= 0.0) & (m.scores <= 1.0)).all(), metric
        for i, x in enumerate(words1):
            for j, y in enumerate(words2):
                want = expected(x, y)
                if metric is MetricId.CONTEXT:
                    assert abs(m.scores[i, j] - want) <= 1e-12, (metric, x, y)
                    # the sparse product sums a cell alike in any universe
                    assert m.scores[i, j] == pair_score(metric, x, y, lex1, lex2, bridge)
                else:
                    assert m.scores[i, j] == want, (metric, x, y)
    for x in words1:
        for y in words2:
            assert scorers._edit_distances((x,), (y,))[0, 0] == oracle_levenshtein(x, y)


class DictSide:
    """The co-occurrence half of the dict-of-dicts side the columnar
    ``LexiconSide`` replaced, with its marginals as they were computed."""

    def __init__(self, cooc):
        self.cooc = cooc
        self.cooc_word_totals = {w: sum(p.values()) for w, p in self.cooc.items()}
        totals = {}
        for profile in self.cooc.values():
            for ctx, c in profile.items():
                totals[ctx] = totals.get(ctx, 0) + c
        self.cooc_context_totals = totals
        self.cooc_grand_total = sum(self.cooc_word_totals.values())

    def cooc_profile(self, word):
        return self.cooc.get(word, {})


def dict_loop_associations(lex, words, dim_of, n_dims):
    """The per-entry loop that computed the PPMI vectors before the columnar
    kernel, kept verbatim as its oracle (``lex`` is a ``DictSide``)."""
    total, ctx_totals = lex.cooc_grand_total, lex.cooc_context_totals
    indptr, indices, data = [0], [], []
    norms = np.empty(len(words), dtype=np.float64)
    for i, w in enumerate(words):
        profile = lex.cooc_profile(w)
        row: dict[int, float] = {}
        for ctx in sorted(profile):
            dim = dim_of.get(ctx)
            if dim is not None and profile[ctx]:
                pmi = math.log(profile[ctx] * total / (lex.cooc_word_totals[w] * ctx_totals[ctx]))
                row[dim] = row.get(dim, 0.0) + max(0.0, pmi)
        dims = sorted(row)
        indices += dims
        data += [row[d] for d in dims]
        indptr.append(len(indices))
        norms[i] = math.sqrt(math.fsum(row[d] * row[d] for d in dims))
    vectors = csr_matrix((data, indices, indptr), shape=(len(words), n_dims), dtype=np.float64)
    return vectors, norms


# Twelve L2 contexts, nine or more of them bridged to one L1 dimension.
CTX1 = [f"c{i}" for i in range(4)]
CTX2 = [f"k{i:02d}" for i in range(12)]


@st.composite
def context_cases(draw):
    """Two sides whose profiles hold zero counts and counts up to 2^40, a
    universe with words that have no profile, and a bridge that sends at
    least nine L2 contexts to one dimension."""
    count = st.one_of(st.integers(0, 9), st.integers(0, 2**40))

    def side(contexts):
        words = draw(st.lists(WORDS, min_size=1, max_size=6, unique=True))
        profile = st.dictionaries(st.sampled_from(contexts), count, max_size=len(contexts))
        cooc = {w: draw(profile) for w in [*words, *contexts] if draw(st.booleans())}
        # Some word sees every context, so each dimension can collect many.
        cooc[draw(st.sampled_from(words))] = {c: draw(st.integers(1, 2**40)) for c in contexts}
        universe = [*words, *draw(st.lists(st.sampled_from(contexts), max_size=3, unique=True))]
        return dict.fromkeys(universe), cooc

    (words1, cooc1), (words2, cooc2) = side(CTX1), side(CTX2)
    shared = draw(st.lists(st.sampled_from(CTX2), min_size=9, max_size=12, unique=True))
    mapping = {**draw(st.dictionaries(st.sampled_from(CTX2), st.sampled_from(CTX1))),
               **dict.fromkeys(shared, draw(st.sampled_from(CTX1)))}
    return words1, cooc1, words2, cooc2, mapping


@settings(max_examples=150, deadline=None)
@given(context_cases())
def test_context_matrix_equals_dict_loop_oracle(case):
    words1, cooc1, words2, cooc2, bridge = case
    cooc = (cooc1, cooc2)
    sides = [lexicon_side(dict.fromkeys([*w, *c]), 1, {}, cooc=c) for w, c in zip((words1, words2), cooc)]
    got = score_all_pairs(MetricId.CONTEXT, words1, words2, *sides, bridge).scores
    oracle = {id(side): DictSide(c) for side, c in zip(sides, cooc)}
    with mock.patch.object(
        scorers, "_associations", lambda lex, *args: dict_loop_associations(oracle[id(lex)], *args)
    ):
        want = score_all_pairs(MetricId.CONTEXT, words1, words2, *sides, bridge).scores
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # The association vectors and norms themselves, bit for bit.
    dims = sorted(set(bridge.values()))
    dim_of = {d: i for i, d in enumerate(dims)}
    bridged = {ctx: dim_of[l1] for ctx, l1 in bridge.items()}
    for side, words, ctx_dim in zip(sides, (words1, words2), (dim_of, bridged)):
        args = (tuple(words), ctx_dim, len(dims))
        vectors, norms = scorers._associations(side, *args)
        want, want_norms = dict_loop_associations(oracle[id(side)], *args)
        assert vectors.has_sorted_indices
        assert np.array_equal(vectors.indptr, want.indptr)
        assert np.array_equal(vectors.indices, want.indices)
        assert np.array_equal(vectors.data.view(np.uint64), want.data.view(np.uint64))
        assert np.array_equal(norms.view(np.uint64), want_norms.view(np.uint64))
