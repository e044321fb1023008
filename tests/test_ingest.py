"""Lexicon/gold file parsing, seed splitting, and universe construction."""

import re

import pytest

from cogmatrix import GoldPairs, LexiconSide, build_universe, load_gold_pairs, load_lexicon, split_seed


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def freq_file(tmp_path):
    return write(tmp_path / "freq.tsv", "#total 100\nbake\t10\nsalt\t5\nrare\t0\n")


@pytest.fixture
def daily_file(tmp_path):
    return write(tmp_path / "daily.tsv", "#days 4\nbake\t1,2,3,4\nsalt\t0,0,5,0\n")


@pytest.fixture
def cooc_file(tmp_path):
    return write(tmp_path / "cooc.tsv", "bake\tbread\t4\nbake\toven\t2\nsalt\tbread\t1\n")


class TestLoadLexicon:
    def test_full_load(self, freq_file, daily_file, cooc_file):
        lex = load_lexicon(freq_file, daily_file, cooc_file)
        assert lex.total_tokens == 100
        assert lex.freq["bake"] == 10
        assert lex.rel_freq("bake") == 0.1
        assert lex.n_days == 4
        assert lex.daily_counts["salt"].tolist() == [0, 0, 5, 0]
        assert lex.cooc["bake"] == {"bread": 4, "oven": 2}

    def test_word_missing_from_daily_gets_zero_vector(self, freq_file, daily_file):
        lex = load_lexicon(freq_file, daily_file)
        assert lex.daily("rare").tolist() == [0, 0, 0, 0]

    def test_word_missing_from_cooc_gets_empty_profile(self, freq_file, daily_file, cooc_file):
        lex = load_lexicon(freq_file, daily_file, cooc_file)
        assert lex.cooc_profile("rare") == {}

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write(tmp_path / "freq.tsv", "#total 100\nbake ten\n")
        with pytest.raises(ValueError, match=r"freq\.tsv:2"):
            load_lexicon(path)

    def test_negative_count_rejected(self, tmp_path):
        path = write(tmp_path / "freq.tsv", "#total 100\nbake\t-3\n")
        with pytest.raises(ValueError, match="negative"):
            load_lexicon(path)

    def test_inconsistent_day_lengths_rejected(self, tmp_path, freq_file):
        daily = write(tmp_path / "daily.tsv", "#days 4\nbake\t1,2,3\n")
        with pytest.raises(ValueError, match="expected 4 daily counts"):
            load_lexicon(freq_file, daily)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ("1,x,3,4", "unparseable daily count 'x'"),
            ("1,2,-3,4", "negative daily count '-3'"),
            ("1,2,99999999999999999999,4", "daily count 99999999999999999999 exceeds"),
        ],
    )
    def test_bad_daily_count_names_line(self, tmp_path, freq_file, counts, message):
        daily = write(tmp_path / "daily.tsv", f"#days 4\nbake\t1,2,3,4\nsalt\t{counts}\n")
        with pytest.raises(ValueError, match=r"daily\.tsv:3: " + re.escape(message)):
            load_lexicon(freq_file, daily)

    def test_missing_total_header_rejected(self, tmp_path):
        path = write(tmp_path / "freq.tsv", "bake\t10\n")
        with pytest.raises(ValueError, match="#total"):
            load_lexicon(path)

    def test_freq_exceeding_total_rejected(self, tmp_path):
        path = write(tmp_path / "freq.tsv", "#total 5\nbake\t10\n")
        with pytest.raises(ValueError, match="exceed"):
            load_lexicon(path)

    def test_comments_ignored(self, tmp_path):
        path = write(tmp_path / "freq.tsv", "# a comment\n#total 10\nbake\t1\n")
        assert load_lexicon(path).freq == {"bake": 1}

    def test_cooc_only_word_joins_vocabulary(self, freq_file, tmp_path):
        cooc = write(tmp_path / "cooc.tsv", "newword\tbread\t1\n")
        lex = load_lexicon(freq_file, None, cooc)
        assert "newword" in lex.words
        assert lex.freq["newword"] == 0


class TestGoldPairsFile:
    def test_load(self, tmp_path):
        path = write(tmp_path / "gold.tsv", "# pairs\nbake\tbacken\nsalt\tsalz\n")
        gold = load_gold_pairs(path)
        assert gold.pairs == frozenset({("bake", "backen"), ("salt", "salz")})

    def test_duplicate_l1_names_lines(self, tmp_path):
        path = write(tmp_path / "gold.tsv", "bake\tbacken\nbake\tsalz\n")
        with pytest.raises(ValueError, match=r"gold\.tsv:2.*line 1"):
            load_gold_pairs(path)

    def test_bad_field_count(self, tmp_path):
        path = write(tmp_path / "gold.tsv", "bake backen\n")
        with pytest.raises(ValueError, match=r"gold\.tsv:1"):
            load_gold_pairs(path)


def make_gold(n):
    return GoldPairs(frozenset((f"l{i}", f"r{i}") for i in range(n)))


class TestSplitSeed:
    def test_sizes_and_disjointness(self):
        seed, rest = split_seed(make_gold(10), 0.2, rng_seed=42)
        assert len(seed) == 2
        assert len(rest) == 8
        assert not (seed.pairs.pairs & rest.pairs)
        assert seed.pairs.pairs | rest.pairs == make_gold(10).pairs

    def test_deterministic(self):
        a = split_seed(make_gold(50), 0.3, rng_seed=7)
        b = split_seed(make_gold(50), 0.3, rng_seed=7)
        assert a[0].pairs.pairs == b[0].pairs.pairs
        assert a[1].pairs == b[1].pairs

    def test_different_seeds_differ(self):
        a = split_seed(make_gold(50), 0.3, rng_seed=7)
        b = split_seed(make_gold(50), 0.3, rng_seed=8)
        assert a[0].pairs.pairs != b[0].pairs.pairs

    def test_floor_size(self):
        seed, _ = split_seed(make_gold(600), 0.19999, rng_seed=1)
        assert len(seed) == 119

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="fraction"):
                split_seed(make_gold(5), bad, rng_seed=0)


class TestBuildUniverse:
    def lex(self, freqs):
        total = max(1, sum(freqs.values()))
        return LexiconSide(words=tuple(freqs), total_tokens=total, freq=dict(freqs))

    def test_standard_mode_is_gold_words(self):
        gold = GoldPairs(frozenset({("a", "x"), ("b", "y"), ("c", "z")}))
        xs, ys = build_universe(None, None, gold, mode="standard")
        assert set(xs) == {"a", "b", "c"}
        assert set(ys) == {"x", "y", "z"}
        assert len(xs) == len(ys) == 3

    def test_large_mode_unions_gold(self):
        lex1 = self.lex({"w1": 50, "w2": 40, "w3": 30, "w4": 20, "w5": 10, "a": 1})
        lex2 = self.lex({"v1": 50, "v2": 40, "v3": 30, "v4": 20, "v5": 10, "x": 1})
        gold = GoldPairs(frozenset({("a", "x")}))
        xs, ys = build_universe(lex1, lex2, gold, mode="large", k=5)
        assert len(xs) == 6  # top-5 plus the out-of-top gold word
        assert "a" in xs and "x" in ys

    def test_large_mode_order_freq_then_lexicographic(self):
        lex = self.lex({"bb": 5, "aa": 5, "cc": 9})
        gold = GoldPairs(frozenset({("aa", "zz")}))
        xs, _ = build_universe(lex, self.lex({"zz": 1}), gold, mode="large", k=3)
        assert xs == ("cc", "aa", "bb")

    def test_gold_word_missing_from_lexicon_warns_but_included(self, caplog):
        lex = self.lex({"w": 3})
        gold = GoldPairs(frozenset({("ghost", "w2")}))
        with caplog.at_level("WARNING"):
            xs, _ = build_universe(lex, self.lex({"w2": 1}), gold, mode="large", k=1)
        assert "ghost" in xs
        assert "ghost" in caplog.text

    def test_deterministic(self):
        lex1 = self.lex({"q": 5, "r": 4, "s": 3})
        lex2 = self.lex({"t": 2, "u": 1})
        gold = GoldPairs(frozenset({("q", "t")}))
        assert build_universe(lex1, lex2, gold, "large", 2) == build_universe(lex1, lex2, gold, "large", 2)

    def test_large_mode_excludes_seed_words_from_top_k(self):
        lex1 = self.lex({"s": 90, "w1": 50, "w2": 40, "w3": 30, "a": 1})
        lex2 = self.lex({"t": 90, "v1": 50, "v2": 40, "v3": 30, "x": 1})
        gold = GoldPairs(frozenset({("a", "x")}))
        seed = GoldPairs(frozenset({("s", "t")}))
        without = build_universe(lex1, lex2, gold, mode="large", k=2)
        assert without == (("s", "w1", "a"), ("t", "v1", "x"))
        xs, ys = build_universe(lex1, lex2, gold, mode="large", k=2, exclude=seed)
        assert xs == ("w1", "w2", "a")
        assert ys == ("v1", "v2", "x")

    def test_standard_mode_unaffected_by_exclude(self):
        gold = GoldPairs(frozenset({("a", "x"), ("b", "y")}))
        seed = GoldPairs(frozenset({("s", "t")}))
        assert build_universe(None, None, gold, exclude=seed) == (("a", "b"), ("x", "y"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            build_universe(None, None, make_gold(2), mode="huge")
