"""Lexicon/gold file parsing, seed splitting, and universe construction."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from cogmatrix import ingest
from cogmatrix import (
    GoldPairs,
    LexiconSide,
    build_universe,
    load_gold_pairs,
    load_lexicon,
    load_weights,
    split_seed,
)
from sides import cooc_profile, daily_row


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
        assert daily_row(lex, "salt").tolist() == [0, 0, 5, 0]
        assert cooc_profile(lex, "bake") == {"bread": 4, "oven": 2}

    def test_word_missing_from_daily_gets_zero_vector(self, freq_file, daily_file):
        lex = load_lexicon(freq_file, daily_file)
        assert daily_row(lex, "rare").tolist() == [0, 0, 0, 0]

    def test_word_missing_from_cooc_gets_empty_profile(self, freq_file, daily_file, cooc_file):
        lex = load_lexicon(freq_file, daily_file, cooc_file)
        assert cooc_profile(lex, "rare") == {}

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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"total_tokens": 0}, "total_tokens must be positive"),
        ({"freq": {"bake": -1}}, "frequency counts must be non-negative"),
        ({"freq": {"bake": 6, "salt": 5}}, "frequency counts exceed total_tokens"),
        ({"daily_words": ("bake",), "daily_counts": [[1, 2]]},
         "daily counts for 'bake' have length 2, expected 3"),
        ({"daily_words": ("salt", "bake"), "daily_counts": [[1, 2, 3], [1, -2, 3]]},
         "negative daily count for 'bake'"),
        ({"cooc_words": ("salt", "bake"), "cooc_contexts": ("oven", "salt"),
          "cooc_counts": csr_matrix(np.array([[1, 0], [2, -1]]))},
         "negative co-occurrence count for 'bake'"),
        ({"daily_words": ("bake", "salt"), "daily_counts": [[1, 2, 3]]},
         "daily counts of shape (1, 3) for 2 words"),
        ({"daily_words": (), "daily_counts": np.zeros((0, 2), np.int64)},
         "daily counts of shape (0, 2), expected (0, 3)"),
        ({"daily_words": ("bake", "bake"), "daily_counts": [[1, 2, 3], [1, 2, 3]]},
         "daily_words holds a word twice"),
        ({"cooc_words": ("bake",), "cooc_contexts": ("oven",), "cooc_counts": csr_matrix([[1, 2]])},
         "co-occurrence counts are int64 (1, 2), not int64 (1, 1)"),
    ],
)
def test_lexicon_side_rejects_bad_statistics(kwargs, message):
    args = {"words": ("bake", "salt"), "total_tokens": 10, "freq": {"bake": 1}, "n_days": 3}
    with pytest.raises(ValueError) as exc:
        LexiconSide(**{**args, **kwargs})
    assert str(exc.value) == message


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


# Each loader called on a file named after its input kind; daily and
# co-occurrence files are read next to a valid frequency file.
_LOADERS = {
    "freq": lambda path: load_lexicon(path),
    "daily": lambda path: load_lexicon(write(path.with_name("ok.tsv"), "#total 9\nbake\t1\n"), path),
    "cooc": lambda path: load_lexicon(write(path.with_name("ok.tsv"), "#total 9\nbake\t1\n"), None, path),
    "gold": load_gold_pairs,
    "weights": load_weights,
}


# (kind, file text, message) for every fault a loader reports.
READER_FAULTS = [
    pytest.param("freq", "#total 9\nbake ten\n",
                 "{path}:2: expected 'word<TAB>count', got 'bake ten'", id="freq-fields"),
    pytest.param("freq", "#total 9\nbake\tten\n", "{path}:2: unparseable count 'ten'",
                 id="freq-unparseable-count"),
    pytest.param("freq", "#total 9\nbake\t-3\n", "{path}:2: negative count '-3'",
                 id="freq-negative-count"),
    pytest.param("freq", "#total lots\nbake\t1\n", "{path}:1: unparseable total 'lots'",
                 id="freq-unparseable-total"),
    pytest.param("freq", "#total 9\nbake\t1\n\nbake\t2\n", "{path}:4: duplicate word 'bake'",
                 id="freq-duplicate"),
    pytest.param("freq", "# counts\nbake\t1\n", "{path}: missing '#total <N>' header",
                 id="freq-missing-total"),
    pytest.param("freq", "bake\t1\nsalt\t-1\n#total x\n", "{path}:2: negative count '-1'",
                 id="freq-two-faults"),
    pytest.param("freq", "#total\t9\nbake\t1\n", "{path}: missing '#total <N>' header",
                 id="freq-header-without-space"),
    pytest.param("freq", "bake\t0\n#total 0\n", "{path}:2: total must be positive, got 0",
                 id="freq-zero-total"),
    pytest.param("freq", "#total 9\nbake\t4\nsalt\t6\n",
                 "{path}:1: counts add up to 10, more than the total 9",
                 id="freq-counts-over-total"),
    pytest.param("freq", "#total 9\n \n", "{path}:2: expected 'word<TAB>count', got ' '",
                 id="freq-whitespace-line"),
    pytest.param("daily", "bake\t1,2\n#days 2\n", "{path}:1: data before '#days <T>' header",
                 id="daily-before-header"),
    pytest.param("daily", "#days 2\nbake 1,2\n",
                 "{path}:2: expected 'word<TAB>c1,c2,...', got 'bake 1,2'", id="daily-fields"),
    pytest.param("daily", "#days 2\nbake\t1,2\nbake\t3,4\n", "{path}:3: duplicate word 'bake'",
                 id="daily-duplicate"),
    pytest.param("daily", "#days 2\nbake\t1\n",
                 "{path}:2: expected 2 daily counts for 'bake', got 1", id="daily-length"),
    pytest.param("daily", "#days 2\nbake\t\n",
                 "{path}:2: expected 2 daily counts for 'bake', got 0", id="daily-empty"),
    pytest.param("daily", "#days 2\nbake\t1,x\n", "{path}:2: unparseable daily count 'x'",
                 id="daily-unparseable-count"),
    pytest.param("daily", "#days 2\nbake\t-3,1\n", "{path}:2: negative daily count '-3'",
                 id="daily-negative-count"),
    pytest.param("daily", "#days 2\nbake\t1,99999999999999999999\n",
                 "{path}:2: daily count 99999999999999999999 exceeds 9223372036854775807",
                 id="daily-over-int64"),
    pytest.param("daily", "#days 2\nbake\t1,2,3\nsalt\t4\n",
                 "{path}:2: expected 2 daily counts for 'bake', got 3", id="daily-ragged-rows"),
    pytest.param("daily", "#days 2\nbake\t1,18446744073709551616\n",
                 "{path}:2: daily count 18446744073709551616 exceeds 9223372036854775807",
                 id="daily-at-2^64"),
    pytest.param("daily", "#days two\n", "{path}:1: unparseable day count 'two'",
                 id="daily-unparseable-days"),
    pytest.param("daily", "# counts\n", "{path}: missing '#days <T>' header",
                 id="daily-missing-days"),
    pytest.param("daily", "#days 2\nbake\t1,x\nsalt\t1\n", "{path}:2: unparseable daily count 'x'",
                 id="daily-two-faults"),
    pytest.param("daily", "#days 2\nbake\t1,\x1c2\n", "{path}:2: unparseable daily count '\\x1c2'",
                 id="daily-control-char-count"),
    pytest.param("cooc", "bake\tbread\n",
                 "{path}:1: expected 'word<TAB>context<TAB>count', got 'bake\\tbread'",
                 id="cooc-fields"),
    pytest.param("cooc", "bake\tbread\tx\n", "{path}:1: unparseable count 'x'",
                 id="cooc-unparseable-count"),
    pytest.param("cooc", "#c\nbake\tbread\t-1\n", "{path}:2: negative count '-1'",
                 id="cooc-negative-count"),
    pytest.param("cooc", "bake\tbread\t-1\nbake\toven\n", "{path}:1: negative count '-1'",
                 id="cooc-two-faults"),
    pytest.param("cooc", "bake\tbread\t2\nbake\toven\t\x1c2\n", "{path}:2: unparseable count '\\x1c2'",
                 id="cooc-control-char-count"),
    pytest.param("cooc", "bake\tbread\t1\nbake\toven\t99999999999999999999\n",
                 "{path}:2: co-occurrence count 99999999999999999999 exceeds 9223372036854775807",
                 id="cooc-over-int64"),
    pytest.param("cooc", "bake\tbread\t9223372036854775808\n",
                 "{path}:1: co-occurrence count 9223372036854775808 exceeds 9223372036854775807",
                 id="cooc-at-2^63"),
    pytest.param("cooc", "bake\tbread\t9223372036854775807\n#c\nbake\tbread\t1\n",
                 "{path}: co-occurrence total 9223372036854775808 exceeds 9223372036854775807",
                 id="cooc-cell-over-int64"),
    pytest.param("cooc", "bake\tbread\t4611686018427387904\nsalt\toven\t4611686018427387904\n",
                 "{path}: co-occurrence total 9223372036854775808 exceeds 9223372036854775807",
                 id="cooc-total-over-int64"),
    pytest.param("gold", "bake backen\n",
                 "{path}:1: expected 'l1_word<TAB>l2_word', got 'bake backen'", id="gold-fields"),
    pytest.param("gold", "bake\tbacken\nbake\tbacken\nbake\tsalz\n",
                 "{path}:3: L1 word 'bake' already paired on line 1", id="gold-l1-repeat"),
    pytest.param("gold", "# pairs\nbake\tbacken\nsalt\tbacken\n",
                 "{path}:3: L2 word 'backen' already paired on line 2", id="gold-l2-repeat"),
    pytest.param("gold", "bake\tbacken\nbake\tsalz\nsalt\n",
                 "{path}:2: L1 word 'bake' already paired on line 1", id="gold-two-faults"),
    pytest.param("gold", "# pairs\r\nbake\tbacken\r\nsalt\tsalz\r\n",
                 "{path}:2: line ends in a carriage return; expected LF line endings",
                 id="gold-crlf"),
    pytest.param("weights", "#bias lots\n", "{path}:1: unparseable bias", id="weights-bias"),
    pytest.param("weights", "#bias \x1c1.5\n", "{path}:1: unparseable bias",
                 id="weights-bias-control-char"),
    pytest.param("weights", "phonetic 1.0\n",
                 "{path}:1: expected 'metric<TAB>weight', got 'phonetic 1.0'", id="weights-fields"),
    pytest.param("weights", "vibes\t1.0\n", "{path}:1: unknown metric 'vibes'",
                 id="weights-unknown-metric"),
    pytest.param("weights", "#bias 0.5\nphonetic\t1.0\nphonetic\t2.0\n",
                 "{path}:3: duplicate weight for metric 'phonetic'", id="weights-duplicate"),
    pytest.param("weights", "phonetic\theavy\n", "{path}:1: unparseable weight 'heavy'",
                 id="weights-unparseable-weight"),
    pytest.param("weights", "phonetic\theavy\n#bias lots\n", "{path}:1: unparseable weight 'heavy'",
                 id="weights-two-faults"),
    pytest.param("freq", "#total 9\nbake\t1\n#total 1\n",
                 "{path}:3: repeated '#total' header (first on line 1)", id="freq-repeated-total"),
    pytest.param("daily", "# counts\n#days 2\nbake\t1,2\n\n#days 3\nsalt\t1,2,3\n",
                 "{path}:5: repeated '#days' header (first on line 2)", id="daily-repeated-days"),
    pytest.param("daily", "#days 2\nbake\t1,x\n#days 2\n", "{path}:2: unparseable daily count 'x'",
                 id="daily-fault-before-repeated-days"),
    pytest.param("weights", "#bias 0.5\nphonetic\t1.0\n#bias 0.5\n",
                 "{path}:3: repeated '#bias' header (first on line 1)", id="weights-repeated-bias"),
    pytest.param("weights", "phonetic\tinf\n", "{path}:1: non-finite weight 'inf'",
                 id="weights-inf"),
    pytest.param("weights", "#bias 0\nphonetic\t1\ncontext\t-inf\n",
                 "{path}:3: non-finite weight '-inf'", id="weights-minus-inf"),
    pytest.param("weights", "phonetic\tnan\n", "{path}:1: non-finite weight 'nan'",
                 id="weights-nan"),
    pytest.param("weights", "phonetic\t1e999\n", "{path}:1: non-finite weight '1e999'",
                 id="weights-overflow-to-inf"),
    pytest.param("weights", "#bias inf\n", "{path}:1: non-finite bias", id="weights-bias-inf"),
    pytest.param("weights", "#bias -inf\n", "{path}:1: non-finite bias",
                 id="weights-bias-minus-inf"),
    pytest.param("weights", "#bias nan\n", "{path}:1: non-finite bias", id="weights-bias-nan"),
]


@pytest.mark.parametrize("kind, text, message", READER_FAULTS)
def test_reader_error_messages(tmp_path, kind, text, message):
    path = write(tmp_path / f"{kind}.tsv", text)
    with pytest.raises(ValueError) as exc:
        _LOADERS[kind](path)
    assert str(exc.value) == message.replace("{path}", str(path))


@pytest.mark.parametrize("kind, text, message", READER_FAULTS)
def test_reader_error_messages_one_line_chunks(tmp_path, kind, text, message):
    # Every chunk boundary falls between two lines.
    with mock.patch.object(ingest, "_CHUNK_CHARS", 1):
        test_reader_error_messages(tmp_path, kind, text, message)


def reference_lexicon(freq_path, daily_path, cooc_path):
    """The per-line loader of dicts that the chunked, columnar one replaced,
    kept as the oracle for valid files: every count goes through ``int()``
    on its own.  Returns the words, total, frequencies, day count, daily
    series and co-occurrence profiles."""

    def records(path, header=None):
        with open(path, encoding="utf-8", newline="\n") as f:
            for line in f.read().split("\n"):
                if header and line.startswith(header):
                    yield line[len(header):]
                elif line and not line.startswith("#"):
                    yield line.split("\t")

    freq, total = {}, None
    for rec in records(freq_path, "#total "):
        if isinstance(rec, str):
            total = int(rec.strip())
        else:
            freq[rec[0]] = int(rec[1])
    daily, n_days = {}, None
    for rec in records(daily_path, "#days "):
        if isinstance(rec, str):
            n_days = int(rec.strip())
        else:
            toks = rec[1].split(",") if rec[1] else []
            daily[rec[0]] = [int(t) for t in toks]
    cooc = {}
    for word, ctx, tok in records(cooc_path):
        profile = cooc.setdefault(word, {})
        profile[ctx] = profile.get(ctx, 0) + int(tok)
    words = list(freq)
    for extra in (*daily, *cooc):
        if extra not in freq:
            freq[extra] = 0
            words.append(extra)
    return tuple(words), total, freq, n_days, daily, cooc


def assert_same_side(got, want):
    """Equal fields, word orders, profile orders, value types, array values
    and co-occurrence marginals."""
    words, total, freq, n_days, daily, cooc = want
    assert (got.words, got.total_tokens, got.n_days) == (words, total, n_days)
    assert list(got.freq.items()) == list(freq.items())
    assert got.daily_words == tuple(daily)
    assert got.daily_counts.shape == (len(daily), n_days) and not got.daily_counts.flags.writeable
    for word in words:
        vec = daily_row(got, word)
        assert vec.dtype == np.int64 and vec.tolist() == daily.get(word, [0] * n_days)
    assert got.cooc_words == tuple(cooc)
    for word in words:
        assert list(cooc_profile(got, word).items()) == list(cooc.get(word, {}).items())
    assert all(type(c) is int for w in words for c in cooc_profile(got, w).values())
    assert got.cooc_word_totals.tolist() == [sum(p.values()) for p in cooc.values()]
    contexts = {}
    for profile in cooc.values():
        for ctx, c in profile.items():
            contexts[ctx] = contexts.get(ctx, 0) + c
    assert dict(zip(got.cooc_contexts, got.cooc_context_totals.tolist())) == contexts
    assert type(got.cooc_grand_total) is int
    assert got.cooc_grand_total == sum(contexts.values())


INT64_MAX = 2**63 - 1
# Spellings of a count that int() reads.  Plain digits convert in bulk; a
# sign, zeros, padding, digit grouping or non-ASCII digits send their chunk
# to the per-line path.
_DEVANAGARI = str.maketrans("0123456789", "०१२३४५६७८९")
_SPELLINGS = [
    str,
    lambda v: f"+{v}",
    lambda v: f"00{v}",
    lambda v: f" {v}\r",
    lambda v: f"\u3000{v}\x0c",
    lambda v: "_".join(str(v)),
    lambda v: str(v).translate(_DEVANAGARI),
]
# Words and contexts hold no tab or newline, and a line must not start with '#'.
_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n"), max_size=4)
_WORD = _TEXT.filter(lambda w: not w.startswith("#"))


def _count(values, spellings):
    return st.builds(lambda v, spell: spell(v), values, st.sampled_from(spellings))


@st.composite
def _file(draw, header, data_lines):
    """``data_lines`` with blank and comment lines around them, the header
    somewhere before the first data line, with or without a final newline."""
    noise = st.lists(st.sampled_from(["", "#", "# note", "#x\ty"]), max_size=2)
    lines = [*draw(noise), *([header] if header else []), *draw(noise)]
    for line in data_lines:
        lines += [line, *draw(noise)]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def lexicon_files(draw):
    """Valid frequency, daily-count and co-occurrence files of one side; in
    half of them every count is plain digits within int64."""
    plain = draw(st.booleans())
    spellings = _SPELLINGS[:1] if plain else _SPELLINGS
    words = draw(st.lists(_WORD, min_size=1, max_size=8, unique=True))
    in_freq = [w for w in words if draw(st.booleans())]
    freq_lines = [f"{w}\t{draw(_count(st.integers(0, 50), spellings))}" for w in in_freq]
    n_days = draw(st.integers(0, 6))
    day_count = _count(st.one_of(st.integers(0, 30), st.just(INT64_MAX)), spellings)
    daily_lines = [
        f"{w}\t{','.join(draw(day_count) for _ in range(n_days))}"
        for w in words if draw(st.booleans())
    ]
    contexts = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    # Few words and contexts, so (word, context) pairs repeat, also apart.
    cooc = draw(st.lists(
        st.tuples(st.sampled_from(words), st.sampled_from(contexts), st.integers(0, 30)),
        max_size=25,
    ))
    # One count may take up the rest of int64, so that the counts add up to
    # INT64_MAX or just below it.
    if cooc and draw(st.booleans()):
        i = draw(st.integers(0, len(cooc) - 1))
        rest = sum(c for _, _, c in cooc) - cooc[i][2]
        cooc[i] = (*cooc[i][:2], INT64_MAX - rest - draw(st.integers(0, 1)))
    cooc_lines = [f"{w}\t{c}\t{draw(_count(st.just(n), spellings))}" for w, c, n in cooc]
    return (
        draw(_file(f"#total {50 * len(in_freq) + 1}", freq_lines)),
        draw(_file(f"#days {n_days}", daily_lines)),
        draw(_file(None, cooc_lines)),
    )


@settings(max_examples=300, deadline=None)
@given(lexicon_files(), st.sampled_from([1, 2, 16, 64, ingest._CHUNK_CHARS]))
def test_chunked_loader_matches_per_line_reference(tmp_path_factory, files, chunk_chars):
    directory = tmp_path_factory.mktemp("lex")
    paths = [directory / name for name in ("freq.tsv", "daily.tsv", "cooc.tsv")]
    for path, text in zip(paths, files):
        path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
        got = load_lexicon(*paths)
    assert_same_side(got, reference_lexicon(*paths))


def make_gold(n):
    return GoldPairs(frozenset((f"l{i}", f"r{i}") for i in range(n)))


class TestSplitSeed:
    def test_sizes_and_disjointness(self):
        seed, rest = split_seed(make_gold(10), 0.2, rng_seed=42)
        assert len(seed) == 2
        assert len(rest) == 8
        assert not (seed.pairs & rest.pairs)
        assert seed.pairs | rest.pairs == make_gold(10).pairs

    def test_deterministic(self):
        a = split_seed(make_gold(50), 0.3, rng_seed=7)
        b = split_seed(make_gold(50), 0.3, rng_seed=7)
        assert a[0].pairs == b[0].pairs
        assert a[1].pairs == b[1].pairs

    def test_different_seeds_differ(self):
        a = split_seed(make_gold(50), 0.3, rng_seed=7)
        b = split_seed(make_gold(50), 0.3, rng_seed=8)
        assert a[0].pairs != b[0].pairs

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
