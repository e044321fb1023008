"""Parsing of corpus-derived artifact files and candidate-universe construction.

File formats (UTF-8, LF line endings, ``#``-prefixed comment lines ignored
except for the named header directives):

* frequency file:    ``#total <N>`` header, then ``word<TAB>count`` lines
* daily counts file: ``#days <T>`` header, then ``word<TAB>c1,c2,...,cT`` lines
* co-occurrence:     ``word<TAB>context_word<TAB>count`` lines
* gold pairs:        ``l1_word<TAB>l2_word`` lines

Inputs are assumed pre-lemmatized; lemmatization is upstream of this tool.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from .matrix import GoldPairs, _read_only

log = logging.getLogger(__name__)

UNIVERSE_MODES = ("standard", "large")


@dataclass(frozen=True)
class LexiconSide:
    """One language's vocabulary with corpus statistics, stored by column.

    ``daily_counts`` holds one int64 row of ``n_days`` counts per word of
    ``daily_words``.  ``cooc_counts`` is an int64 CSR matrix over
    ``cooc_words`` x ``cooc_contexts``, one entry per (word, context) at
    most, each row in the order of the word's profile.  Words missing from
    the daily or co-occurrence data implicitly have a zero vector / an empty
    profile (see :meth:`daily` and :meth:`cooc_profile`).
    """

    words: tuple[str, ...]
    total_tokens: int
    freq: dict[str, int]
    n_days: int = 0
    daily_words: tuple[str, ...] = ()
    daily_counts: np.ndarray | None = None
    cooc_words: tuple[str, ...] = ()
    cooc_contexts: tuple[str, ...] = ()
    cooc_counts: csr_matrix | None = None
    # The row of each word of ``daily_words`` and of ``cooc_words``.
    daily_index: dict[str, int] = field(init=False, repr=False)
    cooc_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.total_tokens <= 0:
            raise ValueError("total_tokens must be positive")
        if min(self.freq.values(), default=0) < 0:
            raise ValueError("frequency counts must be non-negative")
        if sum(self.freq.values()) > self.total_tokens:
            raise ValueError("frequency counts exceed total_tokens")
        words, n_days = self.daily_words, self.n_days
        daily = np.zeros((0, n_days)) if self.daily_counts is None else self.daily_counts
        daily = _read_only(np.asarray(daily, dtype=np.int64))
        if daily.ndim != 2 or len(daily) != len(words):
            raise ValueError(f"daily counts of shape {daily.shape} for {len(words)} words")
        if daily.shape[1] != n_days:
            raise ValueError(
                f"daily counts for {words[0]!r} have length {daily.shape[1]}, expected {n_days}"
                if words else f"daily counts of shape {daily.shape}, expected (0, {n_days})"
            )
        if (daily < 0).any():
            raise ValueError(f"negative daily count for {words[np.argmax((daily < 0).any(1))]!r}")
        shape = (len(self.cooc_words), len(self.cooc_contexts))
        cooc = csr_matrix(shape, dtype=np.int64) if self.cooc_counts is None else self.cooc_counts
        if cooc.shape != shape or cooc.dtype != np.int64:
            raise ValueError(
                f"co-occurrence counts are {cooc.dtype} {cooc.shape}, not int64 {shape}"
            )
        if (cooc.data < 0).any():
            row = np.searchsorted(cooc.indptr, np.argmax(cooc.data < 0), side="right") - 1
            raise ValueError(f"negative co-occurrence count for {self.cooc_words[row]!r}")
        for name, value in (("daily_counts", daily), ("cooc_counts", cooc)):
            object.__setattr__(self, name, value)
        for name in ("daily", "cooc"):
            words = getattr(self, f"{name}_words")
            index = dict(zip(words, range(len(words))))
            if len(index) != len(words):
                raise ValueError(f"{name}_words holds a word twice")
            object.__setattr__(self, f"{name}_index", index)

    def rel_freq(self, word: str) -> float:
        return self.freq.get(word, 0) / self.total_tokens

    def daily(self, word: str) -> np.ndarray:
        row = self.daily_index.get(word)
        return np.zeros(self.n_days, dtype=np.int64) if row is None else self.daily_counts[row]

    def cooc_profile(self, word: str) -> dict[str, int]:
        row = self.cooc_index.get(word)
        if row is None:
            return {}
        entries = slice(*self.cooc_counts.indptr[row : row + 2])
        contexts = map(self.cooc_contexts.__getitem__, self.cooc_counts.indices[entries].tolist())
        return dict(zip(contexts, self.cooc_counts.data[entries].tolist()))

    # Marginals of the co-occurrence table, shared by all context scoring:
    # int64 sums per row of ``cooc_words`` and per column of ``cooc_contexts``.
    @cached_property
    def cooc_word_totals(self) -> np.ndarray:
        return np.asarray(self.cooc_counts.sum(axis=1)).ravel()

    @cached_property
    def cooc_context_totals(self) -> np.ndarray:
        return np.asarray(self.cooc_counts.sum(axis=0)).ravel()

    @cached_property
    def cooc_grand_total(self) -> int:
        return int(self.cooc_word_totals.sum())


# Data lines are read and converted in chunks of about this many characters,
# so a loader holds little beyond its result.
_CHUNK_CHARS = 1 << 16

# Every byte except tab and newline: deleting them from a block leaves its
# field and line separators.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")


def _line_blocks(f):
    """The text of ``f`` in blocks of whole lines, each ending in ``\n``, of
    about ``_CHUNK_CHARS`` characters (a longer line is a block of its own)."""
    tail = ""
    while block := f.read(_CHUNK_CHARS):
        end = block.rfind("\n") + 1
        if end:
            yield tail + block[:end]
            tail = block[end:]
        else:
            tail += block
    if tail:
        yield tail + "\n"


def _records(path: Path, shape: str, directive: str | None = None):
    """Yield ``(lineno, value)`` for the ``#<directive> <value>`` header line
    and ``(linenos, fields)`` for each chunk of data lines: their line numbers
    and all their tab-separated fields in order, as many per line as
    ``shape`` names.  Blank and other ``#`` lines are skipped.

    A chunk holds about ``_CHUNK_CHARS`` characters of lines at most and
    ends before a header or a line with the wrong field count.  A second
    header or a wrong field count is raised on the next step, after the
    caller has checked the chunk before it, so faults come out in line order.
    """
    header = f"#{directive} " if directive else None
    n_fields = shape.count("<TAB>") + 1
    layout = b"\t" * (n_fields - 1) + b"\n"
    header_line = 0
    lineno = 0
    with open(path, "r", encoding="utf-8", newline="\n") as f:
        for text in _line_blocks(f):
            n_lines = text.count("\n")
            # No comment or header line, and every line has its tabs (so none
            # is blank): the whole block is one chunk.
            if (
                text[0] != "#"
                and "\n#" not in text
                and text.encode().translate(None, _NOT_SEPARATORS) == layout * n_lines
            ):
                fields = text[:-1].replace("\n", "\t").split("\t")
                yield range(lineno + 1, lineno + n_lines + 1), fields
                lineno += n_lines
                continue
            linenos: list[int] = []
            fields = []
            for line in text[:-1].split("\n"):
                lineno += 1
                if line.startswith("#"):
                    if header and line.startswith(header):
                        if linenos:
                            yield linenos, fields
                            linenos, fields = [], []
                        if header_line:
                            raise ValueError(
                                f"{path}:{lineno}: repeated '#{directive}' header"
                                f" (first on line {header_line})"
                            )
                        header_line = lineno
                        yield lineno, line[len(header):]
                elif line:
                    parts = line.split("\t")
                    if len(parts) != n_fields:
                        if linenos:
                            yield linenos, fields
                        raise ValueError(f"{path}:{lineno}: expected '{shape}', got {line!r}")
                    linenos.append(lineno)
                    fields += parts
            if linenos:
                yield linenos, fields


_INT64_MAX = int(np.iinfo(np.int64).max)


def _parse_count(tok: str, path: Path, lineno: int, what: str, int64: str = "") -> int:
    """``int(tok)``, rejected when not a non-negative count or, if ``int64``
    names it, beyond int64."""
    try:
        value = int(tok)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable {what} {tok!r}") from None
    if value < 0:
        raise ValueError(f"{path}:{lineno}: negative {what} {tok!r}")
    if int64 and value > _INT64_MAX:
        raise ValueError(f"{path}:{lineno}: {int64} {value} exceeds {_INT64_MAX}")
    return value


def _bulk_counts(rows: list[str], n_cols: int) -> np.ndarray | None:
    """The comma-separated counts of ``rows`` as one read-only int64 array of
    ``n_cols`` columns, converted in one call; None unless every count is
    plain ASCII digits below the int64 maximum and every row has ``n_cols``
    of them.

    Digits only, because ``np.fromstring`` and ``int()`` differ elsewhere
    (``1_000``, non-ASCII digits, some control characters, and a count of
    2^63 or more, which reads as the int64 maximum); on None the caller
    parses each count with ``int()``, which also names a bad one.
    """
    text = ",".join(rows)
    # Every row holds n_cols - 1 commas; with one column, text holds only the joins.
    if n_cols == 1:
        ragged = text.count(",") != len(rows) - 1
    else:
        ragged = set(map(str.count, rows, repeat(","))) != {n_cols - 1}
    if ragged or not text.isascii() or text.encode().translate(None, b"0123456789,"):
        return None
    try:
        counts = np.fromstring(text, dtype=np.int64, sep=",")
    except ValueError:  # an empty count
        return None
    if counts.size != len(rows) * n_cols or (counts == _INT64_MAX).any():
        return None
    counts = counts.reshape(len(rows), n_cols)
    counts.setflags(write=False)
    return counts


def _add_new(seen: dict, words: list[str], where, path: Path) -> None:
    """Add ``words`` (read on lines ``where``) to ``seen``, rejecting the
    first one that is already there or earlier in ``words``."""
    if len(set(words)) < len(words) or not seen.keys().isdisjoint(words):
        known = set(seen)
        for lineno, word in zip(where, words):
            if word in known:
                raise ValueError(f"{path}:{lineno}: duplicate word {word!r}")
            known.add(word)
    seen.update(dict.fromkeys(words))


def _load_freq(path: Path) -> tuple[dict[str, int], int]:
    freq: dict[str, int] = {}
    total: int | None = None
    for where, fields in _records(path, "word<TAB>count", "total"):
        if isinstance(fields, str):
            total = _parse_count(fields.strip(), path, where, "total")
            continue
        words, toks = fields[0::2], fields[1::2]
        counts = _bulk_counts(toks, 1)
        if counts is None:
            # Line by line, so that the first fault is the one named.
            for lineno, word, tok in zip(where, words, toks):
                _add_new(freq, [word], [lineno], path)
                freq[word] = _parse_count(tok, path, lineno, "count")
        else:
            _add_new(freq, words, where, path)
            freq.update(zip(words, counts[:, 0].tolist()))
    if total is None:
        raise ValueError(f"{path}: missing '#total <N>' header")
    return freq, total


def _load_daily(path: Path) -> tuple[tuple[str, ...], np.ndarray, int]:
    """The words of the daily-count file in file order, their counts as one
    array with a row per word, and the number of days."""
    n_days: int | None = None
    words: dict[str, None] = {}
    blocks: list[np.ndarray] = []
    for where, fields in _records(path, "word<TAB>c1,c2,...", "days"):
        if isinstance(fields, str):
            n_days = _parse_count(fields.strip(), path, where, "day count")
            continue
        if n_days is None:
            raise ValueError(f"{path}:{where[0]}: data before '#days <T>' header")
        chunk, csvs = fields[0::2], fields[1::2]
        # One array for the chunk; without it, each line is checked and each
        # count parsed with ``int()``, which names a bad one, in line order.
        rows = _bulk_counts(csvs, n_days)
        if rows is None:
            rows = np.empty((len(chunk), n_days), dtype=np.int64)
            what = ("daily count", "daily count")
            for i, (lineno, word, csv) in enumerate(zip(where, chunk, csvs)):
                _add_new(words, [word], [lineno], path)
                toks = csv.split(",") if csv != "" else []
                if len(toks) != n_days:
                    raise ValueError(
                        f"{path}:{lineno}: expected {n_days} daily counts for {word!r},"
                        f" got {len(toks)}"
                    )
                rows[i] = [_parse_count(t, path, lineno, *what) for t in toks]
        else:
            _add_new(words, chunk, where, path)
        blocks.append(rows)
    if n_days is None:
        raise ValueError(f"{path}: missing '#days <T>' header")
    return tuple(words), np.concatenate([np.empty((0, n_days), np.int64), *blocks]), n_days


def _load_cooc(path: Path) -> tuple[tuple[str, ...], tuple[str, ...], csr_matrix]:
    """The words and contexts of the co-occurrence file in order of first
    appearance, and their counts as one CSR matrix: repeated lines add up,
    and each row lists its contexts in order of first appearance."""
    words: dict[str, int] = {}
    contexts: dict[str, int] = {}
    # Each key maps to the position of the line it first appears on; a
    # chunk's keys are looked up while the chunk is fresh.
    at_word, at_context = count(), count()
    blocks = [(np.empty(0, np.int64),) * 3]
    for linenos, fields in _records(path, "word<TAB>context<TAB>count"):
        toks = fields[2::3]
        counts = _bulk_counts(toks, 1)
        if counts is None:
            what = ("count", "co-occurrence count")
            counts = np.array([_parse_count(t, path, n, *what) for n, t in zip(linenos, toks)])
        blocks.append((
            np.fromiter(map(words.setdefault, fields[0::3], at_word), np.int64, len(toks)),
            np.fromiter(map(contexts.setdefault, fields[1::3], at_context), np.int64, len(toks)),
            counts.reshape(-1),
        ))
    rows, cols, counts = map(np.concatenate, zip(*blocks))
    # A float64 sum below 2^62 cannot hide an exact sum beyond int64.
    if counts.sum(dtype=np.float64) >= 2.0**62 and (total := sum(counts.tolist())) > _INT64_MAX:
        raise ValueError(f"{path}: co-occurrence total {total} exceeds {_INT64_MAX}")
    # Numbered in order of first appearance.
    positions = np.arange(len(counts))
    rows, cols = ((np.cumsum(ids == positions) - 1)[ids] for ids in (rows, cols))
    # One entry per (row, column), at its first line; ordered by row, then line.
    _, first, cell = np.unique(rows * len(contexts) + cols, return_index=True, return_inverse=True)
    sums = np.zeros(len(first), dtype=np.int64)
    np.add.at(sums, cell, counts)
    order = np.lexsort((first, rows[first]))
    indptr = np.searchsorted(rows[first[order]], np.arange(len(words) + 1))
    table = (sums[order], cols[first[order]], indptr)
    return tuple(words), tuple(contexts), csr_matrix(table, shape=(len(words), len(contexts)))


def load_lexicon(
    freq_path: str | Path,
    daily_path: str | Path | None = None,
    cooc_path: str | Path | None = None,
) -> LexiconSide:
    """Load one language side from its statistics files.

    The frequency file defines the base vocabulary; words that appear only in
    the daily or co-occurrence files are appended with frequency 0.
    """
    freq, total = _load_freq(Path(freq_path))
    side = {}
    if daily_path is not None:
        side["daily_words"], side["daily_counts"], side["n_days"] = _load_daily(Path(daily_path))
    if cooc_path is not None:
        side["cooc_words"], side["cooc_contexts"], side["cooc_counts"] = _load_cooc(Path(cooc_path))
    extra = chain(side.get("daily_words", ()), side.get("cooc_words", ()))
    freq = {**dict.fromkeys(chain(freq, extra), 0), **freq}
    return LexiconSide(words=tuple(freq), total_tokens=total, freq=freq, **side)


def load_gold_pairs(path: str | Path) -> GoldPairs:
    """Read ``l1_word<TAB>l2_word`` lines, LF-terminated, into a one-to-one pair set."""
    path = Path(path)
    pairs: set[tuple[str, str]] = set()
    l1_seen: dict[str, int] = {}
    l2_seen: dict[str, int] = {}
    for where, fields in _records(path, "l1_word<TAB>l2_word"):
        for lineno, l1, l2 in zip(where, fields[0::2], fields[1::2]):
            if l2.endswith("\r"):
                raise ValueError(
                    f"{path}:{lineno}: line ends in a carriage return; expected LF line endings"
                )
            if (l1, l2) in pairs:
                continue
            if l1 in l1_seen:
                raise ValueError(
                    f"{path}:{lineno}: L1 word {l1!r} already paired on line {l1_seen[l1]}"
                )
            if l2 in l2_seen:
                raise ValueError(
                    f"{path}:{lineno}: L2 word {l2!r} already paired on line {l2_seen[l2]}"
                )
            l1_seen[l1] = lineno
            l2_seen[l2] = lineno
            pairs.add((l1, l2))
    return GoldPairs(frozenset(pairs))


def save_gold_pairs(gold: GoldPairs, path: str | Path, comments: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for comment in comments:
            f.write(f"# {comment}\n")
        for l1, l2 in sorted(gold.pairs):
            f.write(f"{l1}\t{l2}\n")


def split_seed(gold: GoldPairs, fraction: float, rng_seed: int) -> tuple[GoldPairs, GoldPairs]:
    """Partition gold pairs into a training seed and an evaluation remainder.

    The seed gets ``floor(fraction * len(gold))`` pairs, chosen by a seeded
    shuffle, so the split is deterministic for a fixed ``rng_seed``.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    if len(gold) == 0:
        raise ValueError("gold pairs are empty")
    ordered = sorted(gold.pairs)
    n_seed = int(math.floor(fraction * len(ordered)))
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(len(ordered))
    seed_pairs = frozenset(ordered[i] for i in perm[:n_seed])
    eval_pairs = frozenset(ordered[i] for i in perm[n_seed:])
    return GoldPairs(seed_pairs), GoldPairs(eval_pairs)


def build_universe(
    lex1: LexiconSide | None,
    lex2: LexiconSide | None,
    gold: GoldPairs,
    mode: str = "standard",
    k: int = 10_000,
    exclude: GoldPairs | None = None,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Construct the candidate word sets X (L1) and Y (L2).

    ``standard`` mode uses exactly the gold words of each side.  ``large``
    mode takes the k most frequent lexicon words per side and unions in the
    gold words, modelling the realistic condition where most candidates have
    no match at all.  Order is deterministic: standard mode returns each
    side's gold words in lexicographic order, large mode orders by
    descending frequency with lexicographic tie-breaking.

    The words of ``exclude`` (on evaluation, the training seed pairs) are
    left out of the large-mode top-k pool, so they never become candidates;
    the pool is the k most frequent of the remaining words.
    """
    if mode not in UNIVERSE_MODES:
        raise ValueError(f"unknown universe mode {mode!r}; expected one of {UNIVERSE_MODES}")

    def side(
        lex: LexiconSide | None, gold_words: set[str], dropped: set[str], name: str
    ) -> tuple[str, ...]:
        if lex is not None:
            for w in sorted(gold_words - set(lex.words)):
                log.warning("gold word %r missing from %s lexicon; using zero statistics", w, name)
        if mode == "standard":
            return tuple(sorted(gold_words))
        if k < 1:
            raise ValueError("k must be >= 1 in large mode")
        if lex is None:
            raise ValueError("large mode requires lexicons")
        pool = [w for w in lex.words if w not in dropped]
        by_freq = sorted(pool, key=lambda w: (-lex.freq.get(w, 0), w))
        chosen = set(by_freq[:k]) | gold_words
        return tuple(sorted(chosen, key=lambda w: (-(lex.freq.get(w, 0)), w)))

    exclude = exclude or GoldPairs(frozenset())
    return (
        side(lex1, gold.l1_words(), exclude.l1_words(), "L1"),
        side(lex2, gold.l2_words(), exclude.l2_words(), "L2"),
    )
