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
from typing import TYPE_CHECKING

import numpy as np

from .matrix import GoldPairs, _check_fields, _read_only, _run_blocks

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

log = logging.getLogger(__name__)

UNIVERSE_MODES = ("standard", "large")


@dataclass(frozen=True, eq=False)
class LexiconSide:
    """One language's vocabulary with corpus statistics, stored by column.

    ``daily_counts`` holds one int64 row of ``n_days`` counts per word of
    ``daily_words``.  ``cooc_counts`` is an int64 CSR matrix over
    ``cooc_words`` x ``cooc_contexts``, one entry per (word, context) at
    most, each row in the order of the word's profile.  Words missing from
    the daily or co-occurrence data implicitly have a zero vector / an empty
    profile.
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
        from scipy.sparse import csr_matrix

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


# Data lines are read in chunks of about this many characters, and the counts
# of a chunk are converted by one numpy call.
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

    def header_value(line: str) -> str:
        nonlocal header_line
        if header_line:
            raise ValueError(
                f"{path}:{lineno}: repeated '#{directive}' header (first on line {header_line})"
            )
        header_line = lineno
        return line[len(header):]

    with open(path, "r", encoding="utf-8", newline="\n") as f:
        for text in _line_blocks(f):
            # A header line that opens the block is taken on its own, so the
            # lines after it can still be one chunk.
            if header and text.startswith(header):
                end = text.index("\n")
                lineno += 1
                yield lineno, header_value(text[:end])
                if not (text := text[end + 1:]):
                    continue
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
                        yield lineno, header_value(line)
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


def _count_text(rows: list[str], n_cols: int) -> str | None:
    """The comma-separated counts of ``rows`` as one text for ``_convert``;
    None unless every count is plain ASCII digits and every row has
    ``n_cols`` of them.

    Digits only, because ``np.fromstring`` and ``int()`` differ elsewhere
    (``1_000``, non-ASCII digits, some control characters); on None the
    caller parses each count with ``int()``, which also names a bad one.
    """
    text = ",".join(rows)
    # Every row holds n_cols - 1 commas; with one column, text holds only the joins.
    if n_cols == 1:
        ragged = text.count(",") != len(rows) - 1
    else:
        ragged = set(map(str.count, rows, repeat(","))) != {n_cols - 1}
    if ragged or not text.isascii() or text.encode().translate(None, b"0123456789,"):
        return None
    return text


def _convert(jobs: list[tuple[int, int, str | list]], out: np.ndarray) -> bool:
    """Write the counts of each ``(start, stop, counts)`` of ``jobs`` into rows
    ``start:stop`` of ``out``, the jobs run by ``_run_blocks``: counts parsed
    already, or a ``_count_text`` converted by one numpy call.  False if a
    text does not fill its rows exactly (it has an empty count) or holds the
    int64 maximum, which ``np.fromstring`` also reads for any count of 2^63
    or more; the caller then parses its counts with ``int()``."""
    failed = []

    def convert(job):
        start, stop, counts = job
        rows = out[start:stop]
        if isinstance(counts, str):
            try:
                counts = np.fromstring(counts, dtype=np.int64, sep=",")
            except ValueError:  # an empty count
                counts = None
            if counts is None or counts.size != rows.size or counts.max(initial=0) == _INT64_MAX:
                failed.append(job)
                return
        rows[...] = np.reshape(counts, rows.shape)

    _run_blocks(convert, jobs)
    return not failed


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
            total, total_line = _parse_count(fields.strip(), path, where, "total"), where
            continue
        words, toks = fields[0::2], fields[1::2]
        text = _count_text(toks, 1)
        counts = np.empty((len(toks), 1), dtype=np.int64)
        if text is not None and _convert([(0, len(toks), text)], counts):
            _add_new(freq, words, where, path)
            freq.update(zip(words, counts[:, 0].tolist()))
        else:
            # Line by line, so that the first fault is the one named.
            for lineno, word, tok in zip(where, words, toks):
                _add_new(freq, [word], [lineno], path)
                freq[word] = _parse_count(tok, path, lineno, "count")
    if total is None:
        raise ValueError(f"{path}: missing '#total <N>' header")
    if total == 0:
        raise ValueError(f"{path}:{total_line}: total must be positive, got 0")
    counted = sum(freq.values())
    if counted > total:
        raise ValueError(
            f"{path}:{total_line}: counts add up to {counted}, more than the total {total}"
        )
    return freq, total


# Reading a daily or co-occurrence file takes two passes.  The first checks
# every line, its words and the text of its counts, and parses with ``int()``
# line by line each chunk whose counts are not all plain digits.  The second
# converts the other chunks on the block pool, straight into the file's one
# array.  If it rejects a chunk, the file is read again with ``bulk=False``,
# every count parsed line by line, so that the first fault in the file is the
# one named, even where the first pass stopped at a later one.


def _load_daily(path: Path, bulk: bool = True) -> tuple[tuple[str, ...], np.ndarray, int]:
    """The words of the daily-count file in file order, their counts as one
    read-only array with a row per word, and the number of days."""
    n_days: int | None = None
    words: dict[str, None] = {}
    jobs: list[tuple[int, int, str | list]] = []
    n_rows = 0
    fault = None
    try:
        for where, fields in _records(path, "word<TAB>c1,c2,...", "days"):
            if isinstance(fields, str):
                n_days = _parse_count(fields.strip(), path, where, "day count")
                continue
            if n_days is None:
                raise ValueError(f"{path}:{where[0]}: data before '#days <T>' header")
            chunk, csvs = fields[0::2], fields[1::2]
            start, n_rows = n_rows, n_rows + len(chunk)
            text = _count_text(csvs, n_days) if bulk else None
            if text is None:
                rows = []
                what = ("daily count", "daily count")
                for lineno, word, csv in zip(where, chunk, csvs):
                    _add_new(words, [word], [lineno], path)
                    toks = csv.split(",") if csv != "" else []
                    if len(toks) != n_days:
                        raise ValueError(
                            f"{path}:{lineno}: expected {n_days} daily counts for {word!r},"
                            f" got {len(toks)}"
                        )
                    rows.append([_parse_count(t, path, lineno, *what) for t in toks])
                jobs.append((start, n_rows, rows))
            else:
                # Queued first, so that a count it rejects wins over a
                # duplicate word later in the chunk.
                jobs.append((start, n_rows, text))
                _add_new(words, chunk, where, path)
        if n_days is None:
            raise ValueError(f"{path}: missing '#days <T>' header")
    except ValueError as exc:
        fault = exc
    counts = np.empty((n_rows, n_days or 0), dtype=np.int64)
    if not _convert(jobs, counts):
        return _load_daily(path, bulk=False)
    if fault:
        raise fault
    counts.setflags(write=False)
    return tuple(words), counts, n_days


def _load_cooc(
    path: Path, bulk: bool = True
) -> tuple[tuple[str, ...], tuple[str, ...], csr_matrix]:
    """The words and contexts of the co-occurrence file in order of first
    appearance, and their counts as one CSR matrix: repeated lines add up,
    and each row lists its contexts in order of first appearance."""
    words: dict[str, int] = {}
    contexts: dict[str, int] = {}
    # Each key maps to the position of the line it first appears on; a
    # chunk's keys are looked up while the chunk is fresh.
    at_word, at_context = count(), count()
    ids = [(np.empty(0, np.int64),) * 2]
    jobs: list[tuple[int, int, str | list]] = []
    n_lines = 0
    fault = None
    try:
        for linenos, fields in _records(path, "word<TAB>context<TAB>count"):
            toks = fields[2::3]
            chunk_counts = _count_text(toks, 1) if bulk else None
            if chunk_counts is None:
                what = ("count", "co-occurrence count")
                chunk_counts = [_parse_count(t, path, n, *what) for n, t in zip(linenos, toks)]
            jobs.append((n_lines, n_lines + len(toks), chunk_counts))
            n_lines += len(toks)
            ids.append((
                np.fromiter(map(words.setdefault, fields[0::3], at_word), np.int64, len(toks)),
                np.fromiter(map(contexts.setdefault, fields[1::3], at_context), np.int64, len(toks)),
            ))
    except ValueError as exc:
        fault = exc
    counts = np.empty((n_lines, 1), dtype=np.int64)
    if not _convert(jobs, counts):
        return _load_cooc(path, bulk=False)
    if fault:
        raise fault
    counts = counts.reshape(-1)
    # A float64 sum below 2^62 cannot hide an exact sum beyond int64.
    if counts.sum(dtype=np.float64) >= 2.0**62 and (total := sum(counts.tolist())) > _INT64_MAX:
        raise ValueError(f"{path}: co-occurrence total {total} exceeds {_INT64_MAX}")
    # Numbered in order of first appearance.
    positions = np.arange(n_lines)
    rows, cols = ((np.cumsum(at == positions) - 1)[at] for at in map(np.concatenate, zip(*ids)))
    # One entry per (row, column): a stable sort by cell puts each cell's
    # lines together, its first line first.  Ordered by row, then first line.
    cell = rows * len(contexts) + cols
    by_cell = np.argsort(cell, kind="stable")
    starts = np.flatnonzero(np.diff(cell[by_cell], prepend=-1))
    first = by_cell[starts]
    sums = np.add.reduceat(counts[by_cell], starts)
    order = np.argsort(rows[first] * n_lines + first)
    indptr = np.searchsorted(rows[first[order]], np.arange(len(words) + 1))
    table = (sums[order], cols[first[order]], indptr)
    from scipy.sparse import csr_matrix

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
    # ``LexiconSide`` needs SciPy's sparse matrices.  Loaded before any file
    # is read, its modules lie below the parsed arrays, not among them, which
    # lowers the process's peak memory.
    import scipy.sparse

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
    pairs = sorted(gold.pairs)
    _check_fields([word for pair in pairs for word in pair], "word not representable in a gold file")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for comment in comments:
            f.write(f"# {comment}\n")
        for l1, l2 in pairs:
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
