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
from pathlib import Path

import numpy as np

from .matrix import GoldPairs, _read_only

log = logging.getLogger(__name__)

UNIVERSE_MODES = ("standard", "large")


@dataclass(frozen=True)
class LexiconSide:
    """One language's vocabulary with corpus statistics.

    ``daily_counts`` vectors all have length ``n_days``; words missing from
    the daily or co-occurrence data implicitly have a zero vector / an empty
    profile (see :meth:`daily` and :meth:`cooc_profile`).
    """

    words: tuple[str, ...]
    total_tokens: int
    freq: dict[str, int]
    daily_counts: dict[str, np.ndarray] = field(default_factory=dict)
    cooc: dict[str, dict[str, int]] = field(default_factory=dict)
    n_days: int = 0

    def __post_init__(self) -> None:
        if self.total_tokens <= 0:
            raise ValueError("total_tokens must be positive")
        if min(self.freq.values(), default=0) < 0:
            raise ValueError("frequency counts must be non-negative")
        if sum(self.freq.values()) > self.total_tokens:
            raise ValueError("frequency counts exceed total_tokens")
        daily: dict[str, np.ndarray] = {}
        for w, vec in self.daily_counts.items():
            vec = np.asarray(vec, dtype=np.int64)
            if vec.ndim != 1 or len(vec) != self.n_days:
                raise ValueError(
                    f"daily counts for {w!r} have length {vec.size}, expected {self.n_days}"
                )
            if (vec < 0).any():
                raise ValueError(f"negative daily count for {w!r}")
            daily[w] = _read_only(vec)
        object.__setattr__(self, "daily_counts", daily)
        for w, profile in self.cooc.items():
            if min(profile.values(), default=0) < 0:
                raise ValueError(f"negative co-occurrence count for {w!r}")

    def rel_freq(self, word: str) -> float:
        return self.freq.get(word, 0) / self.total_tokens

    def daily(self, word: str) -> np.ndarray:
        vec = self.daily_counts.get(word)
        if vec is None:
            return np.zeros(self.n_days, dtype=np.int64)
        return vec

    def cooc_profile(self, word: str) -> dict[str, int]:
        return self.cooc.get(word, {})

    # Marginals of the co-occurrence table, shared by all context scoring.
    @cached_property
    def cooc_word_totals(self) -> dict[str, int]:
        return {w: sum(p.values()) for w, p in self.cooc.items()}

    @cached_property
    def cooc_context_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for profile in self.cooc.values():
            for ctx, c in profile.items():
                totals[ctx] = totals.get(ctx, 0) + c
        return totals

    @cached_property
    def cooc_grand_total(self) -> int:
        return sum(self.cooc_word_totals.values())


@dataclass(frozen=True)
class SeedSet:
    """Known pairs reserved for weight training, disjoint from evaluation."""

    pairs: GoldPairs

    def __len__(self) -> int:
        return len(self.pairs)


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


def _parse_count(tok: str, path: Path, lineno: int, what: str) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable {what} {tok!r}") from None
    if value < 0:
        raise ValueError(f"{path}:{lineno}: negative {what} {tok!r}")
    return value


def _bulk_counts(rows: list[str], n_cols: int) -> np.ndarray | None:
    """The comma-separated counts of ``rows`` as one read-only int64 array of
    ``n_cols`` columns, converted in one call; None unless every count is
    plain ASCII digits within int64 and every row has ``n_cols`` of them.

    Digits only, because ``np.loadtxt`` and ``int()`` differ elsewhere
    (``1_000``, non-ASCII digits, some control characters); on None the caller
    parses each count with ``int()``, which also names a bad one.
    """
    text = "".join(rows)
    if not text or not text.isascii() or text.encode().translate(None, b"0123456789,"):
        return None
    try:
        counts = np.loadtxt(rows, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    if counts.shape != (len(rows), n_cols):
        return None
    counts.setflags(write=False)
    return counts


def _load_freq(path: Path) -> tuple[dict[str, int], int]:
    freq: dict[str, int] = {}
    total: int | None = None
    for where, fields in _records(path, "word<TAB>count", "total"):
        if isinstance(fields, str):
            total = _parse_count(fields.strip(), path, where, "total")
            continue
        for lineno, word, tok in zip(where, fields[0::2], fields[1::2]):
            if word in freq:
                raise ValueError(f"{path}:{lineno}: duplicate word {word!r}")
            freq[word] = _parse_count(tok, path, lineno, "count")
    if total is None:
        raise ValueError(f"{path}: missing '#total <N>' header")
    return freq, total


def _parse_daily(word: str, csv: str, n_days: int, path: Path, lineno: int) -> np.ndarray:
    """One line's ``n_days`` daily counts, each parsed with ``int()``, which
    names a bad one, then converted once."""
    toks = csv.split(",") if csv != "" else []
    if len(toks) != n_days:
        raise ValueError(
            f"{path}:{lineno}: expected {n_days} daily counts for {word!r}, got {len(toks)}"
        )
    values = [_parse_count(t, path, lineno, "daily count") for t in toks]
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(
            f"{path}:{lineno}: daily count {max(values)} exceeds {np.iinfo(np.int64).max}"
        ) from None


def _load_daily(path: Path) -> tuple[dict[str, np.ndarray], int]:
    n_days: int | None = None
    daily: dict[str, np.ndarray] = {}
    for where, fields in _records(path, "word<TAB>c1,c2,...", "days"):
        if isinstance(fields, str):
            n_days = _parse_count(fields.strip(), path, where, "day count")
            continue
        if n_days is None:
            raise ValueError(f"{path}:{where[0]}: data before '#days <T>' header")
        words, csvs = fields[0::2], fields[1::2]
        # One array for the chunk; without it, each line is checked and
        # converted on its own, in line order.
        rows = _bulk_counts(csvs, n_days)
        for i, (lineno, word) in enumerate(zip(where, words)):
            if word in daily:
                raise ValueError(f"{path}:{lineno}: duplicate word {word!r}")
            if rows is None:
                daily[word] = _parse_daily(word, csvs[i], n_days, path, lineno)
            else:
                daily[word] = rows[i]
    if n_days is None:
        raise ValueError(f"{path}: missing '#days <T>' header")
    return daily, n_days


def _load_cooc(path: Path) -> dict[str, dict[str, int]]:
    cooc: dict[str, dict[str, int]] = {}
    for linenos, fields in _records(path, "word<TAB>context<TAB>count"):
        toks = fields[2::3]
        counts = _bulk_counts(toks, 1)
        if counts is not None:
            values = counts[:, 0].tolist()
        else:
            values = [_parse_count(t, path, n, "count") for n, t in zip(linenos, toks)]
        for word, ctx, value in zip(fields[0::3], fields[1::3], values):
            profile = cooc.get(word)
            if profile is None:
                profile = cooc[word] = {}
            profile[ctx] = profile.get(ctx, 0) + value
    return cooc


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
    daily: dict[str, np.ndarray] = {}
    n_days = 0
    if daily_path is not None:
        daily, n_days = _load_daily(Path(daily_path))
    cooc: dict[str, dict[str, int]] = {}
    if cooc_path is not None:
        cooc = _load_cooc(Path(cooc_path))
    for extra in (*daily, *cooc):
        freq.setdefault(extra, 0)
    return LexiconSide(
        words=tuple(freq),
        total_tokens=total,
        freq=freq,
        daily_counts=daily,
        cooc=cooc,
        n_days=n_days,
    )


def load_gold_pairs(path: str | Path) -> GoldPairs:
    """Read ``l1_word<TAB>l2_word`` lines into a one-to-one pair set."""
    path = Path(path)
    pairs: set[tuple[str, str]] = set()
    l1_seen: dict[str, int] = {}
    l2_seen: dict[str, int] = {}
    for where, fields in _records(path, "l1_word<TAB>l2_word"):
        for lineno, l1, l2 in zip(where, fields[0::2], fields[1::2]):
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


def split_seed(gold: GoldPairs, fraction: float, rng_seed: int) -> tuple[SeedSet, GoldPairs]:
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
    return SeedSet(GoldPairs(seed_pairs)), GoldPairs(eval_pairs)


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
