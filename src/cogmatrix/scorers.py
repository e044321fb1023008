"""Pair similarity metrics over a candidate universe.

Five corpus-derived signals map a candidate (L1 word, L2 word) pair to a
similarity in [0, 1].  :func:`score_all_pairs` is the one implementation of
each: it computes per-word features once, then runs one pairwise kernel.

* ``phonetic``   - normalized edit distance over the orthographic lemmas
                   (bit-parallel Levenshtein: Myers' bit vectors in Hyyrö's
                   global, multi-word form, the L2 words as patterns)
* ``frequency``  - ratio of relative corpus frequencies (outer min/max)
* ``temporal``   - rank correlation of daily-count DFT magnitude spectra
                   (one matrix product of centred rank vectors)
* ``burstiness`` - ratio of Fano factors (variance/mean of daily counts)
* ``context``    - cosine of positive-PMI association vectors projected
                   through a bridge, a mapping from L2 word to L1 word
                   (one CSR product)

One pair's score is the 1x1 matrix of :func:`score_all_pairs`, and a cell
of any larger matrix equals it bit for bit.  Co-occurrence counts are
consumed as produced upstream; the context-window size is the data
producer's choice (a small symmetric window is typical).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from itertools import repeat
from operator import mul, truediv
from typing import TYPE_CHECKING

import numpy as np

from .ingest import LexiconSide
from .matrix import ScoreMatrix, _by_row_blocks, _label_ranks, _row_ranks_ge

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


class MetricId(str, enum.Enum):
    """Closed set of supported similarity metrics."""

    CONTEXT = "context"
    FREQUENCY = "frequency"
    TEMPORAL = "temporal"
    BURSTINESS = "burstiness"
    PHONETIC = "phonetic"


# Cells per tile of the edit-distance kernel: small enough that a tile's
# dozen uint64 work arrays stay in cache while it steps through its texts.
_TILE_CELLS = 1 << 14


def _advance(codes: np.ndarray, peq: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Edit distances of a tile: r texts of one length n against c patterns
    of the same number of 64-bit blocks.

    ``codes`` (r, n) are the texts' alphabet indices, ``peq`` (blocks,
    alphabet, c) the patterns' match masks and ``last`` (c,) the mask of
    each pattern's rows in its last block.  Per text character, block b of
    ``pv``/``mv`` holds the vertical deltas +1/-1 of the DP column, and a
    block hands its bottom horizontal delta to the next one (Myers 1999,
    Hyyrö 2003).  The top row's delta is +1, as D[0][j] = j in the global
    distance, so D[m][n] = n + popcount(pv) - popcount(mv) over the
    pattern's rows.
    """
    n_blocks, _, c = peq.shape
    r, n = codes.shape
    state = np.zeros((2, n_blocks, r, c), dtype=np.uint64)
    pv, mv = state
    pv.fill(np.iinfo(np.uint64).max)
    eq, xv, xh, ph, mh = (np.empty((r, c), dtype=np.uint64) for _ in range(5))
    h_in = (np.empty((r, c), dtype=np.uint64), np.empty((r, c), dtype=np.uint64))
    h_out = (np.empty((r, c), dtype=np.uint64), np.empty((r, c), dtype=np.uint64))
    for t in range(n):
        for b in range(n_blocks):
            p, m = pv[b], mv[b]
            np.take(peq[b], codes[:, t], axis=0, out=eq, mode="clip")
            np.bitwise_or(eq, m, out=xv)
            if b:
                np.bitwise_or(eq, h_in[1], out=eq)
            # Xh = (((Eq & Pv) + Pv) ^ Pv) | Eq
            np.bitwise_and(eq, p, out=xh)
            np.add(xh, p, out=xh)
            np.bitwise_xor(xh, p, out=xh)
            np.bitwise_or(xh, eq, out=xh)
            # Ph = Mv | ~(Xh | Pv), Mh = Pv & Xh
            np.bitwise_or(xh, p, out=ph)
            np.invert(ph, out=ph)
            np.bitwise_or(ph, m, out=ph)
            np.bitwise_and(xh, p, out=mh)
            if b < n_blocks - 1:
                np.right_shift(ph, 63, out=h_out[0])
                np.right_shift(mh, 63, out=h_out[1])
            np.left_shift(ph, 1, out=ph)
            np.left_shift(mh, 1, out=mh)
            if b:
                np.bitwise_or(ph, h_in[0], out=ph)
                np.bitwise_or(mh, h_in[1], out=mh)
            else:
                np.bitwise_or(ph, 1, out=ph)
            # Pv = Mh | ~(Xv | Ph), Mv = Ph & Xv
            np.bitwise_or(xv, ph, out=p)
            np.invert(p, out=p)
            np.bitwise_or(p, mh, out=p)
            np.bitwise_and(ph, xv, out=m)
            h_in, h_out = h_out, h_in
    state[:, -1] &= last
    ones = np.bitwise_count(state).sum(axis=1, dtype=np.int64)
    return n + (ones[0] - ones[1])


def _alphabet_codes(words: tuple[str, ...], index: dict[str, int]):
    """Lengths, start offsets and the concatenated alphabet indices of
    ``words``; a character outside the alphabet gets ``len(index)``."""
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    absent = len(index)
    codes = np.fromiter(
        (index.get(ch, absent) for w in words for ch in w), dtype=np.int32, count=int(lengths.sum())
    )
    return lengths, np.cumsum(lengths) - lengths, codes


def _edit_distance_rows(x_words: tuple[str, ...], y_words: tuple[str, ...]):
    """The function ``rows -> distances`` that gives the Levenshtein distance
    (over unicode scalar values) of each of ``x_words[rows]`` (a slice) to
    every y word, as float64: the phonetic score is computed in place in
    that array, and every distance below 2^53 is exact in it.

    The bit-parallel kernel ``_advance`` takes the y words as patterns and the
    x words as texts.  The patterns' match masks are built here, once: one
    uint64 per pattern per 64 code points for each character that occurs in
    both word lists, and one all-zero row for the characters of x that no y
    word has.  Patterns are grouped by their number of blocks; an empty
    pattern has one block and no rows, so its distance is ``len(x)``.  The x
    words of each call are grouped by length, so one numpy step advances a
    whole group by one character, and run in tiles of ``_TILE_CELLS`` cells.
    """
    alphabet = sorted(set().union(*x_words) & set().union(*y_words))
    index = {ch: k for k, ch in enumerate(alphabet)}
    x_len, x_start, x_codes = _alphabet_codes(x_words, index)
    y_len, y_start, y_codes = _alphabet_codes(y_words, index)

    # The column and position of every y character; ``shared`` marks those
    # in the alphabet.
    y_col = np.repeat(np.arange(len(y_words)), y_len)
    y_pos = np.arange(len(y_codes)) - np.repeat(y_start, y_len)
    shared = y_codes < len(alphabet)
    y_blocks = np.maximum(1, -(-y_len // 64))
    slot = np.empty(len(y_words), dtype=np.int64)
    groups = []
    for n_blocks in sorted(set(y_blocks.tolist())):
        cols = np.flatnonzero(y_blocks == n_blocks)
        slot[cols] = np.arange(len(cols))
        at = shared & (y_blocks[y_col] == n_blocks)
        pos = y_pos[at]
        peq = np.zeros((n_blocks, len(alphabet) + 1, len(cols)), dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (pos % 64).astype(np.uint64))
        np.bitwise_or.at(peq, (pos // 64, y_codes[at], slot[y_col[at]]), bits)
        tail = y_len[cols] - 64 * (n_blocks - 1)
        last = np.array([(1 << k) - 1 for k in tail.tolist()], dtype=np.uint64)
        groups.append((cols, peq, last))

    def distances(rows: slice) -> np.ndarray:
        ids = np.arange(len(x_words))[rows]
        out = np.empty((len(ids), len(y_words)), dtype=np.float64)
        for n in sorted(set(x_len[ids].tolist())):
            local = np.flatnonzero(x_len[ids] == n)
            codes = x_codes[x_start[ids[local], None] + np.arange(n)]
            for cols, peq, last in groups:
                height = min(len(local), max(1, _TILE_CELLS // len(cols)))
                width = max(1, _TILE_CELLS // height)
                for r in range(0, len(local), height):
                    for c in range(0, len(cols), width):
                        tile = _advance(
                            codes[r : r + height], peq[:, :, c : c + width], last[c : c + width]
                        )
                        out[np.ix_(local[r : r + height], cols[c : c + width])] = tile
        return out

    return distances


def _edit_distances(x_words: tuple[str, ...], y_words: tuple[str, ...]) -> np.ndarray:
    """Levenshtein distance (over unicode scalar values) of every (x, y) pair."""
    kernel = _edit_distance_rows(x_words, y_words)
    return _by_row_blocks(len(x_words), len(y_words), kernel, dtype=np.int64)


def _daily_rows(lex: LexiconSide, words: tuple[str, ...]) -> np.ndarray:
    """The daily counts of ``words`` as one float64 array, one row per word;
    a word without a series gets a row of zeros."""
    rows = np.fromiter(map(lex.daily_index.get, words, repeat(-1)), np.intp, len(words))
    out = np.zeros((len(words), lex.n_days), dtype=np.float64)
    out[rows >= 0] = lex.daily_counts[rows[rows >= 0]]
    return out


def _rel_freqs(lex: LexiconSide, words: tuple[str, ...]) -> np.ndarray:
    return np.array([lex.rel_freq(w) for w in words], dtype=np.float64)


def _fano_factors(lex: LexiconSide, words: tuple[str, ...]) -> np.ndarray:
    """Variance over mean of each word's daily counts; 0 for an all-zero series."""
    daily = _daily_rows(lex, words)
    mean = daily.mean(axis=1)
    return np.divide(daily.var(axis=1), mean, out=np.zeros_like(mean), where=mean != 0.0)


def _spectrum_ranks(lex: LexiconSide, words: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Centred average ranks of each word's DFT magnitude spectrum (one row
    per word) and their squared norms; a constant spectrum has norm 0.

    The DC bin is dropped: it carries only raw frequency mass, which the
    frequency metric covers.  A bin's average rank is the mean of the first
    and last positions of its tie group, ``count(<) + 1`` and ``count(<=)``,
    i.e. ``(n + 1 + count(<=) - count(>=)) / 2``, both counts from the rank
    kernel.  Average ranks are half-integers summing to n(n+1)/2, so the
    centred values and all their dot products are exact.  The kernel runs on
    row blocks, so near-equal magnitudes in one spectrum send only its block
    down the kernel's tied path.
    """
    mags = np.abs(np.fft.rfft(_daily_rows(lex, words), axis=1))[:, 1:]
    n = mags.shape[1]

    def average_ranks(rows):
        return (n + 1 + _row_ranks_ge(-mags[rows]) - _row_ranks_ge(mags[rows])) / 2

    ranks = _by_row_blocks(len(words), n, average_ranks)
    centred = ranks - ranks.mean(axis=1, keepdims=True)
    return centred, np.einsum("ij,ij->i", centred, centred)


def _associations(
    lex: LexiconSide, words: tuple[str, ...], dim_of: dict[str, int], n_dims: int
) -> tuple[csr_matrix, np.ndarray]:
    """PPMI association vectors of ``words`` over the bridge dimensions, as
    CSR rows with sorted column indices, and their Euclidean norms.

    ``dim_of`` maps a context word of this side to its dimension; context
    words without one, and zero counts, are dropped.  Several context words
    sharing one dimension add up in context-word order, starting from 0.0.
    Each PMI is ``math.log`` of the ratio of exact integer products, as one
    true division.
    """
    contexts = lex.cooc_contexts
    ctx_dim = np.fromiter(map(dim_of.get, contexts, repeat(-1)), np.int64, len(contexts))
    ctx_rank = _label_ranks(contexts)
    rows = np.fromiter(map(lex.cooc_index.get, words, repeat(-1)), np.intp, len(words))
    present = np.flatnonzero(rows >= 0)
    table = lex.cooc_counts[rows[present]]
    word = np.repeat(present, np.diff(table.indptr))
    # The entries that reach a dimension, by word, dimension, context word.
    keep = np.flatnonzero((ctx_dim[table.indices] >= 0) & (table.data != 0))
    col = table.indices[keep]
    keep = keep[np.lexsort((ctx_rank[col], ctx_dim[col], word[keep]))]
    word, col, count = word[keep], table.indices[keep], table.data[keep]
    dim = ctx_dim[col]
    totals = lex.cooc_word_totals[rows[word]].tolist(), lex.cooc_context_totals[col].tolist()
    ratios = map(truediv, map(mul, count.tolist(), repeat(lex.cooc_grand_total)), map(mul, *totals))
    ppmi = np.maximum(np.fromiter(map(math.log, ratios), np.float64, len(keep)), 0.0)
    # One cell per (word, dimension): ``np.add.at`` adds in entry order.
    new = np.diff(word * n_dims + dim, prepend=-1) != 0
    data = np.zeros(np.count_nonzero(new), dtype=np.float64)
    np.add.at(data, np.cumsum(new) - 1, ppmi)
    indptr = np.searchsorted(word[new], np.arange(len(words) + 1))
    squares = (data * data).tolist()
    rows_squares = map(squares.__getitem__, map(slice, indptr[:-1].tolist(), indptr[1:].tolist()))
    norms = np.sqrt(np.fromiter(map(math.fsum, rows_squares), np.float64, len(words)))
    from scipy.sparse import csr_matrix

    vectors = csr_matrix((data, dim[new], indptr), shape=(len(words), n_dims), dtype=np.float64)
    return vectors, norms


def _check_inputs(metric: MetricId, lex1: LexiconSide | None, lex2: LexiconSide | None,
                  bridge: Mapping[str, str] | None) -> None:
    """Reject input the metric cannot score: a missing lexicon, a side that
    lacks the data the metric reads (every word would get the same
    statistics, and the matrix would be constant), daily series of unequal
    length or shorter than 4 (temporal), or an empty bridge (context)."""
    if metric is MetricId.PHONETIC:
        return
    if lex1 is None or lex2 is None:
        raise ValueError(f"{metric.value} metric requires lexicon statistics")
    if metric in (MetricId.TEMPORAL, MetricId.BURSTINESS):
        what, flag = "daily counts", "daily"
        missing = [lex.n_days == 0 for lex in (lex1, lex2)]
    elif metric is MetricId.CONTEXT:
        what, flag = "co-occurrence counts", "cooc"
        missing = [lex.cooc_grand_total == 0 for lex in (lex1, lex2)]
    else:
        return
    for side, absent in enumerate(missing, start=1):
        if absent:
            raise ValueError(
                f"{metric.value} metric needs L{side} {what} (--{flag}{side}), "
                "but that side has none"
            )
    if metric is MetricId.TEMPORAL:
        if lex1.n_days != lex2.n_days:
            raise ValueError(f"daily series lengths differ: {lex1.n_days} vs {lex2.n_days}")
        if lex1.n_days < 4:
            raise ValueError("temporal metric requires daily series of length >= 4")
    if metric is MetricId.CONTEXT and not bridge:
        raise ValueError("context metric requires seed lexicon")


def score_all_pairs(
    metric: MetricId,
    x_words,
    y_words,
    lex1: LexiconSide | None = None,
    lex2: LexiconSide | None = None,
    bridge: Mapping[str, str] | None = None,
) -> ScoreMatrix:
    """Score every (x, y) pair of the universe under one metric.

    ``bridge`` maps an L2 word to its L1 translation (several L2 words may
    share one); the context metric projects L2 profiles through it.  Words
    missing from the daily or co-occurrence data get a zero series or an
    empty profile.
    """
    x_words = tuple(x_words)
    y_words = tuple(y_words)
    metric = MetricId(metric)
    _check_inputs(metric, lex1, lex2, bridge)

    n1, n2 = len(x_words), len(y_words)
    if metric is MetricId.PHONETIC:
        x_len = np.array([len(x) for x in x_words], dtype=np.int64)
        y_len = np.array([len(y) for y in y_words], dtype=np.int64)
        distances = _edit_distance_rows(x_words, y_words)

        def phonetic(rows):
            # 1 - ED/max(|x|, |y|); two empty strings count as identical.
            # Computed in the block of distances, so that a block needs only
            # one more array, ``longer``.
            score = distances(rows)
            longer = np.maximum.outer(x_len[rows], y_len)
            np.subtract(longer, score, out=score)
            np.divide(score, np.maximum(longer, 1, out=longer), out=score)
            score[np.ix_(x_len[rows] == 0, y_len == 0)] = 1.0
            return score

        return ScoreMatrix(x_words, y_words, _by_row_blocks(n1, n2, phonetic))

    if metric in (MetricId.FREQUENCY, MetricId.BURSTINESS):
        values = _rel_freqs if metric is MetricId.FREQUENCY else _fano_factors
        r1, r2 = values(lex1, x_words), values(lex2, y_words)

        def ratio(rows):
            # min/max: scale-free, 1 when equal (including both 0), 0 when
            # exactly one side is 0.  Values are non-negative.
            lo = np.minimum.outer(r1[rows], r2)
            hi = np.maximum.outer(r1[rows], r2)
            return np.divide(lo, hi, out=np.ones_like(lo), where=hi != 0.0)

        return ScoreMatrix(x_words, y_words, _by_row_blocks(n1, n2, ratio))

    if metric is MetricId.TEMPORAL:
        c1, q1 = _spectrum_ranks(lex1, x_words)
        c2, q2 = _spectrum_ranks(lex2, y_words)

        def temporal(rows):
            # Spearman rho from the exact dot products, rescaled to [0, 1].
            num = c1[rows] @ c2.T
            denom = np.sqrt(np.multiply.outer(q1[rows], q2))
            defined = denom > 0.0
            rho = np.divide(num, denom, out=np.zeros_like(num), where=defined)
            # Cauchy-Schwarz equality on exact values: identical or exactly
            # reversed rankings, so use the exact endpoint.
            ends = defined & (q1[rows, None] == q2) & (np.abs(num) == q1[rows, None])
            rho[ends] = np.sign(num[ends])
            return (np.clip(rho, -1.0, 1.0, out=rho) + 1.0) / 2.0

        return ScoreMatrix(x_words, y_words, _by_row_blocks(n1, n2, temporal))

    dims = sorted(set(bridge.values()))
    dim_of = {d: i for i, d in enumerate(dims)}
    v1, norms1 = _associations(lex1, x_words, dim_of, len(dims))
    bridged = {ctx: dim_of[l1] for ctx, l1 in bridge.items()}
    v2, norms2 = _associations(lex2, y_words, bridged, len(dims))
    v2t = v2.T.tocsr()

    def cosine(rows):
        # CSR x CSR adds up each cell over the shared dimensions in index
        # order, so a cell does not depend on the universe or the block.
        num = (v1[rows] @ v2t).toarray()
        denom = np.multiply.outer(norms1[rows], norms2)
        out = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0)
        return np.clip(out, 0.0, 1.0, out=out)

    return ScoreMatrix(x_words, y_words, _by_row_blocks(n1, n2, cosine))

