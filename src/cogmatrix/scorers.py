"""Pair similarity metrics over a candidate universe.

Five corpus-derived signals map a candidate (L1 word, L2 word) pair to a
similarity in [0, 1].  :func:`score_all_pairs` is the one implementation of
each: it computes per-word features once, then runs one pairwise kernel.

* ``phonetic``   - normalized edit distance over the orthographic lemmas
                   (the Levenshtein DP, run for all L2 words at once)
* ``frequency``  - ratio of relative corpus frequencies (outer min/max)
* ``temporal``   - rank correlation of daily-count DFT magnitude spectra
                   (one matrix product of centred rank vectors)
* ``burstiness`` - ratio of Fano factors (variance/mean of daily counts)
* ``context``    - cosine of positive-PMI association vectors projected
                   through a seed translation lexicon (one CSR product)

The single-pair functions are 1x1 calls of :func:`score_all_pairs`, so a
matrix entry equals the single-pair score bit for bit.  Co-occurrence counts
are consumed as produced upstream; the context-window size is the data
producer's choice (a small symmetric window is typical).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .ingest import LexiconSide
from .matrix import ScoreMatrix, _by_row_blocks, _row_ranks_ge


class MetricId(str, enum.Enum):
    """Closed set of supported similarity metrics."""

    CONTEXT = "context"
    FREQUENCY = "frequency"
    TEMPORAL = "temporal"
    BURSTINESS = "burstiness"
    PHONETIC = "phonetic"


ALL_METRICS = tuple(MetricId)


@dataclass(frozen=True)
class SeedLexicon:
    """Translation bridge (L2 word -> L1 word) for context projection."""

    mapping: dict[str, str]

    @classmethod
    def from_pairs(cls, pairs) -> "SeedLexicon":
        """Build the bridge from (l1, l2) pairs, e.g. a training seed set."""
        return cls({l2: l1 for l1, l2 in pairs})

    def __len__(self) -> int:
        return len(self.mapping)


def _edit_distances(x_words: tuple[str, ...], y_words: tuple[str, ...]) -> np.ndarray:
    """Levenshtein distance (over unicode scalar values) of every (x, y) pair.

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


def _daily_rows(lex: LexiconSide, words: tuple[str, ...]) -> np.ndarray:
    """The daily counts of ``words`` as one float64 array, one row per word."""
    rows = np.array([lex.daily(w) for w in words], dtype=np.float64)
    return rows.reshape(len(words), lex.n_days)


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
    centred values and all their dot products are exact.
    """
    mags = np.abs(np.fft.rfft(_daily_rows(lex, words), axis=1))[:, 1:]
    ranks = (mags.shape[1] + 1 + _row_ranks_ge(-mags) - _row_ranks_ge(mags)) / 2
    centred = ranks - ranks.mean(axis=1, keepdims=True)
    return centred, np.einsum("ij,ij->i", centred, centred)


def _associations(
    lex: LexiconSide, words: tuple[str, ...], dim_of: dict[str, int], n_dims: int
) -> tuple[csr_matrix, np.ndarray]:
    """PPMI association vectors of ``words`` over the bridge dimensions, as
    CSR rows with sorted column indices, and their Euclidean norms.

    ``dim_of`` maps a context word of this side to its dimension; context
    words without one are dropped, and several context words sharing one
    dimension add up in context-word order.
    """
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


def _check_inputs(metric: MetricId, lex1: LexiconSide, lex2: LexiconSide) -> None:
    """Reject a side that lacks the data the metric reads: every word would
    get the same statistics, and the matrix would be constant."""
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


def score_all_pairs(
    metric: MetricId,
    x_words,
    y_words,
    lex1: LexiconSide | None = None,
    lex2: LexiconSide | None = None,
    bridge: SeedLexicon | None = None,
) -> ScoreMatrix:
    """Score every (x, y) pair of the universe under one metric.

    Words missing from the daily or co-occurrence data get a zero series or
    an empty profile.
    """
    x_words = tuple(x_words)
    y_words = tuple(y_words)
    metric = MetricId(metric)

    n1, n2 = len(x_words), len(y_words)
    if metric is MetricId.PHONETIC:
        x_len = np.array([len(x) for x in x_words], dtype=np.int64)
        y_len = np.array([len(y) for y in y_words], dtype=np.int64)

        def phonetic(rows):
            # 1 - ED/max(|x|, |y|); two empty strings count as identical.
            longer = np.maximum.outer(x_len[rows], y_len)
            dist = _edit_distances(x_words[rows], y_words)
            return np.divide(longer - dist, longer, out=np.ones(longer.shape), where=longer > 0)

        return ScoreMatrix(x_words, y_words, _by_row_blocks(n1, n2, phonetic))

    if lex1 is None or lex2 is None:
        raise ValueError(f"{metric.value} metric requires lexicon statistics")
    _check_inputs(metric, lex1, lex2)

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
        if lex1.n_days != lex2.n_days:
            raise ValueError(f"daily series lengths differ: {lex1.n_days} vs {lex2.n_days}")
        if lex1.n_days < 4:
            raise ValueError("temporal metric requires daily series of length >= 4")
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

    if metric is MetricId.CONTEXT:
        if bridge is None or not bridge.mapping:
            raise ValueError("context metric requires seed lexicon")
        dims = sorted(set(bridge.mapping.values()))
        dim_of = {d: i for i, d in enumerate(dims)}
        v1, norms1 = _associations(lex1, x_words, dim_of, len(dims))
        bridged = {ctx: dim_of[l1] for ctx, l1 in bridge.mapping.items()}
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

    raise ValueError(f"unknown metric {metric!r}")


def levenshtein(a: str, b: str) -> int:
    """Edit distance over unicode scalar values (insert/delete/substitute)."""
    return int(_edit_distances((a,), (b,))[0, 0])


def phonetic_score(w1: str, w2: str) -> float:
    """1 - ED/max(|w1|, |w2|); two empty strings count as identical."""
    return float(score_all_pairs(MetricId.PHONETIC, (w1,), (w2,)).scores[0, 0])


def frequency_score(w1: str, lex1: LexiconSide, w2: str, lex2: LexiconSide) -> float:
    """Ratio of relative frequencies; both-unseen pairs score 1."""
    return float(score_all_pairs(MetricId.FREQUENCY, (w1,), (w2,), lex1, lex2).scores[0, 0])


def burstiness_score(w1: str, lex1: LexiconSide, w2: str, lex2: LexiconSide) -> float:
    """Ratio of Fano factors of the two daily-count series."""
    return float(score_all_pairs(MetricId.BURSTINESS, (w1,), (w2,), lex1, lex2).scores[0, 0])


def temporal_score(w1: str, lex1: LexiconSide, w2: str, lex2: LexiconSide) -> float:
    """Spearman correlation of the DFT magnitude spectra, rescaled to [0, 1].

    The raw correlation lies in [-1, 1]; the returned value is (rho + 1) / 2
    so it combines on the same scale as the other metrics.
    """
    return float(score_all_pairs(MetricId.TEMPORAL, (w1,), (w2,), lex1, lex2).scores[0, 0])


def context_score(
    w1: str, lex1: LexiconSide, w2: str, lex2: LexiconSide, bridge: SeedLexicon
) -> float:
    """Cosine of PPMI association vectors over the bridge dimensions.

    The L2 word's co-occurrence profile is projected into L1 space through
    the bridge; context words without a bridge entry are dropped.
    """
    return float(score_all_pairs(MetricId.CONTEXT, (w1,), (w2,), lex1, lex2, bridge).scores[0, 0])
