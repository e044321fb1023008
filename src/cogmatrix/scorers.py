"""Per-pair similarity metrics over candidate word pairs.

Five corpus-derived signals, each mapping a candidate (L1 word, L2 word) pair
to a similarity in [0, 1]:

* ``phonetic``   - normalized edit distance over the orthographic lemmas
* ``frequency``  - ratio of relative corpus frequencies
* ``temporal``   - rank correlation of daily-count DFT magnitude spectra
* ``burstiness`` - ratio of Fano factors (variance/mean of daily counts)
* ``context``    - cosine of positive-PMI association vectors projected
                   through a seed translation lexicon

Co-occurrence counts are consumed as produced upstream; the context-window
size is the data producer's choice (a small symmetric window is typical).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .ingest import LexiconSide
from .matrix import ScoreMatrix


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


def levenshtein(a: str, b: str) -> int:
    """Edit distance over unicode scalar values (insert/delete/substitute)."""
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


def phonetic_score(w1: str, w2: str) -> float:
    """1 - ED/max(|w1|, |w2|); two empty strings count as identical."""
    longer = max(len(w1), len(w2))
    if longer == 0:
        return 1.0
    return (longer - levenshtein(w1, w2)) / longer


def _ratio_similarity(a: float, b: float) -> float:
    # min/max ratio: scale-free, 1 when equal (including both 0), 0 when
    # exactly one side is 0.  Inputs are non-negative.
    hi = max(a, b)
    if hi == 0.0:
        return 1.0
    return min(a, b) / hi


def frequency_score(w1: str, lex1: LexiconSide, w2: str, lex2: LexiconSide) -> float:
    """Ratio of relative frequencies; both-unseen pairs score 1."""
    return _ratio_similarity(lex1.rel_freq(w1), lex2.rel_freq(w2))


def _fano_factor(daily: np.ndarray) -> float:
    mean = float(daily.mean()) if daily.size else 0.0
    if mean == 0.0:
        return 0.0
    return float(daily.var() / mean)


def burstiness_score(w1: str, lex1: LexiconSide, w2: str, lex2: LexiconSide) -> float:
    """Ratio of Fano factors of the two daily-count series."""
    return _ratio_similarity(_fano_factor(lex1.daily(w1)), _fano_factor(lex2.daily(w2)))


def _spectrum_rank_vector(daily: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Centered average-rank vector of the DFT magnitude spectrum, with its
    squared norm.

    The DC bin is dropped (it carries only raw frequency mass, which the
    frequency metric already covers).  Returns None for a degenerate
    (constant) spectrum, whose correlation is defined as 0.  Centered average
    ranks are quarter-integer-exact floats, so the dot products below are
    exact for any realistic series length.
    """
    mag = np.abs(np.fft.rfft(np.asarray(daily, dtype=np.float64)))[1:]
    ranks = rankdata(mag, method="average")
    centered = ranks - ranks.mean()
    sq_norm = float(centered @ centered)
    if sq_norm == 0.0:
        return None
    return centered, sq_norm


def _rank_correlation(
    u1: tuple[np.ndarray, float] | None, u2: tuple[np.ndarray, float] | None
) -> float:
    if u1 is None or u2 is None:
        return 0.0
    c1, q1 = u1
    c2, q2 = u2
    num = float(c1 @ c2)
    if q1 == q2 and abs(num) == q1:
        # Cauchy-Schwarz equality on exact values: identical or exactly
        # reversed rankings, so return the exact endpoint.
        return math.copysign(1.0, num)
    rho = num / math.sqrt(q1 * q2)
    return min(1.0, max(-1.0, rho))


def _check_days(lex1: LexiconSide, lex2: LexiconSide) -> None:
    if lex1.n_days != lex2.n_days:
        raise ValueError(f"daily series lengths differ: {lex1.n_days} vs {lex2.n_days}")
    if lex1.n_days < 4:
        raise ValueError("temporal metric requires daily series of length >= 4")


def temporal_score(w1: str, lex1: LexiconSide, w2: str, lex2: LexiconSide) -> float:
    """Spearman correlation of the DFT magnitude spectra, rescaled to [0, 1].

    The raw correlation lies in [-1, 1]; the returned value is (rho + 1) / 2
    so it combines on the same scale as the other metrics.
    """
    _check_days(lex1, lex2)
    u1 = _spectrum_rank_vector(lex1.daily(w1))
    u2 = _spectrum_rank_vector(lex2.daily(w2))
    rho = _rank_correlation(u1, u2)
    return (rho + 1.0) / 2.0


def _ppmi(lex: LexiconSide, word: str, ctx: str) -> float:
    n_wc = lex.cooc_profile(word).get(ctx, 0)
    if n_wc == 0:
        return 0.0
    total = lex.cooc_grand_total
    row = lex.cooc_word_totals[word]
    col = lex.cooc_context_totals[ctx]
    return max(0.0, math.log(n_wc * total / (row * col)))


def _bridge_dims(bridge: SeedLexicon) -> tuple[str, ...]:
    return tuple(sorted(set(bridge.mapping.values())))


def _l1_association(lex1: LexiconSide, word: str, dims: tuple[str, ...]) -> np.ndarray:
    return np.array([_ppmi(lex1, word, d) for d in dims], dtype=np.float64)


def _l2_association(
    lex2: LexiconSide, word: str, bridge: SeedLexicon, dims: tuple[str, ...]
) -> np.ndarray:
    dim_index = {d: i for i, d in enumerate(dims)}
    vec = np.zeros(len(dims), dtype=np.float64)
    for ctx in sorted(lex2.cooc_profile(word)):
        l1_dim = bridge.mapping.get(ctx)
        if l1_dim is not None:
            vec[dim_index[l1_dim]] += _ppmi(lex2, word, ctx)
    return vec


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.sqrt(a @ a))
    nb = float(np.sqrt(b @ b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(1.0, max(0.0, float(a @ b) / (na * nb)))


def context_score(
    w1: str,
    lex1: LexiconSide,
    w2: str,
    lex2: LexiconSide,
    bridge: SeedLexicon,
) -> float:
    """Cosine of PPMI association vectors over the bridge dimensions.

    The L2 word's co-occurrence profile is projected into L1 space through
    the bridge; context words without a bridge entry are dropped.
    """
    if not bridge.mapping:
        raise ValueError("context metric requires seed lexicon")
    dims = _bridge_dims(bridge)
    v1 = _l1_association(lex1, w1, dims)
    v2 = _l2_association(lex2, w2, bridge, dims)
    return _cosine(v1, v2)


def _ratio_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lo = np.minimum.outer(a, b)
    hi = np.maximum.outer(a, b)
    out = np.divide(lo, hi, out=np.zeros_like(lo), where=hi != 0.0)
    out[hi == 0.0] = 1.0
    return out


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

    Entry (i, j) equals the single-pair metric applied to (x_i, y_j); shared
    per-word statistics are computed once, so large universes avoid repeated
    spectrum and association work.
    """
    x_words = tuple(x_words)
    y_words = tuple(y_words)
    metric = MetricId(metric)

    if metric is MetricId.PHONETIC:
        out = np.empty((len(x_words), len(y_words)), dtype=np.float64)
        for i, x in enumerate(x_words):
            for j, y in enumerate(y_words):
                out[i, j] = phonetic_score(x, y)
        return ScoreMatrix(x_words, y_words, out)

    if lex1 is None or lex2 is None:
        raise ValueError(f"{metric.value} metric requires lexicon statistics")
    _check_inputs(metric, lex1, lex2)

    if metric is MetricId.FREQUENCY:
        r1 = np.array([lex1.rel_freq(x) for x in x_words], dtype=np.float64)
        r2 = np.array([lex2.rel_freq(y) for y in y_words], dtype=np.float64)
        return ScoreMatrix(x_words, y_words, _ratio_matrix(r1, r2))

    if metric is MetricId.BURSTINESS:
        b1 = np.array([_fano_factor(lex1.daily(x)) for x in x_words], dtype=np.float64)
        b2 = np.array([_fano_factor(lex2.daily(y)) for y in y_words], dtype=np.float64)
        return ScoreMatrix(x_words, y_words, _ratio_matrix(b1, b2))

    if metric is MetricId.TEMPORAL:
        _check_days(lex1, lex2)
        u1 = [_spectrum_rank_vector(lex1.daily(x)) for x in x_words]
        u2 = [_spectrum_rank_vector(lex2.daily(y)) for y in y_words]
        out = np.empty((len(x_words), len(y_words)), dtype=np.float64)
        for i in range(len(x_words)):
            for j in range(len(y_words)):
                out[i, j] = (_rank_correlation(u1[i], u2[j]) + 1.0) / 2.0
        return ScoreMatrix(x_words, y_words, out)

    if metric is MetricId.CONTEXT:
        if bridge is None or not bridge.mapping:
            raise ValueError("context metric requires seed lexicon")
        dims = _bridge_dims(bridge)
        v1 = [_l1_association(lex1, x, dims) for x in x_words]
        v2 = [_l2_association(lex2, y, bridge, dims) for y in y_words]
        out = np.empty((len(x_words), len(y_words)), dtype=np.float64)
        for i in range(len(x_words)):
            for j in range(len(y_words)):
                out[i, j] = _cosine(v1[i], v2[j])
        return ScoreMatrix(x_words, y_words, out)

    raise ValueError(f"unknown metric {metric!r}")
