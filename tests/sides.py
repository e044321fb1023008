"""Lexicon sides built from per-word dicts, the way tests write statistics,
and one pair's score."""

import numpy as np
from scipy.sparse import csr_matrix

from cogmatrix import LexiconSide, score_all_pairs


def lexicon_side(words, total_tokens, freq, daily=None, cooc=None, n_days=0):
    """A side with ``daily`` (word -> series) as its daily-count rows and
    ``cooc`` (word -> {context: count}) as its co-occurrence rows, each row's
    entries in profile order; contexts are numbered in order of appearance."""
    daily, cooc = daily or {}, cooc or {}
    contexts = list(dict.fromkeys(c for profile in cooc.values() for c in profile))
    indices, data, indptr = [], [], [0]
    for profile in cooc.values():
        indices += [contexts.index(c) for c in profile]
        data += list(profile.values())
        indptr.append(len(indices))
    rows = np.array([list(v) for v in daily.values()], dtype=np.int64).reshape(len(daily), n_days)
    return LexiconSide(
        words=tuple(words),
        total_tokens=total_tokens,
        freq=freq,
        n_days=n_days,
        daily_words=tuple(daily),
        daily_counts=rows,
        cooc_words=tuple(cooc),
        cooc_contexts=tuple(contexts),
        cooc_counts=csr_matrix(
            (np.array(data, dtype=np.int64), indices, indptr), shape=(len(cooc), len(contexts))
        ),
    )


def cooc_dicts(lex):
    """Every co-occurrence profile of ``lex``, by word."""
    return {w: lex.cooc_profile(w) for w in lex.cooc_words}


def pair_score(metric, w1, w2, lex1=None, lex2=None, bridge=None):
    """One pair's score: the 1x1 matrix of ``score_all_pairs``."""
    return score_all_pairs(metric, (w1,), (w2,), lex1, lex2, bridge).scores[0, 0]
