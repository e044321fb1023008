"""Seeded input generators for the benchmark workloads.

``write_corpus`` writes one L1/L2 corpus in the ``cogmatrix.ingest`` file
formats: Zipf-distributed frequencies, Poisson daily counts and a fixed
number of co-occurrence contexts per word.  Gold L2 words are their L1 word
after 0-2 random edits, and gold partners share a frequency level, a burst
in time and translated contexts, so every metric carries some signal.

``planted_scores`` draws the dense matrix the reload workload saves and
reads back: a planted one-to-one relation among partnerless distractors,
min-max normalized to [0, 1].

Both are deterministic functions of their seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ALPHABET = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _random_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < n:
        length = int(rng.integers(4, 10))
        word = "".join(ALPHABET[rng.integers(0, 26, size=length)])
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _edit(rng: np.random.Generator, word: str) -> str:
    """``word`` after 0, 1 or 2 random substitutions, insertions or deletions."""
    chars = list(word)
    for _ in range(int(rng.integers(0, 3))):
        op = int(rng.integers(0, 3))
        pos = int(rng.integers(0, len(chars)))
        letter = str(ALPHABET[rng.integers(0, 26)])
        if op == 0:
            chars[pos] = letter
        elif op == 1:
            chars.insert(pos, letter)
        elif len(chars) > 3:
            del chars[pos]
    return "".join(chars)


def _zipf_counts(rng: np.random.Generator, n: int, low: np.ndarray, top: int) -> np.ndarray:
    """Zipf counts over a random ranking in which no index in ``low`` is among the ``top``."""
    order = rng.permutation(n)
    high = order[~np.isin(order, low)][:top]
    order = np.concatenate([high, order[~np.isin(order, high)]])
    counts = np.empty(n, dtype=np.int64)
    counts[order] = np.maximum(1, np.round(1e6 / np.arange(1, n + 1)))
    return counts


def _burst_profiles(rng: np.random.Generator, n: int, n_days: int) -> np.ndarray:
    """Per-word daily rate shapes with mean 1: a flat level plus one burst."""
    days = np.arange(n_days)[None, :]
    centre = rng.uniform(0, n_days, size=(n, 1))
    width = rng.uniform(3, 30, size=(n, 1))
    height = rng.uniform(0.5, 5.0, size=(n, 1))
    shape = 1.0 + height * np.exp(-(((days - centre) / width) ** 2))
    return shape / shape.mean(axis=1, keepdims=True)


def _write_side(
    directory: Path,
    side: int,
    words: list[str],
    counts: np.ndarray,
    daily: np.ndarray,
    contexts: list[list[tuple[str, int]]],
) -> None:
    with open(directory / f"l{side}.freq.tsv", "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#total {int(counts.sum()) * 2}\n")
        f.writelines(f"{w}\t{c}\n" for w, c in zip(words, counts.tolist()))
    with open(directory / f"l{side}.daily.tsv", "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#days {daily.shape[1]}\n")
        f.writelines(f"{w}\t{','.join(map(str, row))}\n" for w, row in zip(words, daily.tolist()))
    with open(directory / f"l{side}.cooc.tsv", "w", encoding="utf-8", newline="\n") as f:
        for w, ctx in zip(words, contexts):
            f.writelines(f"{w}\t{c}\t{n}\n" for c, n in ctx)


def write_corpus(
    directory: str | Path,
    seed: int,
    *,
    n_words: int,
    n_gold: int,
    n_top: int,
    n_days: int,
    n_contexts: int,
) -> None:
    """Write ``gold.tsv`` and ``l{1,2}.{freq,daily,cooc}.tsv`` into ``directory``.

    No gold word is among the ``n_top`` most frequent words of its side, so a
    large-mode universe with ``k = n_top`` has the same size for every seed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    l1 = _random_words(rng, n_words, set())
    gold_idx = rng.choice(n_words, size=n_gold, replace=False)
    taken: set[str] = set()
    partners: list[str] = []
    for i in gold_idx.tolist():
        word = _edit(rng, l1[i])
        while word in taken:
            word = _edit(rng, l1[i]) + str(ALPHABET[rng.integers(0, 26)])
        taken.add(word)
        partners.append(word)
    l2 = partners + _random_words(rng, n_words - n_gold, taken)
    # L2 index of each L1 gold word's partner (gold partners are l2[0:n_gold]).
    partner_of = {int(i): k for k, i in enumerate(gold_idx.tolist())}

    counts1 = _zipf_counts(rng, n_words, gold_idx, n_top)
    counts2 = _zipf_counts(rng, n_words, np.arange(n_gold), n_top)
    # Capped at the count of rank n_top + 1, so partners stay out of the top.
    counts2[:n_gold] = np.clip(
        np.round(counts1[gold_idx] * rng.lognormal(0.0, 0.3, size=n_gold)),
        1, np.round(1e6 / (n_top + 1)),
    ).astype(np.int64)

    shape1 = _burst_profiles(rng, n_words, n_days)
    shape2 = _burst_profiles(rng, n_words, n_days)
    shape2[:n_gold] = shape1[gold_idx]
    daily1 = rng.poisson(counts1[:, None] / n_days * shape1)
    daily2 = rng.poisson(counts2[:, None] / n_days * shape2)

    # Half of every word's contexts are gold L1 words, so they can pass the
    # seed bridge; a gold partner sees the translations of its L1 contexts.
    ctx_idx = np.where(
        rng.random((n_words, n_contexts)) < 0.5,
        gold_idx[rng.integers(0, n_gold, size=(n_words, n_contexts))],
        rng.integers(0, n_words, size=(n_words, n_contexts)),
    )
    ctx_count = rng.integers(1, 50, size=(n_words, n_contexts))
    contexts1 = [
        [(l1[c], n) for c, n in zip(row, cnt)]
        for row, cnt in zip(ctx_idx.tolist(), ctx_count.tolist())
    ]
    ctx_idx2 = rng.integers(0, n_words, size=(n_words, n_contexts))
    for i, k in partner_of.items():
        ctx_idx2[k] = [partner_of.get(c, c) for c in ctx_idx[i].tolist()]
    contexts2 = [
        [(l2[c], n) for c, n in zip(row, cnt)]
        for row, cnt in zip(ctx_idx2.tolist(), ctx_count.tolist())
    ]

    _write_side(directory, 1, l1, counts1, daily1, contexts1)
    _write_side(directory, 2, l2, counts2, daily2, contexts2)
    with open(directory / "gold.tsv", "w", encoding="utf-8", newline="\n") as f:
        f.writelines(f"{l1[i]}\t{l2[k]}\n" for i, k in sorted(partner_of.items()))


def planted_scores(
    seed: int, *, n_pairs: int, n_distractors: int
) -> tuple[list[str], list[str], np.ndarray, list[tuple[str, str]]]:
    """Labels, scores in [0, 1] and gold pairs of a planted one-to-one matrix."""
    n = n_pairs + n_distractors
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_pairs)
    scores = rng.normal(0.0, 0.3, size=(n, n))
    scores[np.arange(n_pairs), perm] = rng.normal(1.0, 0.3, size=n_pairs)
    scores = (scores - scores.min()) / (scores.max() - scores.min())
    rows = [f"r{i:05d}" for i in range(n)]
    cols = [f"c{j:05d}" for j in range(n)]
    gold = [(rows[i], cols[perm[i]]) for i in range(n_pairs)]
    return rows, cols, scores, gold
