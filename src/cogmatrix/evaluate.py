"""Precision-recall evaluation of score matrices against gold pairs.

The curve protocol: sort every candidate pair by score descending (ties broken
by row label, then column label, as Python strings) and walk down the list;
the prefix of length k gives the point (threshold, hits/k, hits/|gold|).  Two
summaries are reported per curve: MaxF1, the best harmonic mean of precision
and recall on the curve, and the 11-point interpolated average precision, the
mean of the interpolated precision at recall 0.0, 0.1, ..., 1.0.

``pr_curve`` materialises that sweep, one point per candidate pair.  Both
summaries depend only on the points where a gold pair is hit: between two
hits recall is flat and precision only falls, so no point between them beats
the hit that starts the run, neither for F1 nor for the interpolated
precision at any recall level.  ``hit_curve`` therefore computes only the
rank of each gold pair, by counting the cells that precede it, and returns
those hit points plus the sweep's last point; its summaries equal
``pr_curve``'s bit for bit.  ``compare_methods`` evaluates and writes curve
files with ``hit_curve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .matrix import GoldPairs, ScoreMatrix, _blocks, _read_only
from .rescore import RescoreMethod


@dataclass(frozen=True)
class PRCurve:
    """Ordered (threshold, precision, recall) triples along a score sweep."""

    thresholds: np.ndarray
    precisions: np.ndarray
    recalls: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.thresholds, dtype=np.float64)
        p = np.asarray(self.precisions, dtype=np.float64)
        r = np.asarray(self.recalls, dtype=np.float64)
        if not (t.ndim == p.ndim == r.ndim == 1) or not (len(t) == len(p) == len(r)):
            raise ValueError("thresholds, precisions, recalls must be 1-D and equal length")
        if len(r) and (np.diff(r) < 0).any():
            raise ValueError("recall must be non-decreasing along the sweep")
        if len(p) and ((p < 0).any() or (p > 1).any() or (r < 0).any() or (r > 1).any()):
            raise ValueError("precision and recall must lie in [0, 1]")
        for arr, name in ((t, "thresholds"), (p, "precisions"), (r, "recalls")):
            object.__setattr__(self, name, _read_only(arr))

    def __len__(self) -> int:
        return len(self.thresholds)

    @property
    def max_f1(self) -> float:
        return max_f1(self)

    @property
    def iap11(self) -> float:
        return iap11(self)


class ReportRow(NamedTuple):
    method: str
    max_f1: float
    iap11: float


def _gold_cells(m: ScoreMatrix, gold: GoldPairs) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the gold pairs that are candidates of ``m``."""
    if m.scores.size == 0:
        raise ValueError("empty matrix")
    gold_idx = [
        (m.row_index[l1], m.col_index[l2])
        for l1, l2 in gold.pairs
        if l1 in m.row_index and l2 in m.col_index
    ]
    if not gold_idx:
        raise ValueError("no gold pairs in candidate universe")
    rows, cols = zip(*gold_idx)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def _label_ranks(labels: tuple[str, ...]) -> np.ndarray:
    """Position of each label in Python string order, the tie order of every sweep."""
    ranks = np.empty(len(labels), dtype=np.int64)
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return ranks


def _sweep(scores: np.ndarray, is_gold: np.ndarray, n_gold: int) -> PRCurve:
    """The curve of cells listed in label order, which a stable sort keeps among ties."""
    order = np.argsort(-scores, kind="stable")
    hits = np.cumsum(is_gold[order])
    return PRCurve(scores[order], hits / np.arange(1, len(hits) + 1), hits / n_gold)


def pr_curve(m: ScoreMatrix, gold: GoldPairs) -> PRCurve:
    """Full precision-recall curve over every candidate pair of the matrix.

    Recall is measured against all of ``gold``, so it reaches 1.0 exactly
    when every gold pair is a candidate.  Requires at least one gold pair
    among the candidates.
    """
    rows, cols = _gold_cells(m, gold)
    # Each cell moved to its (row label, column label) position.
    row_rank, col_rank = _label_ranks(m.row_labels), _label_ranks(m.col_labels)
    scores = np.empty_like(m.scores)
    scores[np.ix_(row_rank, col_rank)] = m.scores
    is_gold = np.zeros(m.shape, dtype=bool)
    is_gold[row_rank[rows], col_rank[cols]] = True
    return _sweep(scores.ravel(), is_gold.ravel(), len(gold.pairs))


def hit_curve(m: ScoreMatrix, gold: GoldPairs) -> PRCurve:
    """The points of ``pr_curve(m, gold)`` where a gold pair is hit, plus its last.

    A cell precedes a gold cell when its score is higher, or equal with an
    earlier (row label, column label) position.  With the G gold cells sorted
    by (score ascending, label position descending), every cell precedes a
    prefix of that list, and the rank of gold cell j is one plus the number
    of cells whose prefix is longer than j.  The prefix lengths are counted
    per row block: cells whose score equals no gold score are counted from
    the block's sorted scores, and only blocks where some non-gold cell ties
    a gold score look up the label positions of their tied cells.  For blocks
    of B cells that takes O(N log B) time and O(G + B) memory, with no sort
    or index array over all N cells.  MaxF1 and IAP11 of the result equal
    those of ``pr_curve`` bit for bit.
    """
    rows, cols = _gold_cells(m, gold)
    n_rows, n_cols = m.shape
    n_cells = n_rows * n_cols
    row_rank, col_rank = _label_ranks(m.row_labels), _label_ranks(m.col_labels)

    gold_scores = m.scores[rows, cols]
    gold_keys = row_rank[rows] * n_cols + col_rank[cols]
    order = np.lexsort((-gold_keys, gold_scores))
    rows, gold_scores, gold_keys = rows[order], gold_scores[order], gold_keys[order]
    n_gold = len(order)
    new_group = np.concatenate(([True], gold_scores[1:] != gold_scores[:-1]))
    starts = np.flatnonzero(new_group)
    group_scores = gold_scores[starts]
    # Group index times n_cells plus the reversed label key orders the gold
    # list by one integer, and the cells tied with a gold score by the same
    # integer, so one sort of a block's tied cells places the whole gold list
    # among them with G binary searches.
    tie_keys = (np.cumsum(new_group) - 1) * n_cells + (n_cells - 1 - gold_keys)

    counts = np.zeros(n_gold + 1, dtype=np.int64)
    # Scratch memory is at most about a hundred bytes per cell of one block.
    for block_rows in _blocks(n_rows, n_cols):
        block = m.scores[block_rows]
        ordered = np.sort(block, axis=None)
        below = np.searchsorted(ordered, group_scores, side="left")
        upto = np.searchsorted(ordered, group_scores, side="right")
        # A cell scored strictly between two gold scores precedes exactly the
        # gold cells scored below it.
        counts[starts] += below - np.concatenate(([0], upto[:-1]))
        counts[n_gold] += ordered.size - upto[-1]
        gold_here = np.flatnonzero((rows >= block_rows.start) & (rows < block_rows.stop))
        if (upto - below).sum() == gold_here.size:
            # The only ties are the gold cells, and gold cell j's prefix is j.
            counts[gold_here] += 1
            continue
        # The cells tied with gold group g are the run below[g]:upto[g] of
        # the block's sorted order.
        sizes = upto - below
        runs = np.arange(sizes.sum()) + np.repeat(below - (np.cumsum(sizes) - sizes), sizes)
        tied = np.argsort(block, axis=None)[runs]
        reversed_keys = (n_cells - 1) - (row_rank[block_rows, None] * n_cols + col_rank)
        group_base = np.repeat(np.arange(sizes.size) * n_cells, sizes)
        tied_keys = np.sort(group_base + reversed_keys.ravel()[tied])
        # A tied cell's prefix is the number of gold keys below its key, so
        # the cells with a prefix longer than j are those above gold key j.
        longer = tied_keys.size - np.searchsorted(tied_keys, tie_keys, side="right")
        counts += -np.diff(longer, prepend=tied_keys.size, append=0)

    # Gold cell j is preceded by every cell whose prefix is longer than j.
    preceding = np.cumsum(counts[::-1])[::-1][1:]
    hits = np.append(np.arange(1, n_gold + 1), n_gold)
    positions = np.append(preceding[::-1] + 1, n_cells).astype(np.float64)
    return PRCurve(
        thresholds=np.append(gold_scores[::-1], m.scores.min()),
        precisions=hits / positions,
        recalls=hits / len(gold.pairs),
    )


def interpolated_precision(curve: PRCurve, r: float) -> float:
    """Highest precision at any recall level >= r (0 when none exists)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("recall level must be in [0, 1]")
    qualifying = curve.precisions[curve.recalls >= r]
    if qualifying.size == 0:
        return 0.0
    return float(qualifying.max())


def iap11(curve: PRCurve) -> float:
    """Mean interpolated precision at recall 0.0, 0.1, ..., 1.0."""
    if len(curve) == 0:
        raise ValueError("empty curve")
    levels = np.arange(11) / 10.0
    return float(np.mean([interpolated_precision(curve, r) for r in levels]))


def max_f1(curve: PRCurve) -> float:
    """Maximum harmonic mean of precision and recall over the curve."""
    if len(curve) == 0:
        raise ValueError("empty curve")
    p, r = curve.precisions, curve.recalls
    denom = p + r
    f1 = np.divide(2.0 * p * r, denom, out=np.zeros_like(denom), where=denom > 0)
    return float(f1.max())


def compare_methods(
    matrices: Mapping[RescoreMethod | str, ScoreMatrix],
    gold: GoldPairs,
    out_dir: str | Path | None = None,
) -> list[ReportRow]:
    """Evaluate several method matrices against one gold set.

    Returns one (method, MaxF1, IAP11) row per matrix, ordered canonically
    (known methods first, extras in given order).  When ``out_dir`` is set,
    a curve file with the ``hit_curve`` points is written per method.
    """
    def name_of(key) -> str:
        return key.value if isinstance(key, RescoreMethod) else str(key)

    canonical = [m.value for m in RescoreMethod]
    keys = sorted(
        matrices,
        key=lambda k: canonical.index(name_of(k)) if name_of(k) in canonical else len(canonical),
    )
    rows = []
    for key in keys:
        curve = hit_curve(matrices[key], gold)
        rows.append(ReportRow(name_of(key), max_f1(curve), iap11(curve)))
        if out_dir is not None:
            save_curve(curve, Path(out_dir) / f"curve_{name_of(key)}.tsv", name_of(key))
    return rows


def save_curve(curve: PRCurve, path: str | Path, method: str) -> None:
    """Write ``threshold<TAB>precision<TAB>recall`` lines for plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#prcurve v1 method={method}\n")
        for t, p, r in zip(curve.thresholds, curve.precisions, curve.recalls):
            f.write(f"{float(t)!r}\t{float(p)!r}\t{float(r)!r}\n")


def load_curve(path: str | Path) -> tuple[PRCurve, str]:
    """Read a curve file back; returns the curve and its method name."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="\n") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith("#prcurve v1 method="):
        raise ValueError(f"{path}:1: expected header '#prcurve v1 method=<name>'")
    method = lines[0][len("#prcurve v1 method="):]
    triples = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated values")
        try:
            triples.append(tuple(float(x) for x in fields))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparseable value in {line!r}") from None
    arr = np.array(triples, dtype=np.float64).reshape(-1, 3)
    return PRCurve(arr[:, 0], arr[:, 1], arr[:, 2]), method


def save_report(rows: list[ReportRow], path: str | Path) -> None:
    """Write ``method<TAB>maxf1<TAB>iap11`` lines, four decimal places."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for method, best_f1, avg_p in rows:
            f.write(f"{method}\t{best_f1:.4f}\t{avg_p:.4f}\n")
