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
precision at any recall level.  ``hit_curve`` therefore returns only those
hit points plus the sweep's last, with summaries equal to ``pr_curve``'s bit
for bit.  It ranks each gold pair by counting the cells that precede it, one
sorted block of rows at a time, in O(B + G) memory for blocks of B cells and
G gold pairs.  ``compare_methods`` evaluates and writes curve files with
``hit_curve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .matrix import GoldPairs, ScoreMatrix, _blocks, _label_ranks, _read_only
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

    A gold cell's rank is one plus the count of cells before it in the sweep.
    Rows are walked in label order, in blocks of about ``_BLOCK_CELLS`` cells.
    Two searches of the gold scores in a block's sorted scores count its
    higher cells, and its equal ones for gold rows after it.  Only a gold cell
    tied within its own block compares cells: the equal ones in the block's
    earlier rows, and in its own row at a lower column label.
    """
    rows, cols = _gold_cells(m, gold)
    by_score = np.argsort(m.scores[rows, cols])  # sorted keys are searched faster
    rows, cols = rows[by_score], cols[by_score]
    row_rank, col_rank = _label_ranks(m.row_labels), _label_ranks(m.col_labels)
    row_order = np.argsort(row_rank)
    gold_scores, gold_pos, gold_col = m.scores[rows, cols], row_rank[rows], col_rank[cols]
    before = np.zeros(len(rows), dtype=np.int64)
    for block in _blocks(*m.shape):
        cells = m.scores[row_order[block]].ravel()
        cells.sort()
        below = np.searchsorted(cells, gold_scores, side="left")
        upto = np.searchsorted(cells, gold_scores, side="right")
        before += cells.size - upto + np.where(gold_pos >= block.stop, upto - below, 0)
        inside = (gold_pos >= block.start) & (gold_pos < block.stop)
        tied = np.flatnonzero(inside & (upto - below > 1))
        block_scores = m.scores[row_order[block]] if tied.size else None
        for score in np.unique(gold_scores[tied]):  # one scan of the block per score
            same = tied[gold_scores[tied] == score]
            row = gold_pos[same] - block.start
            equal = block_scores[: row.max() + 1] == score
            per_row = np.count_nonzero(equal, axis=1)
            left = np.count_nonzero(equal[row] & (col_rank < gold_col[same, None]), axis=1)
            before[same] += np.cumsum(per_row)[row] - per_row[row] + left
    order = np.argsort(before)  # the counts are distinct, in sweep order
    hits = np.append(np.arange(1, len(order) + 1), len(order))
    positions = np.append(before[order] + 1, m.scores.size)
    thresholds = np.append(gold_scores[order], m.scores.min())
    return PRCurve(thresholds, hits / positions, hits / len(gold.pairs))


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
