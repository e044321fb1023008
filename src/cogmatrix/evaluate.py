"""Precision-recall evaluation of score matrices against gold pairs.

The curve protocol: sort every candidate pair by score descending (ties broken
by row label, then column label, as Python strings) and walk down the list;
the prefix of length k gives the point (threshold, hits/k, hits/|gold|).  Two
summaries are reported per curve, as properties of ``PRCurve``: ``max_f1``,
the best harmonic mean of precision and recall on the curve, and ``iap11``,
the 11-point interpolated average precision, the mean of the interpolated
precision at recall 0.0, 0.1, ..., 1.0.

``pr_curve`` materialises that sweep, one point per candidate pair.  Both
summaries depend only on the points where a gold pair is hit: between two
hits recall is flat and precision only falls, so no point between them beats
the hit that starts the run, neither for F1 nor for the interpolated
precision at any recall level.  ``hit_curve`` therefore returns only those
hit points plus the sweep's last, with summaries equal to ``pr_curve``'s bit
for bit.  It ranks each gold pair by counting the cells that precede it, one
block of rows at a time, sorting only the block's cells at or above the
lowest gold score, in O(B + G) memory per block in flight for
blocks of B cells and G gold pairs.  ``assign.max_assignment_curve`` sweeps
the assigned pairs alone, and both build their points from those counts
with one function.  ``compare_methods`` evaluates and writes curve files
with ``hit_curve``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .matrix import GoldPairs, ScoreMatrix, _blocks, _label_ranks, _read_only, _run_blocks
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
        """Maximum harmonic mean of precision and recall over the curve."""
        if len(self) == 0:
            raise ValueError("empty curve")
        p, r = self.precisions, self.recalls
        denom = p + r
        f1 = np.divide(2.0 * p * r, denom, out=np.zeros_like(denom), where=denom > 0)
        return float(f1.max())

    @property
    def iap11(self) -> float:
        """Mean interpolated precision at recall 0.0, 0.1, ..., 1.0."""
        if len(self) == 0:
            raise ValueError("empty curve")
        levels = np.arange(11) / 10.0
        return float(np.mean([interpolated_precision(self, r) for r in levels]))


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


def pr_curve(m: ScoreMatrix, gold: GoldPairs) -> PRCurve:
    """Full precision-recall curve over every candidate pair of the matrix.

    Recall is measured against all of ``gold``, so it reaches 1.0 exactly
    when every gold pair is a candidate.  Requires at least one gold pair
    among the candidates.
    """
    rows, cols = _gold_cells(m, gold)
    # Each cell moved to its (row label, column label) position, which a
    # stable sort keeps among ties.
    row_rank, col_rank = _label_ranks(m.row_labels), _label_ranks(m.col_labels)
    scores = np.empty_like(m.scores)
    scores[np.ix_(row_rank, col_rank)] = m.scores
    is_gold = np.zeros(m.shape, dtype=bool)
    is_gold[row_rank[rows], col_rank[cols]] = True
    order = np.argsort(-scores, axis=None, kind="stable")
    hits = np.cumsum(is_gold.flat[order])
    return PRCurve(scores.flat[order], hits / np.arange(1, hits.size + 1), hits / len(gold.pairs))


def hit_curve(m: ScoreMatrix, gold: GoldPairs) -> PRCurve:
    """The points of ``pr_curve(m, gold)`` where a gold pair is hit, plus its last.

    A gold cell's rank is one plus the count of cells before it in the sweep.
    Rows are walked in label order, in blocks that ``_run_blocks`` runs in
    parallel; each block adds its counts into the total.
    Two searches of the gold scores in a block's sorted scores count its
    higher cells, and its equal ones for gold rows after it.  Only the cells
    at or above the lowest gold score are sorted: one in-place partition
    first moves the block's lower ones to its front.  A lower cell precedes
    no gold cell and lies below every gold score, so dropping it lowers the
    block's size and both searches by one each, which leaves every count as
    it was.  Only a gold cell tied within its own block compares cells: the
    equal ones in the block's earlier rows, and in its own row at a lower
    column label.
    """
    rows, cols = _gold_cells(m, gold)
    by_score = np.argsort(m.scores[rows, cols])  # sorted keys are searched faster
    rows, cols = rows[by_score], cols[by_score]
    row_rank, col_rank = m._labels.ranks
    row_order = np.argsort(row_rank)
    gold_scores, gold_pos, gold_col = m.scores[rows, cols], row_rank[rows], col_rank[cols]
    before = np.zeros(len(rows), dtype=np.int64)
    adding = threading.Lock()

    def count(block):
        cells = m.scores[row_order[block]].ravel()
        low = np.count_nonzero(cells < gold_scores[0])
        if low:  # at k - 1: ``partition(k)`` raises when every cell is below
            cells.partition(low - 1)
        cells = cells[low:]
        cells.sort()
        below = np.searchsorted(cells, gold_scores, side="left")
        upto = np.searchsorted(cells, gold_scores, side="right")
        part = cells.size - upto + np.where(gold_pos >= block.stop, upto - below, 0)
        inside = (gold_pos >= block.start) & (gold_pos < block.stop)
        tied = np.flatnonzero(inside & (upto - below > 1))
        block_scores = m.scores[row_order[block]] if tied.size else None
        for score in np.unique(gold_scores[tied]):  # one scan of the block per score
            same = tied[gold_scores[tied] == score]
            row = gold_pos[same] - block.start
            equal = block_scores[: row.max() + 1] == score
            per_row = np.count_nonzero(equal, axis=1)
            left = np.count_nonzero(equal[row] & (col_rank < gold_col[same, None]), axis=1)
            part[same] += np.cumsum(per_row)[row] - per_row[row] + left
        with adding:  # integer counts: their sum does not depend on the order
            np.add(before, part, out=before)

    _run_blocks(count, _blocks(*m.shape))
    return _hit_points(before, gold_scores, m.scores.min(), m.scores.size, len(gold.pairs))


def _hit_points(before, scores, lowest, n_cells: int, n_gold: int) -> PRCurve:
    """The points where a sweep down ``n_cells`` cells hits gold, plus its last at
    the ``lowest`` score: ``before[i]`` (all distinct) counts the cells swept
    before the i-th gold cell hit, whose score is ``scores[i]``."""
    order = np.argsort(before)
    hits = np.append(np.arange(1, len(order) + 1), len(order))
    positions = np.append(before[order] + 1, n_cells)
    thresholds = np.append(scores[order], lowest)
    return PRCurve(thresholds, hits / positions, hits / n_gold)


def interpolated_precision(curve: PRCurve, r: float) -> float:
    """Highest precision at any recall level >= r (0 when none exists)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("recall level must be in [0, 1]")
    qualifying = curve.precisions[curve.recalls >= r]
    if qualifying.size == 0:
        return 0.0
    return float(qualifying.max())


def compare_methods(
    matrices: Mapping[RescoreMethod | str, ScoreMatrix],
    gold: GoldPairs,
    out_dir: str | Path | None = None,
) -> list[ReportRow]:
    """Evaluate several method matrices against one gold set.

    Returns one (method, MaxF1, IAP11) row per matrix, ordered canonically
    (known methods first, extras in given order).  When ``out_dir`` is set, it
    is made, and a curve file with the ``hit_curve`` points written per method.
    """
    names = {key: key.value if isinstance(key, RescoreMethod) else str(key) for key in matrices}
    canonical = {method.value: i for i, method in enumerate(RescoreMethod)}
    rows = []
    for key in sorted(matrices, key=lambda k: canonical.get(names[k], len(canonical))):
        curve = hit_curve(matrices[key], gold)
        rows.append(ReportRow(names[key], curve.max_f1, curve.iap11))
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            save_curve(curve, Path(out_dir) / f"curve_{names[key]}.tsv", names[key])
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
