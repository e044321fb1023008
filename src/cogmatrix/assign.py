"""Maximum-total one-to-one assignment over a score matrix.

Solves the assignment problem: pick min(n1, n2) pairs, no row or column used
twice, maximizing the summed score, unless its one copy of the matrix would
not fit in ``MemAvailable``.  Rank rescoring does better on planted matrices
with 3x partnerless distractors per side (``test_distractor_robustness``), but
on the generated corpus at k = 10^4 (one seed) assignment had the best MaxF1:
0.8512, against 0.8347 for ``rr_fr_1step``.

Its curve sweeps a threshold down over the chosen pairs, which are its cells,
and keeps the same points as every other curve: the gold hits and the last.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np

from .evaluate import PRCurve, _gold_cells, _hit_points
from .matrix import GoldPairs, ScoreMatrix


class ResourceLimitError(MemoryError):
    """Raised when an assignment's negated copy would exceed available memory."""


def _mem_available() -> float:
    """``MemAvailable`` in bytes, not seeing cgroups; ``math.inf`` if ``/proc/meminfo`` lacks it."""
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            return next(int(ln.split()[1]) * 1024 for ln in f if ln.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return math.inf


def hungarian_max(m: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-total assignment of size min(n1, n2): the ``(rows, cols)`` index
    arrays of its pairs in row order, whose scores are ``m.scores[rows, cols]``.

    Scores are negated into one copy for a solve that needs only O(n1 + n2)
    more; rectangular matrices assign every element of the shorter side.
    Raises ResourceLimitError, before SciPy loads, if the copy exceeds MemAvailable.
    """
    if m.n_rows < 1 or m.n_cols < 1:
        raise ValueError("assignment requires a non-empty matrix")
    if m.scores.nbytes > (available := _mem_available()):
        raise ResourceLimitError(f"matrix {m.n_rows}x{m.n_cols} needs {m.scores.nbytes} bytes "
                                 f"for its assignment copy; {available} bytes available")
    # The solver would transpose a tall negated copy into a second one;
    # negating the wide orientation into C order makes one copy in all.
    tall = m.n_rows > m.n_cols
    rows, cols = _linear_sum_assignment()(np.negative(m.scores.T if tall else m.scores, order="C"))
    if tall:
        rows, cols = cols, rows
    order = np.argsort(rows)
    return rows[order], cols[order]


@functools.cache
def _linear_sum_assignment():
    """SciPy's ``linear_sum_assignment``, loaded from its compiled module alone.

    The extension needs only numpy; importing it through ``scipy.optimize``
    loads that whole package first, about 0.37 s and 49 MiB in a fresh
    process on a 2-vCPU VM.  It is registered under its own name, so a later
    ``import scipy.optimize`` re-exports this same function.  A SciPy whose
    ``_lsap`` is missing or not compiled gets the public import.
    """
    optimize = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "optimize")
    spec = importlib.machinery.PathFinder.find_spec("scipy.optimize._lsap", [optimize])
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.linear_sum_assignment


def max_assignment_curve(
    m: ScoreMatrix, assignment: tuple[np.ndarray, np.ndarray], gold: GoldPairs
) -> PRCurve:
    """The curve of the sweep down the assigned pairs by score, ties in row-label
    order: as from ``hit_curve``, the points where it hits gold, plus its last.
    Like ``hit_curve``, it requires a gold pair among the candidates."""
    rows, cols = assignment
    gold_rows, gold_cols = _gold_cells(m, gold)
    gold_col = np.full(m.n_rows, -1, dtype=np.int64)
    gold_col[gold_rows] = gold_cols  # gold is one-to-one: at most one per row
    # Each row is assigned once, so row-label order is the whole tie order.
    scores = m.scores[rows, cols]
    order = np.lexsort((m._labels.ranks[0][rows], -scores))
    before = np.flatnonzero((gold_col[rows] == cols)[order])
    return _hit_points(before, scores[order][before], scores[order[-1]], len(rows), len(gold.pairs))


def save_assignment(
    m: ScoreMatrix, assignment: tuple[np.ndarray, np.ndarray], path: str | Path
) -> None:
    """Write ``row_label<TAB>col_label<TAB>score`` lines, rows in order."""
    rows, cols = assignment
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for i, j, score in zip(rows.tolist(), cols.tolist(), m.scores[rows, cols].tolist()):
            f.write(f"{m.row_labels[i]}\t{m.col_labels[j]}\t{score!r}\n")
