"""Dense labeled score matrices and their bit-exact binary persistence.

A ScoreMatrix holds one score per candidate (L1 word, L2 word) pair: rows are
L1 words, columns are L2 words.  Matrices are immutable after construction and
every downstream stage (combination, rescoring, assignment, evaluation)
consumes and produces them.

Matrix files (named ``*.tsv`` by the CLI) are in format v2:
``#cogmatrix v2 <n1> <n2>``, a line of tab-separated UTF-8 column labels, a
line of row labels, then the ``n1 * n2`` scores as raw little-endian float64,
row-major.  The raw bytes round-trip bit for bit, and equal matrices give
equal files.  Files of the earlier v1 text format are rejected by name.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

MATRIX_FORMAT_MAGIC = "#cogmatrix"
MATRIX_FORMAT_VERSION = "v2"
_HEADER_SHAPE = f"{MATRIX_FORMAT_MAGIC} {MATRIX_FORMAT_VERSION} <n1> <n2>"


def _check_labels(labels: tuple[str, ...], kind: str) -> None:
    seen: set[str] = set()
    for lab in labels:
        if lab in seen:
            raise ValueError(f"duplicate {kind} label: {lab!r}")
        seen.add(lab)


def _check_fields(fields: list[str] | tuple[str, ...], message: str) -> None:
    """Refuse the ``fields`` of a tab-separated file, before it is opened, if
    one holds a tab or a line feed: its reader would split them."""
    text = "".join(fields)
    if "\t" in text or "\n" in text:
        bad = next(field for field in fields if "\t" in field or "\n" in field)
        raise ValueError(f"{message}: {bad!r}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` with writing disabled; a view is copied first, so that no
    writable array shares its data."""
    if arr.flags.writeable:
        if not arr.flags.owndata:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _all_finite(a: np.ndarray) -> bool:
    """Whether no entry is NaN or infinite, without a temporary as large as
    ``a``: min and max propagate NaN, and an infinity is one of them."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


# Threads that run a blockwise kernel: one per CPU in the process's affinity
# mask, so ``taskset`` limits them.  BLAS thread settings do not.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Cells per block of a blockwise kernel (scoring, rescoring, evaluation),
# summed over the ``_WORKERS`` blocks in flight at once.  A kernel's
# temporaries are a few times one block, so it needs little memory beyond
# its result matrix.
_BLOCK_CELLS = 1 << 18


def _blocks(n: int, width: int) -> list[slice]:
    """Slices covering ``range(n)`` for items of ``width`` cells each: as few
    as keep a slice within about ``_BLOCK_CELLS / _WORKERS`` cells, at least
    one item long, and of equal length but for the last.  The largest blocks
    set a kernel's peak memory, so a short last block would only waste it.
    A count above one is rounded up to a multiple of ``_WORKERS``, so that
    every worker stays busy to the end of a few-block kernel."""
    n_blocks = max(1, -(-n * width * _WORKERS // _BLOCK_CELLS))
    if n_blocks > 1:
        n_blocks = -(-n_blocks // _WORKERS) * _WORKERS
    step = max(1, -(-n // n_blocks))
    return [slice(start, start + step) for start in range(0, n, step)]


_running = threading.local()


@cache
def _pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="cogmatrix-blocks")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _run_blocks(fn, blocks) -> None:
    """Call ``fn(block)`` for every block: the calling thread and
    ``_WORKERS - 1`` pool threads each take the next block when done with one.
    Kernels release the GIL in numpy and write rows or columns of their own,
    so no result depends on which thread ran a block.  One CPU, one block, or
    a call from inside a block (which could wait on itself) runs serially.
    Once a block raises, no block starts; the first exception is raised when
    every started block has finished."""
    blocks = list(blocks)
    if _WORKERS == 1 or len(blocks) <= 1 or getattr(_running, "block", False):
        for block in blocks:
            fn(block)
        return
    todo, take, failed = iter(blocks), threading.Lock(), []

    def work():
        _running.block = True
        try:
            while not failed:
                with take:
                    block = next(todo, None)
                if block is None:
                    return
                fn(block)
        except BaseException as exc:  # raised in the calling thread below
            failed.append(exc)
        finally:
            _running.block = False

    pool = _pool(_WORKERS - 1)
    helpers = [pool.submit(work) for _ in range(min(_WORKERS, len(blocks)) - 1)]
    work()
    for helper in helpers:
        helper.result()
    if failed:
        raise failed[0]


def _by_row_blocks(n1: int, n2: int, kernel, dtype=np.float64) -> np.ndarray:
    """The n1 x n2 matrix whose rows ``rows`` (a slice) are ``kernel(rows)``."""
    out = np.empty((n1, n2), dtype=dtype)

    def fill(rows):
        out[rows] = kernel(rows)

    _run_blocks(fill, _blocks(n1, n2))
    return out


def _rank_dtype(n: int):
    """Integer type of the ranks among ``n`` entries."""
    return np.int32 if n < 2**31 else np.int64


def _row_ranks_ge(a: np.ndarray) -> np.ndarray:
    """For every entry, the count of entries in its row that are >= it.

    ``a`` is float64 with no NaN, as ``ScoreMatrix`` guarantees.  In ascending
    order, count(>= x) is the row length ``n`` minus the position where x's
    tie group starts.  Each cell's key is its float's bits as an int64 that
    orders like the float (``-0.0`` made ``+0.0`` first, then the low 63
    bits flipped where the sign bit is set, which only a block holding a
    negative value needs), with the column in the low
    ``(n - 1).bit_length()`` bits; one int64 sort orders each row except
    among values that share the rest of the key (the prefix).

    * distinct, no sorted neighbours share a prefix: position p has rank
      n - p, scattered by one flat index from a contiguous copy of the ranks;
    * tied: the block is argsorted as floats and each tie group's start is
      carried along it by a running maximum.

    Ranks are int32 for rows under 2^31 entries.
    """
    a = np.ascontiguousarray(a)
    r, n = a.shape
    shift = (n - 1).bit_length()
    key = np.add(a, 0.0).view(np.int64)  # -0.0 + 0.0 is +0.0
    if key.min(initial=0) < 0:  # a negative value: rescored blocks have none
        sign = key >> 63
        sign &= 0x7FFF_FFFF_FFFF_FFFF
        key ^= sign
        del sign
    key &= -1 << shift
    key |= np.arange(n)
    key.sort(axis=1)
    prefix = key >> shift
    tied = (prefix[:, 1:] == prefix[:, :-1]).any()
    # Each temporary is dropped once used, which lowers the kernel's peak.
    del prefix
    if not tied:
        flat = np.bitwise_and(key, (1 << shift) - 1, out=key)
        flat += n * np.arange(r)[:, None]
        ranks = np.empty(a.shape, dtype=_rank_dtype(n))
        ranks.ravel()[flat.ravel()] = np.tile(np.arange(n, 0, -1, dtype=ranks.dtype), r)
        return ranks
    del key
    flat = np.argsort(a, axis=1)
    flat += n * np.arange(r)[:, None]
    srt = a.ravel()[flat]
    new = np.empty(a.shape, dtype=bool)
    new[:, :1] = True
    np.not_equal(srt[:, 1:], srt[:, :-1], out=new[:, 1:])
    del srt
    start = np.arange(n, dtype=_rank_dtype(n)) * new
    del new
    np.maximum.accumulate(start, axis=1, out=start)
    ranks = np.empty_like(start)
    ranks.ravel()[flat] = np.subtract(n, start, out=start)
    return ranks


def _label_ranks(labels: tuple[str, ...]) -> np.ndarray:
    """Position of each label in Python string order, the tie order of every sweep."""
    ranks = np.empty(len(labels), dtype=np.int64)
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return ranks


class _Labels:
    """The validated row and column labels of one candidate universe, with
    their indexes and read-only label-order ranks, each pair built on first
    use.  A matrix derived by ``ScoreMatrix.with_scores`` shares its input's."""

    def __init__(self, rows: tuple[str, ...], cols: tuple[str, ...]):
        _check_labels(rows, "row")
        _check_labels(cols, "column")
        self.rows, self.cols = rows, cols

    @cached_property
    def index(self) -> tuple[dict[str, int], dict[str, int]]:
        return tuple({lab: i for i, lab in enumerate(labels)} for labels in (self.rows, self.cols))

    @cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_read_only(_label_ranks(labels)) for labels in (self.rows, self.cols))


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Dense n1 x n2 matrix of finite pair scores with word labels.

    Immutable: the scores array is made read-only at construction, so
    instances are safe to share across threads.  The column ranks that the
    ``rr`` rescorers divide by are computed on first use, in column blocks
    run by ``_run_blocks`` on every CPU of the process, and kept as
    ``reverse_ranks`` (4 bytes per cell), so every method shares one pass.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        self._set_scores(self.scores)
        object.__setattr__(self, "_labels", _Labels(self.row_labels, self.col_labels))

    def _set_scores(self, scores) -> None:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError(f"scores must be 2-dimensional, got shape {scores.shape}")
        if scores.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(
                f"scores shape {scores.shape} does not match labels "
                f"({len(self.row_labels)}, {len(self.col_labels)})"
            )
        if not _all_finite(scores):
            raise ValueError("scores must be finite (no NaN or infinity)")
        object.__setattr__(self, "scores", _read_only(scores))

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.scores.shape

    @property
    def row_index(self) -> dict[str, int]:
        return self._labels.index[0]

    @property
    def col_index(self) -> dict[str, int]:
        return self._labels.index[1]

    @cached_property
    def reverse_ranks(self) -> np.ndarray:
        """Read-only rank of every cell down its column, computed once: the
        row ranks of a contiguous transposed copy of one block of columns at
        a time."""
        ranks = np.empty(self.shape, dtype=_rank_dtype(self.n_rows))

        def rank(cols):
            ranks[:, cols] = _row_ranks_ge(self.scores[:, cols].T.copy()).T

        _run_blocks(rank, _blocks(self.n_cols, self.n_rows))
        return _read_only(ranks)

    def with_scores(self, scores: np.ndarray) -> "ScoreMatrix":
        """New matrix with different scores and the same labels, whose
        validation, indexes and label-order ranks it shares."""
        m = object.__new__(ScoreMatrix)
        for name in ("row_labels", "col_labels", "_labels"):
            object.__setattr__(m, name, getattr(self, name))
        m._set_scores(scores)
        return m


@dataclass(frozen=True)
class GoldPairs:
    """Reference set of (L1 word, L2 word) pairs for a one-to-one relation."""

    pairs: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        pairs = frozenset(tuple(p) for p in self.pairs)
        l1_seen: set[str] = set()
        l2_seen: set[str] = set()
        for l1, l2 in sorted(pairs):
            if l1 in l1_seen:
                raise ValueError(f"gold pairs are not one-to-one: L1 word {l1!r} repeats")
            if l2 in l2_seen:
                raise ValueError(f"gold pairs are not one-to-one: L2 word {l2!r} repeats")
            l1_seen.add(l1)
            l2_seen.add(l2)
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def l1_words(self) -> set[str]:
        return {l1 for l1, _ in self.pairs}

    def l2_words(self) -> set[str]:
        return {l2 for _, l2 in self.pairs}


def normalize_min_max(m: ScoreMatrix) -> ScoreMatrix:
    """Affinely map scores onto [0, 1]; an all-equal matrix maps to 0.5.

    The map is order-preserving on every row and column, and it guarantees
    the non-negative scores that rank rescoring requires.
    """
    return m.with_scores(_normalize_in_place(m.scores.copy()))


def _normalize_in_place(scores: np.ndarray) -> np.ndarray:
    """``normalize_min_max`` of a freshly built score array, done in place so
    that it needs no second array.  Scores with a NaN or an infinity are
    left as they are, for ``ScoreMatrix`` to reject."""
    if scores.size == 0:
        raise ValueError("empty matrix")
    lo = float(scores.min())
    hi = float(scores.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return scores
    if hi == lo:
        scores.fill(0.5)
    else:
        scores -= lo
        scores /= hi - lo
    return scores


def save_matrix(m: ScoreMatrix, path: str | Path) -> None:
    """Write a matrix in binary format v2.

    Layout: header line ``#cogmatrix v2 <n1> <n2>``, a line of tab-separated
    column labels, a line of tab-separated row labels (both UTF-8), then
    exactly ``n1 * n2 * 8`` bytes of little-endian float64 scores in
    row-major order.  The file holds no padding or timestamps, so equal
    matrices give equal bytes, and ``load_matrix(save_matrix(m))`` reproduces
    the float64 bits exactly.
    """
    labels = (*m.row_labels, *m.col_labels)
    _check_fields(labels, "label not representable in matrix format")
    if "" in labels:
        raise ValueError("label not representable in matrix format: ''")
    body = np.ascontiguousarray(m.scores, dtype="<f8")
    with open(path, "wb") as f:
        head = f"{MATRIX_FORMAT_MAGIC} {MATRIX_FORMAT_VERSION} {m.n_rows} {m.n_cols}\n"
        f.write(head.encode("ascii"))
        f.write(("\t".join(m.col_labels) + "\n").encode("utf-8"))
        f.write(("\t".join(m.row_labels) + "\n").encode("utf-8"))
        f.write(body)


def load_matrix(path: str | Path) -> ScoreMatrix:
    """Read a matrix file in format v2, as written by save_matrix.

    Raises ValueError naming the file and the line at fault, also for a file
    of the earlier v1 text format; a body whose length disagrees with the
    header fails before any allocation.
    """
    path = Path(path)

    def bad(lineno: int, msg: str) -> ValueError:
        return ValueError(f"{path}:{lineno}: {msg}")

    with open(path, "rb") as f:
        first = f.readline()
        if not first:
            raise bad(1, f"empty file, expected {_HEADER_SHAPE!r} header")
        head = first.rstrip(b"\n").split(b" ")
        if (
            len(head) != 4
            or head[0] != MATRIX_FORMAT_MAGIC.encode("ascii")
            or head[1] not in (b"v1", b"v2")
        ):
            raise bad(1, f"expected header {_HEADER_SHAPE!r}")
        if head[1] == b"v1":
            raise bad(1, "matrix format v1 is no longer supported; only v2 is read")
        try:
            n1, n2 = int(head[2]), int(head[3])
        except ValueError:
            raise bad(1, f"non-integer dimensions in header: {first!r}") from None
        if n1 < 0 or n2 < 0:
            raise bad(1, "negative dimensions in header")
        return _read_v2(f, n1, n2, bad)


def _parse_labels(raw: bytes, lineno: int, count: int, kind: str, bad) -> tuple[str, ...]:
    try:
        line = raw[:-1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise bad(lineno, f"{kind} labels are not UTF-8: {exc}") from None
    labels = line.split("\t") if line != "" else []
    if len(labels) != count:
        raise bad(lineno, f"expected {count} {kind} labels, found {len(labels)}")
    if "" in labels:
        raise bad(lineno, f"empty {kind} label")
    try:
        _check_labels(labels, kind)
    except ValueError as exc:
        raise bad(lineno, str(exc)) from None
    return tuple(labels)


def _read_v2(f, n1: int, n2: int, bad) -> ScoreMatrix:
    raw_cols, raw_rows = f.readline(), f.readline()
    for lineno, raw in ((2, raw_cols), (3, raw_rows)):
        if not raw.endswith(b"\n"):
            raise bad(lineno, "missing or unterminated label line")
    # Checked before labels are parsed or the body allocated, so a wrong or
    # huge header costs no more than reading the two label lines.
    expected = n1 * n2 * 8
    found = os.fstat(f.fileno()).st_size - f.tell()
    if found != expected:
        raise bad(
            1,
            f"header declares a {n1}x{n2} matrix ({expected} body bytes) "
            f"but {found} bytes follow line 3",
        )
    col_labels = _parse_labels(raw_cols, 2, n2, "column", bad)
    row_labels = _parse_labels(raw_rows, 3, n1, "row", bad)
    scores = np.empty((n1, n2), dtype="<f8")
    if f.readinto(scores) != expected or f.read(1):
        raise bad(4, f"body changed size while reading; expected {expected} bytes")
    if not _all_finite(scores):
        i, j = np.unravel_index(int(np.argmin(np.isfinite(scores))), scores.shape)
        raise bad(
            4,
            f"non-finite score {float(scores[i, j])!r} at row {row_labels[i]!r}, "
            f"column {col_labels[j]!r}",
        )
    return ScoreMatrix(row_labels, col_labels, scores)
