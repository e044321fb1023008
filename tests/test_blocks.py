"""The block runner: any number of threads gives the one-thread results."""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from cogmatrix import (
    GoldPairs,
    MetricId,
    RescoreMethod,
    ScoreMatrix,
    WeightVector,
    apply,
    combine,
    forward_rank_matrix,
    hit_curve,
    score_all_pairs,
)
from cogmatrix import matrix
from sides import lexicon_side

SRC = Path(__file__).resolve().parent.parent / "src"


def tied_matrix(n1=37, n2=29, seed=3):
    """Scores on a coarse grid, so that rows, columns and gold cells tie."""
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random((n1, n2)), 1)
    return ScoreMatrix([f"r{i}" for i in range(n1)], [f"c{j}" for j in range(n2)], scores)


def gold_of(m, n=12):
    return GoldPairs(frozenset((m.row_labels[i], m.col_labels[(3 * i) % m.n_cols]) for i in range(n)))


def random_side(rng, prefix, contexts, n_words, n_days=10):
    words = ["".join(rng.choice(list("abcé"), rng.integers(1, 7))) + prefix + str(i)
             for i in range(n_words)]
    freq = {w: int(rng.integers(0, 50)) for w in words}
    daily = {w: rng.integers(0, 9, n_days).tolist() for w in words[: n_words - 3]}
    cooc = {w: {c: int(rng.integers(1, 6)) for c in rng.choice(contexts, 3, replace=False)}
            for w in words[2:]}
    lex = lexicon_side(words, sum(freq.values()) + 10, freq, daily, cooc, n_days)
    return tuple(words), lex


def universe():
    rng = np.random.default_rng(11)
    words1, lex1 = random_side(rng, "x", [f"x{i}" for i in range(6)], 23)
    words2, lex2 = random_side(rng, "y", [f"y{i}" for i in range(6)], 19)
    return words1, words2, lex1, lex2, {f"y{i}": f"x{i}" for i in range(4)}


def every_output():
    """Each blocked kernel's result on fresh inputs, so no cached column
    ranks carry over from one worker count to the next."""
    m = tied_matrix()
    gold = gold_of(m)
    out = {f"apply {method.value}": apply(method, tied_matrix()).scores for method in RescoreMethod}
    out["reverse_ranks"] = tied_matrix().reverse_ranks
    out["forward_rank_matrix"] = forward_rank_matrix(m)
    for method in RescoreMethod:
        curve = hit_curve(apply(method, m), gold)
        out[f"hit_curve {method.value}"] = np.array(
            [*curve.thresholds, *curve.precisions, *curve.recalls, curve.max_f1, curve.iap11]
        )
    words1, words2, lex1, lex2, bridge = universe()
    metrics = {metric: score_all_pairs(metric, words1, words2, lex1, lex2, bridge)
               for metric in MetricId}
    out.update({f"score {metric.value}": mm.scores for metric, mm in metrics.items()})
    weights = WeightVector({metric: 0.1 + k / 7 for k, metric in enumerate(MetricId)}, bias=-0.3)
    out["combine"] = combine(metrics.__getitem__, weights).scores
    return out


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(matrix, "_BLOCK_CELLS", 60)

    def with_workers(workers):
        monkeypatch.setattr(matrix, "_WORKERS", workers)
        return every_output()

    return with_workers


def test_outputs_equal_for_one_two_and_three_workers(small_blocks):
    serial = small_blocks(1)
    for workers in (2, 3):
        parallel = small_blocks(workers)
        # Every kernel, the smallest (23 x 19) included, ran more blocks than threads.
        assert len(matrix._blocks(19, 23)) > workers
        assert serial.keys() == parallel.keys()
        for name, want in serial.items():
            got = parallel[name]
            assert got.dtype == want.dtype, name
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (workers, name)


def test_every_block_runs_once_under_frequent_switches(monkeypatch):
    # More threads than CPUs, switching as often as the interpreter allows.
    monkeypatch.setattr(matrix, "_WORKERS", 8)
    monkeypatch.setattr(matrix, "_BLOCK_CELLS", 60)
    m = tied_matrix(60, 50)
    gold = gold_of(m, 40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [0] * 2000

        def once(i):
            runs[i] += 1

        matrix._run_blocks(once, range(2000))
        curve = hit_curve(m, gold)
    finally:
        sys.setswitchinterval(interval)
    assert runs == [1] * 2000
    monkeypatch.setattr(matrix, "_WORKERS", 1)
    serial = hit_curve(m, gold)
    assert np.array_equal(curve.precisions, serial.precisions)
    assert np.array_equal(curve.thresholds, serial.thresholds)


def test_error_is_raised_after_started_blocks_finish(monkeypatch):
    monkeypatch.setattr(matrix, "_WORKERS", 3)
    started, finished = [], []

    def block(i):
        started.append(i)
        if i == 1:
            raise RuntimeError("block 1 failed")
        time.sleep(0.05)
        finished.append(i)

    with pytest.raises(RuntimeError, match="block 1 failed"):
        matrix._run_blocks(block, range(30))
    assert sorted(started) == sorted([1, *finished])
    assert len(started) < 30  # no block starts once one has failed
    # The pool is still usable.
    squares = [0] * 10
    matrix._run_blocks(lambda i: squares.__setitem__(i, i * i), range(10))
    assert squares == [i * i for i in range(10)]


def run_child(code):
    """Run ``code`` in a fresh interpreter; a hung pool fails by the timeout
    rather than hanging the test run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_uncached_column_ranks_read_inside_blocks_do_not_deadlock():
    run_child(
        """
        import numpy as np
        from cogmatrix import matrix, rescore

        matrix._WORKERS, matrix._BLOCK_CELLS = 3, 60
        rng = np.random.default_rng(5)
        scores = np.round(rng.random((40, 30)), 1)

        def fresh():
            return matrix.ScoreMatrix([f"r{i}" for i in range(40)],
                                      [f"c{j}" for j in range(30)], scores)

        want = rescore.apply("rr", fresh()).scores
        # Every block reads the column ranks, which the first one computes
        # from inside the runner.
        m, out = fresh(), np.empty(scores.shape)
        matrix._run_blocks(lambda rows: rescore._rr(m, rows, out), matrix._blocks(40, 30))
        assert np.array_equal(out, want)
        print("ok")
        """
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_forked_child_runs_blocks():
    # The child has none of the parent's pool threads; it must not wait on them.
    run_child(
        """
        import os, signal
        from cogmatrix import matrix

        matrix._WORKERS = 2
        matrix._run_blocks(lambda i: None, range(4))
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            done = []
            matrix._run_blocks(done.append, range(4))
            os._exit(0 if sorted(done) == [0, 1, 2, 3] else 1)
        _, status = os.waitpid(pid, 0)
        print("ok" if os.waitstatus_to_exitcode(status) == 0 else status)
        """
    )


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask here")
def test_worker_count_is_the_affinity_mask_size():
    assert matrix._WORKERS == len(os.sched_getaffinity(0))
