"""Benchmark for cogmatrix: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus-pipeline --seed 1 --seconds 30 --trace 0

A run sets up the workload's inputs ``SETUP_REPS`` times (once when traced),
each time in a fresh interpreter that imports the package from ``src``.  Then
one more fresh interpreter repeats the workload operation until ``--seconds``
would be exceeded (at least ``MIN_OPS`` times) and checks every operation's
outputs; see ``worker.py``.  The last line of standard output is one JSON object; its
metrics are the end-to-end ones with ``--trace 0`` and the per-layer ones,
taken from timing shims (see ``shims.py``), with ``--trace 1``.  Working files
live under ``.bench_work/`` in the checkout and are removed at the end.
See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from shims import METHODS, counter_names, span_names  # noqa: E402
from worker import OUT_KINDS, reference  # noqa: E402

SETUP_REPS = 3
# setup_s is given in seconds on a machine on which ``reference()`` takes
# REF_S seconds, about its median on a 2-vCPU Xeon VM.
REF_S = 0.1
# The first operation of a run warms caches and lazy imports; it is checked
# but not timed.  MIN_OPS counts it.
MIN_OPS = 3
# Operations stop before this many seconds into the run, and every step is
# killed at STEP_TIMEOUT_S, so a run ends within 180 s.
DEADLINE_S = 150.0
STEP_TIMEOUT_S = 170.0

METRICS = "phonetic,frequency,temporal,burstiness,context"
PIPELINE_ROWS = ["baseline", "rr", "rr_fr_1step", "rr_fr_2step", "max_assignment"]
RELOAD_ROWS = [*METHODS, "max_assignment"]

SYNTH_SIZE = {"n_pairs": 75, "distractors": 175}
CORPUS_K = 60
CORPUS_SIZE = {"n_words": 1000, "n_gold": 80, "n_top": CORPUS_K, "n_days": 365, "n_contexts": 30}
PLANTED_SIZE = {"n_pairs": 150, "n_distractors": 450}


def synth_op(seed: int, data: Path) -> dict:
    argv = ["pipeline", "--source", "synth", "--seed", str(seed),
            "--n-pairs", str(SYNTH_SIZE["n_pairs"]),
            "--distractors", str(SYNTH_SIZE["distractors"])]
    return {"step": "cli", "argv": argv, "identical": ["report.tsv", "manifest.json"]}


def corpus_op(seed: int, data: Path) -> dict:
    argv = ["pipeline", "--source", "files", "--seed", str(seed),
            "--mode", "large", "--k", str(CORPUS_K), "--metrics", METRICS,
            "--gold", str(data / "gold.tsv")]
    for side in (1, 2):
        for kind in ("freq", "daily", "cooc"):
            argv += [f"--{kind}{side}", str(data / f"l{side}.{kind}.tsv")]
    return {"step": "cli", "argv": argv, "identical": ["report.tsv", "manifest.json"]}


def reload_op(seed: int, data: Path) -> dict:
    return {"step": "reload", "matrix": str(data / "baseline.tsv"), "gold": str(data / "gold.tsv"),
            "scores": str(data / "baseline.npy"), "identical": ["report.tsv"]}


@dataclass(frozen=True)
class Workload:
    setup_step: str
    setup_size: dict
    operation: Callable[[int, Path], dict]
    report_rows: list[str]


WORKLOADS = {
    "synth-pipeline": Workload("import", {}, synth_op, PIPELINE_ROWS),
    "corpus-pipeline": Workload("corpus", CORPUS_SIZE, corpus_op, PIPELINE_ROWS),
    "reload-compare": Workload("planted", PLANTED_SIZE, reload_op, RELOAD_ROWS),
}

END_TO_END_UNITS = {
    "wall_norm": "ref", "peak_rss_mib": "MiB", "out_mib": "MiB", "ok_frac": "ratio", "setup_s": "s",
}


def wall_norm(ops: list[dict]) -> float:
    """Median over ``ops`` of wall time ÷ the reference time measured next to it."""
    return statistics.median(op["wall_s"] / op["ref_s"] for op in ops)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in span_names()}
    units["cli.self_s"] = "s"
    for name in counter_names():
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units["evaluate.points_per_gold"] = "ratio"
    units.update({f"out.{kind}.bytes": "bytes" for kind in OUT_KINDS})
    units["trace.wall_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


class StepError(RuntimeError):
    pass


def run_step(spec: dict, result_path: Path, timeout: float) -> dict:
    """Run one worker step in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(dict.fromkeys(THREAD_ENV, WORKER_THREADS))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"),
             json.dumps({**spec, "result": str(result_path)})],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise StepError(f"step {spec['step']!r} timed out after {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise StepError(f"step {spec['step']!r} failed with status {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.name.encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def set_up(
    wl: Workload, seed: int, work: Path, reps: int, run_start: float
) -> tuple[list[float], list[float]]:
    """Generate the inputs ``reps`` times into ``work/inputs<i>``.

    Returns the set-up seconds of each, and the reference times measured
    before the first set-up and after each one.
    """
    times, refs, digests = [], [reference()], []
    for i in range(reps):
        directory = work / f"inputs{i}"
        directory.mkdir(parents=True)
        spec = {"step": wl.setup_step, "seed": seed, "size": wl.setup_size, "dir": str(directory)}
        start = time.monotonic()
        run_step(spec, work / "setup.json", STEP_TIMEOUT_S - (start - run_start))
        times.append(time.monotonic() - start)
        refs.append(reference())
        digests.append(tree_digest(directory))
    if len(set(digests)) != 1:
        raise StepError("one seed generated different inputs")
    return times, refs


def end_to_end_metrics(result: dict, setup_times: list[float], setup_refs: list[float]) -> dict:
    """End-to-end figures of a run.

    ``setup_s`` is the median set-up time scaled by REF_S ÷ the median of all
    the run's reference times, so that the machine's drift in speed between
    runs, which is larger than the bound, stays out of it.
    """
    ops = result["ops"]
    timed = ops[1:]
    ok = sum(not op["problems"] for op in ops)
    values = {
        "wall_norm": wall_norm(timed),
        "peak_rss_mib": result["maxrss_kib"] / 1024,
        "out_mib": statistics.median(sum(op["out"].values()) for op in timed) / 2**20,
        "ok_frac": ok / len(ops),
        "setup_s": statistics.median(setup_times) * REF_S
        / statistics.median([*setup_refs, *(op["ref_s"] for op in ops)]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(result: dict) -> dict:
    """Layer figures of the traced operation with the median wall time."""
    timed = result["ops"][1:]
    traced = [op for op in timed if op["traced"]]
    untraced = [op for op in timed if not op["traced"]]
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    if traced:
        op = sorted(traced, key=lambda op: op["wall_s"])[(len(traced) - 1) // 2]
        values.update({k: v for k, v in op["layers"].items() if k in values})
        values.update({f"out.{kind}.bytes": n for kind, n in op["out"].items()})
        values["trace.wall_s"] = op["wall_s"]
        values["trace_overhead_frac"] = wall_norm(traced) / wall_norm(untraced) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Steps run with single-threaded BLAS, so an operation's time does not depend
# on what else holds the second core.
WORKER_THREADS = "1"


def machine_facts() -> dict:
    """CPUs, RAM, last-level cache and thread-count settings of this machine."""
    facts: dict = {"nproc": len(os.sched_getaffinity(0))}
    facts.update(dict.fromkeys(THREAD_ENV, WORKER_THREADS))
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            line = next(line for line in f if line.startswith("MemTotal"))
        facts["mem_total_kib"] = int(line.split()[1])
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"),
                        key=lambda d: int((d / "level").read_text()))
        facts["llc"] = (caches[-1] / "size").read_text().strip() if caches else None
    except (OSError, StopIteration, ValueError):
        pass
    return facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cogmatrix" / "__init__.py").is_file():
        print(f"bench: no cogmatrix sources under {SRC}", file=sys.stderr)
        return 2

    print(f"bench: machine {json.dumps(machine_facts())}", file=sys.stderr)
    # On SIGTERM, unwind: subprocess.run kills the running step and the
    # working files are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = WORKLOADS[args.workload]
    run_start = time.monotonic()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, setup_refs = set_up(
            wl, args.seed, work, 1 if args.trace else SETUP_REPS, run_start
        )
        elapsed = time.monotonic() - run_start
        spec = {
            **wl.operation(args.seed, work / "inputs0"),
            "report_rows": wl.report_rows,
            "trace": bool(args.trace),
            "work": str(work),
            "seconds": args.seconds,
            "min_ops": MIN_OPS,
            "deadline": DEADLINE_S - elapsed,
        }
        result = run_step(spec, work / "ops.json", STEP_TIMEOUT_S - elapsed)
    except StepError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    ops = result["ops"]
    failed = sum(bool(op["problems"]) for op in ops)
    print(f"bench: median set-up s {statistics.median(setup_times):.4f}, "
          f"median wall_s {statistics.median(op['wall_s'] for op in ops[1:]):.4f}, "
          f"median ref_s {statistics.median(op['ref_s'] for op in ops[1:]):.4f}", file=sys.stderr)
    metrics = per_layer_metrics(result) if args.trace else end_to_end_metrics(result, setup_times, setup_refs)
    for name, m in metrics.items():
        print(f"{args.workload}\t{name}\t{m['value']!r}\t{m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
