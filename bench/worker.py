"""One benchmark step in a fresh interpreter: a set-up, or a run's operations.

Usage: ``python3 bench/worker.py '<spec as JSON>'``.  ``run.py`` starts it
with ``PYTHONPATH`` pointing at the checkout's ``src`` and reads the result
it writes to ``spec["result"]``.

Set-up steps write a workload's inputs: ``corpus`` a generated corpus,
``planted`` a saved planted matrix; ``import`` only imports the package.

The ``cli`` and ``reload`` steps repeat one workload operation in this
process: ``cli`` runs ``cogmatrix.cli.main`` on ``spec["argv"]`` plus
``--out``, ``reload`` loads a saved matrix and rescores, evaluates and
assigns it through the library.  After each operation, outside its timed region, the
outputs are checked and deleted.  With ``spec["trace"]`` the timing shims
are installed and record every second operation.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from shims import METHODS, Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT_KINDS = ("metric", "train", "method", "curve", "other")
METHOD_FILES = {f"{m}.tsv" for m in METHODS}


def _import_package():
    import cogmatrix.cli

    if not Path(cogmatrix.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cogmatrix imported from {cogmatrix.__file__}, not from {SRC}")
    return cogmatrix


def setup(spec: dict) -> dict:
    cogmatrix = _import_package()
    import inputs

    directory = Path(spec["dir"])
    if spec["step"] == "corpus":
        inputs.write_corpus(directory, spec["seed"], **spec["size"])
    elif spec["step"] == "planted":
        import numpy as np

        rows, cols, scores, gold = inputs.planted_scores(spec["seed"], **spec["size"])
        cogmatrix.save_matrix(cogmatrix.ScoreMatrix(rows, cols, scores), directory / "baseline.tsv")
        np.save(directory / "baseline.npy", scores)
        with open(directory / "gold.tsv", "w", encoding="utf-8", newline="\n") as f:
            f.writelines(f"{l1}\t{l2}\n" for l1, l2 in gold)
    return {}


def _run_cli(cogmatrix, spec: dict, out: Path) -> tuple[float, list[str]]:
    start = time.perf_counter()
    rc = cogmatrix.cli.main([*spec["argv"], "--out", str(out)])
    wall = time.perf_counter() - start
    return wall, ([] if rc == 0 else [f"exit status {rc}"]) + _check_manifest(out)


def _run_reload(cogmatrix, spec: dict, out: Path) -> tuple[float, list[str]]:
    import numpy as np

    with open(spec["gold"], encoding="utf-8") as f:
        gold = cogmatrix.GoldPairs(frozenset(tuple(line.rstrip("\n").split("\t")) for line in f))
    out.mkdir()
    start = time.perf_counter()
    matrix = cogmatrix.load_matrix(spec["matrix"])
    rescored = {m: cogmatrix.apply(m, matrix) for m in METHODS}
    rows = cogmatrix.compare_methods(rescored, gold, out_dir=None)
    assignment = cogmatrix.hungarian_max(matrix)
    curve = cogmatrix.max_assignment_curve(matrix, assignment, gold)
    rows.append(cogmatrix.ReportRow("max_assignment", curve.max_f1, curve.iap11))
    cogmatrix.save_report(rows, out / "report.tsv")
    wall = time.perf_counter() - start
    if np.array_equal(matrix.scores, np.load(spec["scores"])):
        return wall, []
    return wall, ["reloaded scores differ from the generated ones"]


def _check_report(path: Path, expected: list[str]) -> list[str]:
    if not path.is_file():
        return ["report.tsv missing"]
    problems = []
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    if sorted(r[0] for r in rows) != sorted(expected):
        problems.append(f"report rows {[r[0] for r in rows]}, expected {expected}")
    for row in rows:
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            values = []
        if len(values) != 2 or not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"report row {row} is not two values in [0, 1]")
    return problems


def _check_manifest(out: Path) -> list[str]:
    path = out / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    listed = json.loads(path.read_text(encoding="utf-8"))["outputs"]
    return [f"manifest lists missing output {n}" for n in listed if not (out / n).is_file()]


def _out_kind(name: str) -> str:
    if name.startswith("train_metric_"):
        return "train"
    if name.startswith("metric_"):
        return "metric"
    if name.startswith("curve_"):
        return "curve"
    if name in METHOD_FILES:
        return "method"
    return "other"


def _out_bytes(out: Path) -> dict[str, int]:
    sizes = dict.fromkeys(OUT_KINDS, 0)
    if out.is_dir():
        for path in out.iterdir():
            sizes[_out_kind(path.name)] += path.stat().st_size
    return sizes


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation that uses no cogmatrix code.

    The machine's speed drifts by up to 2x over minutes, and the operations
    drift with it.  Timed next to every operation, this gives ``wall_norm``
    (wall time / reference time), which keeps the drift out.
    """
    start = time.perf_counter()
    words = {f"w{i:06d}": (i * 7919) % 10007 for i in range(60_000)}
    sorted(words, key=words.__getitem__)
    x = 0
    for i in range(300_000):
        x += i * i
    return time.perf_counter() - start


def operations(spec: dict) -> dict:
    """Repeat the operation until ``spec["seconds"]`` would be exceeded."""
    cogmatrix = _import_package()
    run_op = _run_cli if spec["step"] == "cli" else _run_reload
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    work = Path(spec["work"])
    first: dict[str, bytes] = {}
    ops: list[dict] = []
    loop_start = time.perf_counter()
    longest = 0.0
    ref_before = reference()
    while True:
        out = work / f"out{len(ops)}"
        traced = tracer is not None and len(ops) % 2 == 1
        if tracer is not None:
            tracer.reset()
            tracer.enabled = traced
        start = time.perf_counter()
        try:
            wall, problems = run_op(cogmatrix, spec, out)
        except Exception:
            wall, problems = time.perf_counter() - start, [traceback.format_exc()]
        ref_after = reference()
        ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
        problems += _check_report(out / "report.tsv", spec["report_rows"])
        for name in spec["identical"]:
            path = out / name
            data = path.read_bytes() if path.is_file() else b""
            if first.setdefault(name, data) != data:
                problems.append(f"{name} differs from the first operation's")
        op = {"wall_s": wall, "ref_s": ref_s, "traced": traced, "problems": problems, "out": _out_bytes(out)}
        if traced:
            op["layers"] = tracer.summary(wall)
        ops.append(op)
        shutil.rmtree(out, ignore_errors=True)
        print(f"op {len(ops)}: traced={traced} wall_s={wall:.4f} ref_s={ref_s:.4f} "
              f"{'FAILED: ' + '; '.join(problems) if problems else 'ok'}", file=sys.stderr)
        longest = max(longest, time.perf_counter() - start)
        elapsed = time.perf_counter() - loop_start
        if len(ops) >= spec["min_ops"] and elapsed + longest > spec["seconds"]:
            break
        if elapsed + longest > spec["deadline"]:
            break
    return {"ops": ops, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = operations(spec) if spec["step"] in ("cli", "reload") else setup(spec)
    except Exception:
        traceback.print_exc()
        return 1
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
