"""Time the pipeline at k = 10^4, the paper's large-data regime.

Usage, from the root of a checkout:

    python3 scripts/scale.py --work /tmp/cogmatrix-scale

It writes a generated corpus (``bench/inputs.write_corpus`` with 11000 words
and 1000 gold pairs per side, k = 10^4) and runs two pipelines on it, each in
a child process, without and with ``--keep-intermediates``:

- ``corpus``: ``pipeline --source files --mode large --k 10000`` with all five
  metrics, learned weights, the default methods and assignment; the
  evaluation universe is 10777 x 10756;
- ``synth``: ``pipeline --source synth --n-pairs 10000``.

For every run it prints the ``MemAvailable`` it started with (what
``hungarian_max`` checks its negated copy against), the wall time, the child's
``ru_maxrss`` (what ``RUSAGE_CHILDREN`` reports for a lone child), the bytes
and files written, and the SHA-256 of ``report.tsv``.  A run's output directory is removed once
measured; its report is kept as ``<run>[-keep].report.tsv`` in ``--work``.
``--src`` runs the package of another checkout, e.g. a parent commit's, with
``--default-only`` when that checkout has no ``--keep-intermediates`` flag.

This is a manual measurement, not part of the test suite or the benchmark.
On a 2-core VM the four runs take about 4 minutes and peak at about 2.4 GiB;
the corpus run with ``--keep-intermediates`` writes 8.4 GB before its
directory is removed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from cogmatrix.assign import _mem_available  # noqa: E402
from inputs import write_corpus  # noqa: E402

K = 10_000
CORPUS_SIZE = {"n_words": 11000, "n_gold": 1000, "n_top": K, "n_days": 365, "n_contexts": 30}
METRICS = "phonetic,frequency,temporal,burstiness,context"


def corpus_argv(data: Path) -> list[str]:
    argv = ["pipeline", "--source", "files", "--seed", "1", "--mode", "large",
            "--k", str(K), "--metrics", METRICS, "--gold", str(data / "gold.tsv")]
    for side in (1, 2):
        for kind in ("freq", "daily", "cooc"):
            argv += [f"--{kind}{side}", str(data / f"l{side}.{kind}.tsv")]
    return argv


SYNTH_ARGV = ["pipeline", "--source", "synth", "--seed", "1", "--n-pairs", str(K)]


def run(src: Path, argv: list[str], out: Path, report_copy: Path) -> dict:
    """Run ``cogmatrix.cli`` on ``argv`` in a child process and measure it;
    its ``report.tsv`` is kept as ``report_copy``."""
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    available = _mem_available()
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "cogmatrix.cli", *argv, "--out", str(out)],
                             env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
    report = out / "report.tsv"
    result = {
        "status": os.waitstatus_to_exitcode(status),
        "avail_mib": available / 2**20,
        "wall_s": wall,
        "maxrss_mib": usage.ru_maxrss / 1024,
        "out_mb": sum(p.stat().st_size for p in files) / 1e6,
        "files": len(files),
        "report_sha256": hashlib.sha256(report.read_bytes()).hexdigest() if report.is_file() else "-",
    }
    if report.is_file():
        shutil.copyfile(report, report_copy)
    shutil.rmtree(out, ignore_errors=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", required=True, type=Path,
                        help="scratch directory for the corpus and the runs' outputs")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the cogmatrix package (default: this checkout's)")
    parser.add_argument("--default-only", action="store_true",
                        help="run only without --keep-intermediates")
    args = parser.parse_args()

    args.work.mkdir(parents=True, exist_ok=True)
    data = args.work / "corpus"
    if not (data / "gold.tsv").is_file():
        write_corpus(data, 1, **CORPUS_SIZE)
    plans = {"corpus": corpus_argv(data), "synth": SYNTH_ARGV}
    keep_flags = [[]] if args.default_only else [[], ["--keep-intermediates"]]

    print("run\tflags\tstatus\tavail_mib\twall_s\tmaxrss_mib\tout_mb\tfiles\treport_sha256")
    failed = False
    for name, argv in plans.items():
        for flags in keep_flags:
            label = f"{name}{'-keep' if flags else ''}"
            r = run(args.src, argv + flags, args.work / "out", args.work / f"{label}.report.tsv")
            failed |= r["status"] != 0
            print(f"{name}\t{' '.join(flags) or '-'}\t{r['status']}\t{r['avail_mib']:.0f}\t"
                  f"{r['wall_s']:.1f}\t{r['maxrss_mib']:.0f}\t{r['out_mb']:.1f}\t{r['files']}\t"
                  f"{r['report_sha256']}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
