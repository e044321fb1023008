"""Timing shims around the public cogmatrix layer functions.

The shims replace module attributes, so the package source is untouched.
Each function in ``LAYERS`` (the layer functions ``cogmatrix.cli`` imports
that the workloads call, plus ``pr_curve``) is wrapped wherever the CLI
module, the package or ``cogmatrix.evaluate`` holds it; ``compare_methods``
finds ``pr_curve`` and ``save_curve`` in the latter.  Spans stay in memory
until ``summary``.

A span's self time is its duration minus the durations of the spans it
directly caused; ``cli.self_s`` is the operation's wall time minus its
top-level spans, so the self times plus ``cli.self_s`` add up to the wall time.
"""

from __future__ import annotations

import functools
import os
import time

# Layer name -> wrapped functions.  ``score_all_pairs`` and ``apply`` spans
# are named after their metric or method argument instead.
LAYERS = {
    "ingest": (
        "load_lexicon", "load_gold_pairs", "split_seed", "build_universe", "save_gold_pairs",
    ),
    "scorers": ("score_all_pairs",),
    "combine": ("train_weights", "combine", "save_weights"),
    "synth": ("generate",),
    "rescore": ("apply",),
    "evaluate": ("compare_methods", "pr_curve", "save_curve", "save_report"),
    "assign": ("hungarian_max", "max_assignment_curve", "save_assignment"),
    "matrix": ("save_matrix", "load_matrix"),
}
METRICS = ("phonetic", "frequency", "temporal", "burstiness", "context")
METHODS = ("baseline", "rr", "fr", "rr_fr_1step", "rr_fr_2step")


def span_names() -> list[str]:
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            if fn == "score_all_pairs":
                names += [f"scorers.{m}" for m in METRICS]
            elif fn == "apply":
                names += [f"rescore.{m}" for m in METHODS]
            else:
                names.append(f"{layer}.{fn}")
    return names


def counter_names() -> list[str]:
    return [
        "ingest.load_lexicon.bytes",
        *(f"scorers.{m}.cells" for m in METRICS),
        *(f"rescore.{m}.cells" for m in METHODS),
        "rescore.cells",
        "evaluate.curve_points",
        "evaluate.points_per_gold",
        "matrix.save_matrix.bytes",
        "matrix.load_matrix.bytes",
    ]


def _enum_value(x) -> str:
    return getattr(x, "value", x)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None)


class Tracer:
    """Installed once per process; records only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, int | None, float, float]] = []
        self.counts: dict[str, float] = {name: 0 for name in counter_names()}
        self._stack: list[int] = []
        self._curves = 0
        self._gold = 0

    def install(self) -> None:
        import cogmatrix
        import cogmatrix.cli
        import cogmatrix.evaluate

        namespaces = (vars(cogmatrix.cli), vars(cogmatrix), vars(cogmatrix.evaluate))
        for layer, functions in LAYERS.items():
            for fn in functions:
                original = next((ns[fn] for ns in namespaces if fn in ns), None)
                if original is None:
                    continue
                shim = self._wrap(layer, fn, original)
                for ns in namespaces:
                    if ns.get(fn) is original:
                        ns[fn] = shim

    def _wrap(self, layer: str, fn: str, original):
        @functools.wraps(original)
        def shim(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            if fn == "score_all_pairs":
                name = f"scorers.{_enum_value(args[0])}"
            elif fn == "apply":
                name = f"rescore.{_enum_value(args[0])}"
            else:
                name = f"{layer}.{fn}"
            index = len(self.spans)
            self.spans.append((name, self._stack[-1] if self._stack else None, 0.0, 0.0))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, self.spans[index][1], start, end)
            self._count(fn, name, args, kwargs, result)
            return result

        return shim

    def _count(self, fn: str, name: str, args, kwargs, result) -> None:
        c = self.counts
        if fn == "load_lexicon":
            c["ingest.load_lexicon.bytes"] += _file_bytes(*args, *kwargs.values())
        elif fn == "score_all_pairs":
            c[f"{name}.cells"] += result.scores.size
        elif fn == "apply":
            c[f"{name}.cells"] += args[1].scores.size
            c["rescore.cells"] += args[1].scores.size
        elif fn == "compare_methods":
            self._gold = len(args[1])
        elif fn == "save_curve":
            self._curves += 1
            c["evaluate.curve_points"] += len(args[0])
        elif fn == "save_matrix":
            c["matrix.save_matrix.bytes"] += _file_bytes(args[1])
        elif fn == "load_matrix":
            c["matrix.load_matrix.bytes"] += _file_bytes(args[0])

    def summary(self, wall_s: float) -> dict[str, float]:
        """Self seconds per span name, ``cli.self_s`` and the work counters."""
        out = {f"{name}.s": 0.0 for name in span_names()}
        top_level = 0.0
        for name, parent, start, end in self.spans:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            if parent is None:
                top_level += end - start
            else:
                parent_name = self.spans[parent][0]
                out[f"{parent_name}.s"] -= end - start
        out["cli.self_s"] = wall_s - top_level
        out.update(self.counts)
        if self._curves and self._gold:
            out["evaluate.points_per_gold"] = self.counts["evaluate.curve_points"] / (
                self._curves * self._gold
            )
        return out
