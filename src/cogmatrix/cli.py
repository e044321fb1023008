"""Command-line front end for the scoring / rescoring / evaluation pipeline.

Subcommands mirror the pipeline stages: ``synth``, ``score``, ``train``,
``combine``, ``rescore``, ``assign`` and ``eval``; ``pipeline`` runs them end
to end from the same step helpers.  Each flag is built from the
``PipelineConfig`` field it sets, which is also its key in an optional
``key = value`` file; flags win.  Every run writes a ``manifest.json``
recording the resolved configuration, SHA-256 digests of the input files,
and the tool version, so a run can be reproduced from its output directory
alone.

``pipeline`` writes the report, the curves, the assignment, the weights and
(synth only) the gold pairs.  The metric and rescored matrices (0.9 GB each
at k = 10^4) and the training matrices are written only with
``--keep-intermediates``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .assign import hungarian_max, max_assignment_curve, save_assignment
from .combine import (
    TrainingConfig,
    combine,
    load_weights,
    save_weights,
    train_weights,
    uniform_weights,
)
from .evaluate import ReportRow, compare_methods, save_curve, save_report
from .ingest import (UNIVERSE_MODES, build_universe, load_gold_pairs, load_lexicon, save_gold_pairs,
                     split_seed)
from .matrix import _check_fields, load_matrix, save_matrix
from .rescore import RescoreMethod, apply
from .scorers import MetricId, _check_inputs, score_all_pairs
from .synth import SynthConfig, generate

log = logging.getLogger("cogmatrix")


_CHOICES = {
    "source": ("files", "synth"),
    "mode": UNIVERSE_MODES,
    "weights": ("learned", "uniform"),
}


@dataclass
class PipelineConfig:
    """Resolved configuration; field names double as config-file keys."""

    source: str = "files"
    freq1: str | None = None
    daily1: str | None = None
    cooc1: str | None = None
    freq2: str | None = None
    daily2: str | None = None
    cooc2: str | None = None
    gold: str | None = None
    matrix: str | None = None
    matrices: str | None = None
    weights_file: str | None = None
    mode: str = "standard"
    k: int = 10_000
    metrics: str = "phonetic,frequency"
    methods: str = "baseline,rr,rr_fr_1step,rr_fr_2step"
    weights: str = "learned"
    seed: int = 13
    seed_fraction: float = 0.2
    assign: bool = True
    n_pairs: int = 300
    distractors: int = 0
    noise_sigma: float = SynthConfig.noise_sigma
    keep_intermediates: bool = False
    out: str = "."

    def __post_init__(self) -> None:
        # Checked as the config is resolved, before any input is read or output written.
        for key, ok, expected in (
            *((key, getattr(self, key) in values, f"one of {', '.join(values)}")
              for key, values in _CHOICES.items()),
            ("seed", self.seed >= 0, "a non-negative int"),
            ("k", self.mode != "large" or self.k >= 1, "an int >= 1 in large mode"),
            ("seed_fraction", 0.0 < self.seed_fraction < 1.0, "a number in (0, 1)"),
            ("n_pairs", self.n_pairs >= 1, "an int >= 1"),
            ("distractors", self.distractors >= 0, "an int >= 0"),
        ):
            if not ok:
                raise ValueError(f"config key {key!r}: expected {expected}, got {getattr(self, key)!r}")
        self.metric_ids()
        self.method_ids()
        _synth_config(self)

    def metric_ids(self) -> tuple[MetricId, ...]:
        return _parse_ids(MetricId, "metrics", self.metrics)

    def method_ids(self) -> tuple[RescoreMethod, ...]:
        return _parse_ids(RescoreMethod, "methods", self.methods)


def _parse_ids(enum, key: str, value: str) -> tuple:
    """The members of ``enum`` named in the comma-separated ``value`` of config
    key ``key``, each once, in the enum's order."""
    names = {tok.strip() for tok in value.split(",")} - {""}
    valid = [member.value for member in enum]
    if not names or not names <= set(valid):
        raise ValueError(f"config key {key!r}: expected one or more of {', '.join(valid)}, "
                         f"got {value!r}")
    return tuple(member for member in enum if member.value in names)


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
_TYPES = {"int": int, "float": float}


def _coerce(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    if ftype == "bool":
        if raw.lower() not in _BOOL_VALUES:
            raise ValueError(f"config key {key!r}: expected true/false, got {raw!r}")
        return _BOOL_VALUES[raw.lower()]
    try:
        return _TYPES.get(ftype, str)(raw)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected {ftype}, got {raw!r}") from None


def read_config_file(path: str | Path) -> dict:
    """Parse ``key = value`` lines; '#' comments and blank lines ignored."""
    path = Path(path)
    values: dict = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config-file values, then explicit flags."""
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    return PipelineConfig(**merged)


class RunWriter:
    """Tracks inputs/outputs of one command and writes the manifest; the output
    directory is made at the first ``out_path``, so a failed read leaves none."""

    def __init__(self, command: str, cfg: PipelineConfig):
        self.command = command
        self.cfg = cfg
        self.out_dir = Path(cfg.out)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def track_input(self, path: str | Path | None) -> Path | None:
        if path is None:
            return None
        path = Path(path)
        with open(path, "rb") as f:
            self.inputs[str(path)] = f"sha256:{hashlib.file_digest(f, 'sha256').hexdigest()}"
        return path

    def out_path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    def write_manifest(self) -> None:
        manifest = {
            "tool": "cogmatrix",
            "version": __version__,
            "command": self.command,
            # "out" is omitted: outputs are listed relative to the manifest's
            # own directory, so identical runs match byte for byte anywhere.
            "config": {
                name: getattr(self.cfg, name)
                for name in sorted(_FIELD_TYPES)
                if name != "out"
            },
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
        }
        path = self.out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")


def _require(cfg_value, flag: str):
    if cfg_value is None:
        raise ValueError(f"missing required option --{flag.replace('_', '-')} (or config key {flag!r})")
    return cfg_value


def _load_gold(run: RunWriter):
    return load_gold_pairs(_require(run.track_input(run.cfg.gold), "gold"))


def _load_side(run: RunWriter, cfg: PipelineConfig, side: int):
    paths = [getattr(cfg, f"{kind}{side}") for kind in ("freq", "daily", "cooc")]
    if paths[0] is None:
        return None
    return load_lexicon(*map(run.track_input, paths))


def _metric_matrix_name(metric: MetricId) -> str:
    return f"metric_{metric.value}.tsv"


def _load_corpus(run: RunWriter, cfg: PipelineConfig):
    """Gold pairs, both lexicon sides, the training seed split off the gold
    pairs, the evaluation remainder and the seed's context bridge (L2 word ->
    L1 word), each selected metric's inputs checked before anything is written."""
    gold = _load_gold(run)
    lexica = (_load_side(run, cfg, 1), _load_side(run, cfg, 2))
    seed, gold_eval = split_seed(gold, cfg.seed_fraction, cfg.seed)
    bridge = {l2: l1 for l1, l2 in seed.pairs}
    if cfg.mode == "large" and None in lexica:
        raise ValueError("large mode requires lexicons")
    for metric in cfg.metric_ids():
        _check_inputs(metric, *lexica, bridge)
    return gold, lexica, seed, gold_eval, bridge


def _require_seed(cfg: PipelineConfig, seed, gold) -> None:
    """Refuse to learn weights from an empty training seed, before anything is scored."""
    if not seed.pairs:
        raise ValueError(f"config key 'seed_fraction': {cfg.seed_fraction!r} of {len(gold)} gold "
                         "pairs leaves an empty training seed; raise it or use --weights uniform")


def _universe_matrices(run, cfg, lexica, bridge, universe_gold, save, prefix="", exclude=None):
    """A function that scores an active metric's matrix over the universe of
    ``universe_gold`` and, with ``save``, saves it as ``<prefix>metric_<name>.tsv``."""
    words = build_universe(*lexica, universe_gold, mode=cfg.mode, k=cfg.k, exclude=exclude)

    def score(metric: MetricId):
        matrix = score_all_pairs(metric, *words, *lexica, bridge)
        if save:
            save_matrix(matrix, run.out_path(prefix + _metric_matrix_name(metric)))
        return matrix

    return score


def _synth_config(cfg: PipelineConfig) -> SynthConfig:
    return SynthConfig(
        n_pairs=cfg.n_pairs,
        n_distractors_per_side=cfg.distractors,
        noise_sigma=cfg.noise_sigma,
        rng_seed=cfg.seed,
    )


def _rescore(run: RunWriter, method: RescoreMethod, matrix, save: bool):
    """Rescore ``matrix`` with ``method``; with ``save``, save it as ``<method>.tsv``."""
    rescored = apply(method, matrix)
    if save:
        save_matrix(rescored, run.out_path(f"{method.value}.tsv"))
    return rescored


def _assign(run: RunWriter, matrix, gold) -> ReportRow:
    """Save the maximum assignment of ``matrix`` and its curve; return its report row."""
    assignment = hungarian_max(matrix)
    curve = max_assignment_curve(matrix, assignment, gold)
    save_assignment(matrix, assignment, run.out_path("assignment.tsv"))
    save_curve(curve, run.out_path("curve_max_assignment.tsv"), "max_assignment")
    return ReportRow("max_assignment", curve.max_f1, curve.iap11)


def _evaluate(run: RunWriter, matrices: dict, gold) -> list[ReportRow]:
    """Report rows for ``matrices``; each one's curve is saved as ``curve_<name>.tsv``."""
    rows = compare_methods(matrices, gold, out_dir=run.out_dir)
    run.outputs += [f"curve_{row.method}.tsv" for row in rows]
    return rows


def _finish(run: RunWriter, rows: list[ReportRow]) -> None:
    save_report(rows, run.out_path("report.tsv"))
    for row in rows:
        print(f"{row.method}\t{row.max_f1:.4f}\t{row.iap11:.4f}")


def cmd_synth(run: RunWriter, args: argparse.Namespace) -> None:
    cfg = run.cfg
    matrix, gold = generate(_synth_config(cfg))
    save_matrix(matrix, run.out_path("matrix.tsv"))
    save_gold_pairs(
        gold,
        run.out_path("gold.tsv"),
        comments=(
            f"synth n_pairs={cfg.n_pairs} distractors={cfg.distractors} "
            f"noise_sigma={cfg.noise_sigma} seed={cfg.seed}",
        ),
    )


def cmd_score(run: RunWriter, args: argparse.Namespace) -> None:
    # The universe is built from the full gold file, so training pairs are
    # present as candidates.
    gold, lexica, _, _, bridge = _load_corpus(run, run.cfg)
    score = _universe_matrices(run, run.cfg, lexica, bridge, gold, save=True)
    for metric in run.cfg.metric_ids():
        score(metric)


def _metric_matrix_paths(matrices_dir: str) -> dict[MetricId, Path]:
    paths = {metric: Path(matrices_dir) / _metric_matrix_name(metric) for metric in MetricId}
    found = {metric: path for metric, path in paths.items() if path.exists()}
    if not found:
        raise ValueError(f"no metric_<name>.tsv matrices found in {matrices_dir}")
    return found


def cmd_train(run: RunWriter, args: argparse.Namespace) -> None:
    cfg = run.cfg
    paths = _metric_matrix_paths(_require(cfg.matrices, "matrices"))
    gold = _load_gold(run)
    seed, _ = split_seed(gold, cfg.seed_fraction, cfg.seed)
    _require_seed(cfg, seed, gold)
    matrices = {metric: load_matrix(run.track_input(path)) for metric, path in paths.items()}
    weights = train_weights(matrices, seed, TrainingConfig(rng_seed=cfg.seed))
    save_weights(weights, run.out_path("weights.tsv"))


def cmd_combine(run: RunWriter, args: argparse.Namespace) -> None:
    cfg = run.cfg
    paths = _metric_matrix_paths(_require(cfg.matrices, "matrices"))
    if cfg.weights == "uniform":
        weights = uniform_weights(paths)
    else:
        weights_path = cfg.weights_file or str(Path(cfg.matrices) / "weights.tsv")
        weights = load_weights(run.track_input(weights_path))
    unweighted = sorted(m.value for m in paths if m not in weights.weights)
    if unweighted:
        raise ValueError(f"no weight for metric {unweighted[0]!r}")
    unmatched = sorted(m.value for m in weights.weights if m not in paths)
    if unmatched:
        raise ValueError(f"no matrix for weighted metric {', '.join(map(repr, unmatched))}")
    # One metric matrix is loaded at a time, added in and dropped.
    baseline = combine(lambda m: load_matrix(run.track_input(paths[m])), weights)
    save_matrix(baseline, run.out_path("baseline.tsv"))


def cmd_rescore(run: RunWriter, args: argparse.Namespace) -> None:
    matrix = load_matrix(run.track_input(_require(run.cfg.matrix, "matrix")))
    for method in run.cfg.method_ids():
        _rescore(run, method, matrix, save=True)


def cmd_assign(run: RunWriter, args: argparse.Namespace) -> None:
    matrix = load_matrix(run.track_input(_require(run.cfg.matrix, "matrix")))
    _assign(run, matrix, _load_gold(run))


def cmd_eval(run: RunWriter, args: argparse.Namespace) -> None:
    gold = _load_gold(run)
    sources: dict[str, str] = {}
    for path in args.matrix_paths:
        name = Path(path).stem
        if name in sources:
            raise ValueError(
                f"matrices {sources[name]} and {path} share the name {name!r}; "
                "report rows and curve files are named by file stem"
            )
        sources[name] = path
    # Each stem names a report row and a curve file: refused before --out is made.
    _check_fields(tuple(sources), "method name not representable in a curve file")
    matrices = {name: load_matrix(run.track_input(path)) for name, path in sources.items()}
    _finish(run, _evaluate(run, matrices, gold))


def cmd_pipeline(run: RunWriter, args: argparse.Namespace) -> None:
    cfg = run.cfg
    keep = cfg.keep_intermediates

    if cfg.source == "synth":
        baseline, gold_eval = generate(_synth_config(cfg))
        save_gold_pairs(gold_eval, run.out_path("gold.tsv"))
    else:
        gold, lexica, seed, gold_eval, bridge = _load_corpus(run, cfg)
        if cfg.weights == "uniform":
            weights = uniform_weights(cfg.metric_ids())
        else:
            _require_seed(cfg, seed, gold)
            # Weights are fit on a universe over the full gold set (the seed
            # pairs must be present as candidates); evaluation below never
            # sees those matrices.
            train_cfg = replace(cfg, mode="standard")
            score = _universe_matrices(run, train_cfg, lexica, bridge, gold, keep, prefix="train_")
            weights = train_weights({m: score(m) for m in cfg.metric_ids()}, seed,
                                    TrainingConfig(rng_seed=cfg.seed))
        save_weights(weights, run.out_path("weights.tsv"))

        # Candidates for evaluation come from the eval split only: the seed
        # pairs were consumed by training and are not scored or counted, not
        # even as frequent words in the large-mode top k.  ``combine``
        # asks for one metric at a time, so each matrix is scored, added into
        # the baseline and dropped before the next one is scored.
        score = _universe_matrices(run, cfg, lexica, bridge, gold_eval, keep, exclude=seed)
        baseline = combine(score, weights)

    # Each method is rescored, saved if asked and evaluated before the next is built.
    rows = []
    for method in cfg.method_ids():
        rows += _evaluate(run, {method: _rescore(run, method, baseline, keep)}, gold_eval)
    if cfg.assign:
        try:
            rows.append(_assign(run, baseline, gold_eval))
        except MemoryError as exc:
            log.warning("skipping max assignment: %s", exc)
    _finish(run, rows)


_INPUTS = ("gold", "freq1", "daily1", "cooc1", "freq2", "daily2", "cooc2")
_UNIVERSE = ("mode", "k")
_SYNTH = ("n_pairs", "distractors", "noise_sigma")

# Subcommand -> (handler, help, the PipelineConfig fields it takes as flags
# besides --out and --seed).
_SUBCOMMANDS = {
    "synth": (cmd_synth, "generate a synthetic matrix and gold pairs", _SYNTH),
    "score": (cmd_score, "score all candidate pairs under each metric",
              (*_INPUTS, *_UNIVERSE, "metrics", "seed_fraction")),
    "train": (cmd_train, "learn combination weights from the seed split",
              ("seed_fraction", "matrices", "gold")),
    "combine": (cmd_combine, "combine metric matrices into the baseline matrix",
                ("matrices", "weights", "weights_file")),
    "rescore": (cmd_rescore, "rescore a matrix with the selected methods", ("matrix", "methods")),
    "assign": (cmd_assign, "maximum one-to-one assignment and its curve", ("matrix", "gold")),
    "eval": (cmd_eval, "precision-recall report for saved matrices", ("gold",)),
    "pipeline": (cmd_pipeline, "full run: score, train, combine, rescore, assign, eval",
                 (*_INPUTS, *_UNIVERSE, "seed_fraction", *_SYNTH,
                  "source", "metrics", "methods", "weights")),
}

_HELP = {
    "out": "output directory (default: current directory)",
    "seed": "seed for all randomized steps",
    "gold": "gold pairs file (l1<TAB>l2)",
    **{f"freq{side}": f"L{side} frequency file" for side in (1, 2)},
    **{f"daily{side}": f"L{side} daily counts file" for side in (1, 2)},
    **{f"cooc{side}": f"L{side} co-occurrence file" for side in (1, 2)},
    "mode": "candidate universe mode",
    "k": "top-k frequent words per side in large mode",
    "seed_fraction": "fraction of gold pairs reserved for training and the context bridge",
    "n_pairs": "planted pair count",
    "distractors": "partnerless words per side",
    "noise_sigma": "noise std dev",
    "source": "input source",
    "metrics": "comma-separated metric names",
    "methods": "comma-separated method names",
    "weights": "weighting scheme",
    "weights_file": "weights file for --weights learned",
    "matrix": "input matrix file",
    "matrices": "directory containing metric_<name>.tsv files",
}


def _add_flags(p: argparse.ArgumentParser, name: str) -> None:
    """Add subcommand ``name``'s flags to its parser ``p``."""
    p.add_argument("--config", help="key = value configuration file")
    for key in ("out", "seed", *_SUBCOMMANDS[name][2]):
        p.add_argument("--" + key.replace("_", "-"), type=_TYPES.get(_FIELD_TYPES[key]),
                       choices=_CHOICES.get(key), help=_HELP[key])
    if name == "eval":
        p.add_argument("matrix_paths", nargs="+", metavar="MATRIX", help="saved matrix files")
    if name == "pipeline":
        p.add_argument("--no-assign", dest="assign", action="store_false", default=None,
                       help="skip the maximum assignment stage")
        p.add_argument("--keep-intermediates", action="store_true", default=None,
                       help="also write the metric, training and rescored matrices")


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Every subcommand is registered with its name
    and help, but only the one ``argv`` names gets its flags: the top-level
    parser takes no option with a value, so its first token that does not
    start with '-' is the subcommand."""
    parser = argparse.ArgumentParser(
        prog="cogmatrix",
        description="Score, rescore, assign, and evaluate cross-language word-pair matrices.",
    )
    parser.add_argument("--version", action="version", version=f"cogmatrix {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    named = next((token for token in argv if not token.startswith("-")), None)
    for name, (_, help_text, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == named:
            _add_flags(p, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    handler = _SUBCOMMANDS[args.subcommand][0]
    try:
        run = RunWriter(args.subcommand, resolve_config(args))
        handler(run, args)
        run.write_manifest()
    except (ValueError, OSError, MemoryError) as exc:
        print(f"cogmatrix: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
