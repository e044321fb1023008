"""Command-line front end for the scoring / rescoring / evaluation pipeline.

Subcommands mirror the pipeline stages: ``synth``, ``score``, ``train``,
``combine``, ``rescore``, ``assign``, ``eval``, and ``pipeline`` (everything
end to end).  Configuration comes from an optional ``key = value`` file plus
flags; flags win.  Every run writes a ``manifest.json`` recording the
resolved configuration, SHA-256 digests of the input files, and the tool
version, so a run can be reproduced from its output directory alone.
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
from .assign import ResourceLimitError, hungarian_max, max_assignment_curve, save_assignment
from .combine import TrainingConfig, combine, load_weights, save_weights, train_weights, uniform_weights
from .evaluate import ReportRow, compare_methods, save_curve, save_report
from .ingest import build_universe, load_gold_pairs, load_lexicon, save_gold_pairs, split_seed
from .matrix import load_matrix, save_matrix
from .rescore import RescoreMethod, apply
from .scorers import MetricId, SeedLexicon, score_all_pairs
from .synth import SynthConfig, generate

log = logging.getLogger("cogmatrix")

DEFAULT_METHODS = "baseline,rr,rr_fr_1step,rr_fr_2step"
DEFAULT_METRICS = "phonetic,frequency"


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
    metrics: str = DEFAULT_METRICS
    methods: str = DEFAULT_METHODS
    weights: str = "learned"
    regularization: float = 1e-3
    epochs: int = 200
    negative_ratio: int = 5
    seed: int = 13
    seed_fraction: float = 0.2
    assign: bool = True
    max_side: int = 20_000
    n_pairs: int = 300
    distractors: int = 0
    noise_sigma: float = 0.25
    signal_mu: float = 1.0
    out: str = "."

    def metric_ids(self) -> tuple[MetricId, ...]:
        ids = tuple(MetricId(tok) for tok in _split_csv(self.metrics))
        if not ids:
            raise ValueError("at least one metric must be active")
        return ids

    def method_ids(self) -> tuple[RescoreMethod, ...]:
        ids = tuple(RescoreMethod(tok) for tok in _split_csv(self.methods))
        if not ids:
            raise ValueError("at least one method must be selected")
        return ids

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            regularization=self.regularization,
            epochs=self.epochs,
            negative_ratio=self.negative_ratio,
            rng_seed=self.seed,
        )


def _split_csv(value: str) -> list[str]:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    if ftype == "bool":
        if raw.lower() not in _BOOL_VALUES:
            raise ValueError(f"config key {key!r}: expected true/false, got {raw!r}")
        return _BOOL_VALUES[raw.lower()]
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    return raw


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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


class RunWriter:
    """Tracks inputs/outputs of one command and writes the manifest."""

    def __init__(self, command: str, cfg: PipelineConfig):
        self.command = command
        self.cfg = cfg
        self.out_dir = Path(cfg.out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def track_input(self, path: str | Path | None) -> Path | None:
        if path is None:
            return None
        path = Path(path)
        self.inputs[str(path)] = _sha256(path)
        return path

    def out_path(self, name: str) -> Path:
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


def _load_side(run: RunWriter, cfg: PipelineConfig, side: int):
    freq = getattr(cfg, f"freq{side}")
    if freq is None:
        return None
    daily = getattr(cfg, f"daily{side}")
    cooc = getattr(cfg, f"cooc{side}")
    return load_lexicon(
        run.track_input(freq),
        run.track_input(daily),
        run.track_input(cooc),
    )


def _metric_matrix_name(metric: MetricId) -> str:
    return f"metric_{metric.value}.tsv"


def _load_corpus(run: RunWriter, cfg: PipelineConfig):
    """Gold pairs, both lexicon sides, the training seed split off the gold
    pairs, the evaluation remainder, and the seed's context bridge."""
    gold = load_gold_pairs(_require(run.track_input(cfg.gold), "gold"))
    lexica = (_load_side(run, cfg, 1), _load_side(run, cfg, 2))
    seed, gold_eval = split_seed(gold, cfg.seed_fraction, cfg.seed)
    return gold, lexica, seed, gold_eval, SeedLexicon.from_pairs(seed.pairs.pairs)


def _score_universe(run, cfg, lexica, bridge, universe_gold, prefix="", exclude=None) -> dict:
    """Score every active metric over the universe of ``universe_gold`` and
    save each matrix as ``<prefix>metric_<name>.tsv``."""
    x_words, y_words = build_universe(
        *lexica, universe_gold, mode=cfg.mode, k=cfg.k, exclude=exclude
    )
    matrices = {
        metric: score_all_pairs(metric, x_words, y_words, *lexica, bridge)
        for metric in cfg.metric_ids()
    }
    for metric, matrix in matrices.items():
        save_matrix(matrix, run.out_path(prefix + _metric_matrix_name(metric)))
    return matrices


def _synth_config(cfg: PipelineConfig) -> SynthConfig:
    return SynthConfig(
        n_pairs=cfg.n_pairs,
        n_distractors_per_side=cfg.distractors,
        noise_sigma=cfg.noise_sigma,
        signal_mu=cfg.signal_mu,
        rng_seed=cfg.seed,
    )


def cmd_synth(cfg: PipelineConfig) -> int:
    run = RunWriter("synth", cfg)
    matrix, gold = generate(_synth_config(cfg))
    save_matrix(matrix, run.out_path("matrix.tsv"))
    save_gold_pairs(
        gold,
        run.out_path("gold.tsv"),
        comments=(
            f"synth n_pairs={cfg.n_pairs} distractors={cfg.distractors} "
            f"noise_sigma={cfg.noise_sigma} signal_mu={cfg.signal_mu} seed={cfg.seed}",
        ),
    )
    run.write_manifest()
    return 0


def cmd_score(cfg: PipelineConfig) -> int:
    run = RunWriter("score", cfg)
    # The universe is built from the full gold file, so training pairs are
    # present as candidates.
    gold, lexica, _, _, bridge = _load_corpus(run, cfg)
    _score_universe(run, cfg, lexica, bridge, gold)
    run.write_manifest()
    return 0


def _load_metric_matrices(run: RunWriter, matrices_dir: str) -> dict:
    found = {}
    for metric in MetricId:
        path = Path(matrices_dir) / _metric_matrix_name(metric)
        if path.exists():
            found[metric] = load_matrix(run.track_input(path))
    if not found:
        raise ValueError(f"no metric_<name>.tsv matrices found in {matrices_dir}")
    return found


def cmd_train(cfg: PipelineConfig) -> int:
    run = RunWriter("train", cfg)
    matrices = _load_metric_matrices(run, _require(cfg.matrices, "matrices"))
    gold = load_gold_pairs(_require(run.track_input(cfg.gold), "gold"))
    seed, _ = split_seed(gold, cfg.seed_fraction, cfg.seed)
    weights = train_weights(matrices, seed, cfg.training_config())
    save_weights(weights, run.out_path("weights.tsv"))
    run.write_manifest()
    return 0


def cmd_combine(cfg: PipelineConfig) -> int:
    run = RunWriter("combine", cfg)
    matrices = _load_metric_matrices(run, _require(cfg.matrices, "matrices"))
    if cfg.weights == "uniform":
        weights = uniform_weights(matrices)
    else:
        weights_path = cfg.weights_file or str(Path(cfg.matrices) / "weights.tsv")
        weights = load_weights(run.track_input(weights_path))
    baseline = combine(matrices, weights)
    save_matrix(baseline, run.out_path("baseline.tsv"))
    run.write_manifest()
    return 0


def cmd_rescore(cfg: PipelineConfig) -> int:
    run = RunWriter("rescore", cfg)
    matrix = load_matrix(run.track_input(_require(cfg.matrix, "matrix")))
    for method in cfg.method_ids():
        save_matrix(apply(method, matrix), run.out_path(f"{method.value}.tsv"))
    run.write_manifest()
    return 0


def cmd_assign(cfg: PipelineConfig) -> int:
    run = RunWriter("assign", cfg)
    matrix = load_matrix(run.track_input(_require(cfg.matrix, "matrix")))
    gold = load_gold_pairs(_require(run.track_input(cfg.gold), "gold"))
    assignment = hungarian_max(matrix, max_side=cfg.max_side)
    save_assignment(matrix, assignment, run.out_path("assignment.tsv"))
    curve = max_assignment_curve(matrix, assignment, gold)
    save_curve(curve, run.out_path("curve_max_assignment.tsv"), "max_assignment")
    run.write_manifest()
    return 0


def cmd_eval(cfg: PipelineConfig, matrix_paths: list[str]) -> int:
    run = RunWriter("eval", cfg)
    gold = load_gold_pairs(_require(run.track_input(cfg.gold), "gold"))
    sources: dict[str, str] = {}
    for path in matrix_paths:
        name = Path(path).stem
        if name in sources:
            raise ValueError(
                f"matrices {sources[name]} and {path} share the name {name!r}; "
                "report rows and curve files are named by file stem"
            )
        sources[name] = path
    matrices = {name: load_matrix(run.track_input(path)) for name, path in sources.items()}
    rows = compare_methods(matrices, gold, out_dir=run.out_dir)
    for name in matrices:
        run.outputs.append(f"curve_{name}.tsv")
    save_report(rows, run.out_path("report.tsv"))
    run.write_manifest()
    for row in rows:
        print(f"{row.method}\t{row.max_f1:.4f}\t{row.iap11:.4f}")
    return 0


def cmd_pipeline(cfg: PipelineConfig) -> int:
    run = RunWriter("pipeline", cfg)
    methods = cfg.method_ids()

    if cfg.source == "synth":
        baseline, gold_eval = generate(_synth_config(cfg))
        save_gold_pairs(gold_eval, run.out_path("gold.tsv"))
    elif cfg.source == "files":
        gold, lexica, seed, gold_eval, bridge = _load_corpus(run, cfg)
        if cfg.weights == "uniform":
            weights = uniform_weights(cfg.metric_ids())
        else:
            # Weights are fit on a universe over the full gold set (the seed
            # pairs must be present as candidates); evaluation below never
            # sees those matrices.
            train_cfg = replace(cfg, mode="standard")
            train_matrices = _score_universe(run, train_cfg, lexica, bridge, gold, prefix="train_")
            weights = train_weights(train_matrices, seed, cfg.training_config())
        save_weights(weights, run.out_path("weights.tsv"))

        # Candidates for evaluation come from the eval split only: the seed
        # pairs were consumed by training and are not scored or counted, not
        # even as frequent words in the large-mode top k.
        matrices = _score_universe(run, cfg, lexica, bridge, gold_eval, exclude=seed.pairs)
        baseline = combine(matrices, weights)
    else:
        raise ValueError(f"unknown source {cfg.source!r}; expected 'files' or 'synth'")

    rescored = {}
    for method in methods:
        rescored[method] = apply(method, baseline)
        save_matrix(rescored[method], run.out_path(f"{method.value}.tsv"))

    rows = compare_methods(rescored, gold_eval, out_dir=run.out_dir)
    for method in rescored:
        run.outputs.append(f"curve_{method.value}.tsv")

    if cfg.assign:
        try:
            assignment = hungarian_max(baseline, max_side=cfg.max_side)
        except ResourceLimitError as exc:
            log.warning("skipping max assignment: %s", exc)
        else:
            save_assignment(baseline, assignment, run.out_path("assignment.tsv"))
            curve = max_assignment_curve(baseline, assignment, gold_eval)
            save_curve(curve, run.out_path("curve_max_assignment.tsv"), "max_assignment")
            rows.append(ReportRow("max_assignment", curve.max_f1, curve.iap11))

    save_report(rows, run.out_path("report.tsv"))
    run.write_manifest()
    for row in rows:
        print(f"{row.method}\t{row.max_f1:.4f}\t{row.iap11:.4f}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument("--seed", type=int, help="seed for all randomized steps")


def _add_universe(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("standard", "large"), help="candidate universe mode")
    parser.add_argument("--k", type=int, help="top-k frequent words per side in large mode")


def _add_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gold", help="gold pairs file (l1<TAB>l2)")
    for side in (1, 2):
        parser.add_argument(f"--freq{side}", help=f"L{side} frequency file")
        parser.add_argument(f"--daily{side}", help=f"L{side} daily counts file")
        parser.add_argument(f"--cooc{side}", help=f"L{side} co-occurrence file")


def _add_training(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed-fraction", dest="seed_fraction", type=float,
                        help="fraction of gold pairs reserved for training")
    parser.add_argument("--regularization", type=float, help="L2 regularization strength")
    parser.add_argument("--epochs", type=int, help="training epochs")
    parser.add_argument("--negative-ratio", dest="negative_ratio", type=int,
                        help="negative examples per positive")


def _add_synth(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-pairs", dest="n_pairs", type=int, help="planted pair count")
    parser.add_argument("--distractors", type=int, help="partnerless words per side")
    parser.add_argument("--noise-sigma", dest="noise_sigma", type=float, help="noise std dev")
    parser.add_argument("--signal-mu", dest="signal_mu", type=float, help="planted signal mean")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogmatrix",
        description="Score, rescore, assign, and evaluate cross-language word-pair matrices.",
    )
    parser.add_argument("--version", action="version", version=f"cogmatrix {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic matrix and gold pairs")
    _add_common(p)
    _add_synth(p)

    p = sub.add_parser("score", help="score all candidate pairs under each metric")
    _add_common(p)
    _add_inputs(p)
    _add_universe(p)
    p.add_argument("--metrics", help="comma-separated metric names")
    p.add_argument("--seed-fraction", dest="seed_fraction", type=float,
                   help="fraction of gold pairs used as the context bridge")

    p = sub.add_parser("train", help="learn combination weights from the seed split")
    _add_common(p)
    _add_training(p)
    p.add_argument("--matrices", help="directory containing metric_<name>.tsv files")
    p.add_argument("--gold", help="gold pairs file")

    p = sub.add_parser("combine", help="combine metric matrices into the baseline matrix")
    _add_common(p)
    p.add_argument("--matrices", help="directory containing metric_<name>.tsv files")
    p.add_argument("--weights", choices=("learned", "uniform"), help="weighting scheme")
    p.add_argument("--weights-file", dest="weights_file", help="weights file for --weights learned")

    p = sub.add_parser("rescore", help="rescore a matrix with the selected methods")
    _add_common(p)
    p.add_argument("--matrix", help="input matrix file")
    p.add_argument("--methods", help="comma-separated method names")

    p = sub.add_parser("assign", help="maximum one-to-one assignment and its curve")
    _add_common(p)
    p.add_argument("--matrix", help="input matrix file")
    p.add_argument("--gold", help="gold pairs file")
    p.add_argument("--max-side", dest="max_side", type=int, help="assignment size guard")

    p = sub.add_parser("eval", help="precision-recall report for saved matrices")
    _add_common(p)
    p.add_argument("--gold", help="gold pairs file")
    p.add_argument("matrix_paths", nargs="+", metavar="MATRIX", help="saved matrix files")

    p = sub.add_parser("pipeline", help="full run: score, train, combine, rescore, assign, eval")
    _add_common(p)
    _add_inputs(p)
    _add_universe(p)
    _add_training(p)
    _add_synth(p)
    p.add_argument("--source", choices=("files", "synth"), help="input source")
    p.add_argument("--metrics", help="comma-separated metric names")
    p.add_argument("--methods", help="comma-separated method names")
    p.add_argument("--weights", choices=("learned", "uniform"), help="weighting scheme")
    p.add_argument("--no-assign", dest="assign", action="store_false", default=None,
                   help="skip the maximum assignment stage")
    p.add_argument("--max-side", dest="max_side", type=int, help="assignment size guard")

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "score": cmd_score,
    "train": cmd_train,
    "combine": cmd_combine,
    "rescore": cmd_rescore,
    "assign": cmd_assign,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.subcommand == "eval":
            return cmd_eval(cfg, args.matrix_paths)
        return _COMMANDS[args.subcommand](cfg)
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"cogmatrix: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
