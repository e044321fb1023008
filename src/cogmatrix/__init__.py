"""Cross-language word-pair scoring with global-constraint rescoring.

Pipeline: load corpus statistics, score candidate pairs under several
similarity metrics, combine them with learned linear weights into a baseline
matrix, rescore the matrix with rank-based global-constraint operators or
solve the maximum one-to-one assignment, and evaluate precision-recall
against gold pairs.
"""

from .assign import Assignment, ResourceLimitError, hungarian_max, max_assignment_curve, save_assignment
from .combine import (
    TrainingConfig,
    WeightVector,
    combine,
    load_weights,
    save_weights,
    train_weights,
    uniform_weights,
)
from .evaluate import (
    PRCurve,
    ReportRow,
    compare_methods,
    hit_curve,
    interpolated_precision,
    load_curve,
    pr_curve,
    save_curve,
    save_report,
)
from .ingest import (
    LexiconSide,
    build_universe,
    load_gold_pairs,
    load_lexicon,
    save_gold_pairs,
    split_seed,
)
from .matrix import GoldPairs, ScoreMatrix, load_matrix, normalize_min_max, save_matrix
from .rescore import RescoreMethod, apply, forward_rank_matrix
from .scorers import MetricId, score_all_pairs
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "GoldPairs",
    "LexiconSide",
    "MetricId",
    "PRCurve",
    "ReportRow",
    "RescoreMethod",
    "ResourceLimitError",
    "ScoreMatrix",
    "SynthConfig",
    "TrainingConfig",
    "WeightVector",
    "apply",
    "build_universe",
    "combine",
    "compare_methods",
    "forward_rank_matrix",
    "generate",
    "hit_curve",
    "hungarian_max",
    "interpolated_precision",
    "load_curve",
    "load_gold_pairs",
    "load_lexicon",
    "load_matrix",
    "load_weights",
    "max_assignment_curve",
    "normalize_min_max",
    "pr_curve",
    "save_assignment",
    "save_curve",
    "save_gold_pairs",
    "save_matrix",
    "save_report",
    "save_weights",
    "score_all_pairs",
    "split_seed",
    "train_weights",
    "uniform_weights",
    "__version__",
]
