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
    iap11,
    interpolated_precision,
    load_curve,
    max_f1,
    pr_curve,
    save_curve,
    save_report,
)
from .ingest import (
    LexiconSide,
    SeedSet,
    build_universe,
    load_gold_pairs,
    load_lexicon,
    save_gold_pairs,
    split_seed,
)
from .matrix import GoldPairs, ScoreMatrix, load_matrix, normalize_min_max, save_matrix
from .rescore import (
    RescoreMethod,
    apply,
    forward_rank,
    forward_rank_matrix,
    rescore_fr,
    rescore_rr,
    rescore_rr_fr_1step,
    rescore_rr_fr_2step,
    reverse_rank,
    reverse_rank_matrix,
)
from .scorers import (
    MetricId,
    SeedLexicon,
    burstiness_score,
    context_score,
    frequency_score,
    levenshtein,
    phonetic_score,
    score_all_pairs,
    temporal_score,
)
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
    "SeedLexicon",
    "SeedSet",
    "SynthConfig",
    "TrainingConfig",
    "WeightVector",
    "apply",
    "build_universe",
    "burstiness_score",
    "combine",
    "compare_methods",
    "context_score",
    "forward_rank",
    "forward_rank_matrix",
    "frequency_score",
    "generate",
    "hit_curve",
    "hungarian_max",
    "iap11",
    "interpolated_precision",
    "levenshtein",
    "load_curve",
    "load_gold_pairs",
    "load_lexicon",
    "load_matrix",
    "load_weights",
    "max_assignment_curve",
    "max_f1",
    "normalize_min_max",
    "phonetic_score",
    "pr_curve",
    "rescore_fr",
    "rescore_rr",
    "rescore_rr_fr_1step",
    "rescore_rr_fr_2step",
    "reverse_rank",
    "reverse_rank_matrix",
    "save_assignment",
    "save_curve",
    "save_gold_pairs",
    "save_matrix",
    "save_report",
    "save_weights",
    "score_all_pairs",
    "split_seed",
    "temporal_score",
    "train_weights",
    "uniform_weights",
    "__version__",
]
