"""Discrete Bayes classifiers scored, weighted, and searched by supervised marginal likelihood.

The score of a class model is the probability it assigns to the observed
label sequence given the predictor rows, with parameters integrated out
under a Dirichlet prior. That one quantity drives everything here: it ranks
predictor subsets, weights mixture components, and steers the partition
search behind the partition mixture and block-augmented naive Bayes
classifiers.
"""

from .classifiers import (
    ANBClassifier,
    DiagnosticClassifier,
    MixtureClassifier,
    NBClassifier,
    build_anb,
    build_nb,
    build_omi,
    build_pm_mixture,
)
from .data import (
    Dataset,
    DatasetEncoder,
    DiscretizationSpec,
    RawTable,
    Schema,
    SplitPlan,
    derive_seed,
    encode,
    fit_discretization,
    fit_equal_frequency,
    load_csv,
    split,
)
from .errors import ConfigError, DataError, SmlbayesError
from .harness import (
    ClassifierSpec,
    EvalReport,
    gains_vs_nb,
    log_loss,
    run_trials,
    zero_one_loss,
)
from .model_io import load_model, save_model
from .scoring import (
    CountTable,
    FamilyScore,
    PriorSpec,
    build_count_table,
    log_family_score,
    log_sml,
)
from .search import (
    Partition,
    PartitionScorer,
    SearchConfig,
    SearchResult,
    pm_search,
    propose_move,
    score_partition,
    singleton_partition,
    validate_partition,
)

__version__ = "0.1.0"

__all__ = [
    "ANBClassifier",
    "ClassifierSpec",
    "ConfigError",
    "CountTable",
    "DataError",
    "Dataset",
    "DatasetEncoder",
    "DiagnosticClassifier",
    "DiscretizationSpec",
    "EvalReport",
    "FamilyScore",
    "MixtureClassifier",
    "NBClassifier",
    "Partition",
    "PartitionScorer",
    "PriorSpec",
    "RawTable",
    "Schema",
    "SearchConfig",
    "SearchResult",
    "SmlbayesError",
    "SplitPlan",
    "build_anb",
    "build_count_table",
    "build_nb",
    "build_omi",
    "build_pm_mixture",
    "derive_seed",
    "encode",
    "fit_discretization",
    "fit_equal_frequency",
    "gains_vs_nb",
    "load_csv",
    "load_model",
    "log_family_score",
    "log_loss",
    "log_sml",
    "pm_search",
    "propose_move",
    "run_trials",
    "save_model",
    "score_partition",
    "singleton_partition",
    "split",
    "validate_partition",
    "zero_one_loss",
]
