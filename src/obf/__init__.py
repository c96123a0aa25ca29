"""Bayesian feature screening toolkit.

Ranks features by their posterior probability of differing between two
classes under independent conjugate Gaussian models, applies optimal
selection rules on top of the ranking, and ships classical baselines, a
correlated synthetic-data generator, and a consistency-experiment harness.
"""

from ._version import __version__
from .bayes import (
    ClassStats,
    NIWHyper,
    PriorSpec,
    derive_logL,
    jp_prior,
    log_h_table,
    log_marginal,
    matrix_stats,
    pp_prior,
)
from .errors import (
    AllDegenerate,
    BadSize,
    ConfigInvalid,
    DatasetParseError,
    DegenerateData,
    EmptyClass,
    ImproperPrior,
    NotPD,
    ObfError,
    OutputError,
    TooLarge,
)
from .harness import (
    ExperimentPlan,
    MethodSpec,
    MetricRow,
    parse_method,
    run_plan,
    run_sweep,
    score_selection,
)
from .selection import (
    LossSpec,
    RocCurve,
    Rule,
    ScoreTable,
    SelectionResult,
    roc,
    select_cmnc,
    select_map,
    select_mnc,
    select_mr,
    select_np,
    subset_marginals,
    subset_posterior,
)
from .synth import (
    LabeledMatrix,
    SynthConfig,
    block_covariance,
    desk_config,
    generate,
    full_config,
    truth_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
