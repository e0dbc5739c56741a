"""Per-component linear regression for mixtures with varying concentrations.

Observations come from a finite mixture whose mixing probabilities differ
from observation to observation and are known.  Minimax weights built from
the concentration Gramian isolate one component at a time; weighted least
squares with those weights recovers that component's regression
coefficients, and a sandwich formula gives their asymptotic covariance.
"""

from .concentrations import (
    DEFAULT_GAMMA_TOL,
    ConcentrationMatrix,
    GramianSummary,
    build_gramian,
    compute_weights,
    invert_gramian,
    weight_co_moments,
)
from .covariance import (
    AsymptoticCovariance,
    analytic_sigma,
    plug_in_covariance,
    plug_in_covariances,
)
from .errors import (
    ConfigError,
    DataFormatError,
    ExcessiveFailures,
    MvcregError,
    SingularD,
    SingularGramian,
    SingularNormalMatrix,
)
from .estimator import (
    DEFAULT_XTX_TOL,
    FitResult,
    fit_all,
)
from .moments import (
    ComponentMoments,
    Dataset,
    component_regression_moments,
    weighted_fourth_moment,
)
from .montecarlo import (
    ComparisonReport,
    GridPointSummary,
    MonteCarloReport,
    compare_report,
    run_study,
    study_from_options,
)
from .simgen import (
    ComponentSpec,
    ConstantRegressor,
    ExplicitConcentrations,
    GaussianRegressor,
    LinearRamp,
    SimulatedDataset,
    SimulationConfig,
    StudyOptions,
    derive_seed,
    generate,
    limit_co_moments,
    load_config_file,
    reference_study_config,
    simulation_config_from_dict,
    true_component_moments,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GAMMA_TOL",
    "DEFAULT_XTX_TOL",
    "AsymptoticCovariance",
    "ComparisonReport",
    "ComponentMoments",
    "ComponentSpec",
    "ConcentrationMatrix",
    "ConfigError",
    "ConstantRegressor",
    "DataFormatError",
    "Dataset",
    "ExcessiveFailures",
    "ExplicitConcentrations",
    "FitResult",
    "GaussianRegressor",
    "GramianSummary",
    "GridPointSummary",
    "LinearRamp",
    "MonteCarloReport",
    "MvcregError",
    "SimulatedDataset",
    "SimulationConfig",
    "SingularD",
    "SingularGramian",
    "SingularNormalMatrix",
    "StudyOptions",
    "analytic_sigma",
    "build_gramian",
    "compare_report",
    "component_regression_moments",
    "compute_weights",
    "derive_seed",
    "fit_all",
    "generate",
    "invert_gramian",
    "limit_co_moments",
    "load_config_file",
    "plug_in_covariance",
    "plug_in_covariances",
    "reference_study_config",
    "run_study",
    "simulation_config_from_dict",
    "study_from_options",
    "true_component_moments",
    "weight_co_moments",
    "weighted_fourth_moment",
]
