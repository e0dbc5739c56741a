"""Per-component linear regression for mixtures with varying concentrations.

Observations come from a finite mixture whose mixing probabilities differ
from observation to observation and are known.  Minimax weights built from
the concentration Gramian isolate one component at a time; weighted least
squares with those weights recovers that component's regression
coefficients, and a sandwich formula gives their asymptotic covariance.

The public names resolve on first access (PEP 562): ``mvcreg.fit_all`` or
``from mvcreg import fit_all`` imports the submodule that defines it, and
nothing else, so a command loads only the modules it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: the submodule that defines each public name
_EXPORTS = {
    name: module
    for module, names in {
        "concentrations": (
            "DEFAULT_GAMMA_TOL",
            "ConcentrationMatrix",
            "GramianSummary",
            "build_gramian",
            "compute_weights",
            "weight_co_moments",
        ),
        "covariance": (
            "AsymptoticCovariance",
            "analytic_sigma",
            "plug_in_covariance",
        ),
        "errors": (
            "ConfigError",
            "DataFormatError",
            "ExcessiveFailures",
            "MvcregError",
            "SingularD",
            "SingularGramian",
            "SingularNormalMatrix",
            "WorkerLost",
        ),
        "estimator": ("DEFAULT_XTX_TOL", "FitResult", "fit_all"),
        "moments": (
            "ComponentMoments",
            "Dataset",
            "component_regression_moments",
            "weighted_fourth_moment",
        ),
        "montecarlo": (
            "ComparisonReport",
            "GridPointSummary",
            "MonteCarloReport",
            "compare_report",
            "run_study",
        ),
        "simgen": (
            "ComponentSpec",
            "ConstantRegressor",
            "ExplicitConcentrations",
            "GaussianRegressor",
            "LinearRamp",
            "SimulatedDataset",
            "SimulationConfig",
            "StudyOptions",
            "generate",
            "limit_co_moments",
            "load_config_file",
            "reference_study_config",
            "simulation_config_from_dict",
            "true_component_moments",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # not cached here: the name stays the submodule's binding, whatever
    # patches that binding later
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
