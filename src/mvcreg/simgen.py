"""Synthetic data generation for mixture regression.

Each observation draws a latent component label from its own row of the
concentration matrix, then regressors and a Gaussian error from that
component's spec, and assembles the response through the per-component linear
model.  Draws come from a counter-based Philox stream keyed by the config
seed, with a fixed draw layout (label uniforms, then the regressor normal
block, then error normals), so identical configs produce identical bytes no
matter how the surrounding code is scheduled.

The module also knows the closed-form population moments of its own designs,
which is what the analytic covariance is validated against.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import accumulate
from typing import Union

import numpy as np

from ._arrays import freeze
from .concentrations import ConcentrationMatrix, build_gramian, invert_gramian, weight_co_moments
from .errors import ConfigError
from .moments import _CHUNK_ROWS, ComponentMoments, Dataset

_MAX_SEED = 2**64


@dataclass(frozen=True)
class GaussianRegressor:
    """Regressor drawn as N(mean, sd^2), independent of the others."""

    mean: float
    sd: float


@dataclass(frozen=True)
class ConstantRegressor:
    """Column identically one; the conventional intercept regressor."""


RegressorSpec = Union[GaussianRegressor, ConstantRegressor]


@dataclass(frozen=True)
class ComponentSpec:
    """One mixture component: regressor laws, error scale, coefficients."""

    regressors: tuple[RegressorSpec, ...]
    error_sd: float
    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class LinearRamp:
    """Two-component design with first-component probability j/N."""

    def matrix(self, n_obs: int) -> ConcentrationMatrix:
        values = np.empty((n_obs, 2))
        np.divide(np.arange(1, n_obs + 1, dtype=float), n_obs, out=values[:, 0])
        np.subtract(1.0, values[:, 0], out=values[:, 1])
        values.flags.writeable = False  # handed over to ConcentrationMatrix
        return ConcentrationMatrix(values)

    @property
    def n_components(self) -> int:
        return 2


@dataclass(frozen=True)
class ExplicitConcentrations:
    """Concentration rows supplied verbatim."""

    values: np.ndarray

    def __post_init__(self):
        freeze(self, "values")

    def matrix(self, n_obs: int) -> ConcentrationMatrix:
        if self.values.shape[0] != n_obs:
            raise ConfigError(
                "concentrations.values",
                f"has {self.values.shape[0]} rows but n_obs is {n_obs}",
            )
        try:
            return ConcentrationMatrix(self.values)
        except ValueError as exc:
            raise ConfigError("concentrations.values", str(exc)) from None

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


ConcentrationModel = Union[LinearRamp, ExplicitConcentrations]


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one synthetic dataset.

    ``n_obs`` observations, one ``ComponentSpec`` per mixture component, a
    concentration model, and a 64-bit seed.  All components must declare the
    same number of regressors, and coefficient vectors must match it.
    """

    n_obs: int
    components: tuple[ComponentSpec, ...]
    concentrations: ConcentrationModel = field(default_factory=LinearRamp)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_obs, int) or self.n_obs < 1:
            raise ConfigError("n_obs", "must be a positive integer")
        if not self.components:
            raise ConfigError("components", "must list at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        d = len(self.components[0].regressors)
        for i, comp in enumerate(self.components):
            if not comp.regressors:
                raise ConfigError(f"components[{i}].regressors", "must not be empty")
            if len(comp.regressors) != d:
                raise ConfigError(
                    f"components[{i}].regressors",
                    f"has {len(comp.regressors)} entries; every component must "
                    f"declare {d} like the first",
                )
            if len(comp.coefficients) != d:
                raise ConfigError(
                    f"components[{i}].coefficients",
                    f"has {len(comp.coefficients)} entries, expected {d}",
                )
            if not comp.error_sd > 0:
                raise ConfigError(f"components[{i}].error_sd", "must be positive")
            for j, reg in enumerate(comp.regressors):
                if isinstance(reg, GaussianRegressor) and not reg.sd > 0:
                    raise ConfigError(
                        f"components[{i}].regressors[{j}].sd", "must be positive"
                    )
        if self.n_obs <= d:
            raise ConfigError(
                "n_obs", f"is {self.n_obs}; it must exceed the {d} regressors per component"
            )
        if self.n_obs < len(self.components):
            raise ConfigError(
                "n_obs",
                f"is {self.n_obs}; it must be at least the {len(self.components)} components",
            )
        if self.concentrations.n_components != len(self.components):
            raise ConfigError(
                "components",
                f"{len(self.components)} component specs but the concentration "
                f"model has {self.concentrations.n_components} components",
            )
        if isinstance(self.concentrations, LinearRamp) and len(self.components) != 2:
            raise ConfigError(
                "concentrations.model", "linear_ramp requires exactly 2 components"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < _MAX_SEED:
            raise ConfigError("seed", "must be an unsigned 64-bit integer")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_regressors(self) -> int:
        return len(self.components[0].regressors)

    @property
    def true_coefficients(self) -> np.ndarray:
        return np.array([c.coefficients for c in self.components], dtype=float)


@dataclass(frozen=True)
class SimulatedDataset:
    """Generated observations plus the truth that produced them.

    ``labels`` records the latent component of each observation for
    diagnostics; the estimator never sees it.  It is kept read-only, as
    int64, as :mod:`mvcreg._arrays` sets out.
    """

    data: Dataset
    p: ConcentrationMatrix
    labels: np.ndarray

    def __post_init__(self):
        freeze(self, "labels", dtype=np.int64)


@dataclass(frozen=True)
class DrawPlan:
    """The part of a draw that depends on the config but not on its seed.

    ``means``, ``sds`` and ``coefficients`` are M x d, one row per component
    (a constant regressor has mean 1 and sd 0), and ``error_sds`` has length
    M.  A study builds one plan per sample size and draws every replication
    from it.
    """

    p: ConcentrationMatrix
    means: np.ndarray
    sds: np.ndarray
    coefficients: np.ndarray
    error_sds: np.ndarray

    def __post_init__(self):
        freeze(self, "means", "sds", "coefficients", "error_sds")

    @property
    def n_obs(self) -> int:
        return self.p.n_obs


def _regressor_laws(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Regressor means and sds, M x d; a constant is a Gaussian of mean 1, sd 0."""
    means = np.zeros((config.n_components, config.n_regressors))
    sds = np.zeros_like(means)
    for k, comp in enumerate(config.components):
        for i, reg in enumerate(comp.regressors):
            if isinstance(reg, GaussianRegressor):
                means[k, i] = reg.mean
                sds[k, i] = reg.sd
            else:
                means[k, i] = 1.0
    return means, sds


def plan_draws(config: SimulationConfig) -> DrawPlan:
    """Build the concentrations and per-component arrays of ``config``."""
    means, sds = _regressor_laws(config)
    return DrawPlan(
        p=config.concentrations.matrix(config.n_obs),
        means=means,
        sds=sds,
        coefficients=config.true_coefficients,
        error_sds=np.array([c.error_sd for c in config.components]),
    )


def _draw_rows(plan: DrawPlan, seeds: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Labels, regressors and responses of one draw per seed, stacked by rows.

    Each seed keys its own Philox stream, consumed in a fixed layout whatever
    the component specs: N label uniforms, then the N x d regressor normals,
    then N error normals, each filled into its draw's rows of the stack.  The
    per-row arithmetic then runs over the stack once, a block of rows at a
    time and in place, so the normals become ``x`` and ``y``.  Every step
    works row by row, so a draw's bytes do not depend on the draws stacked
    with it.
    """
    n, count = plan.n_obs, len(seeds)
    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    u = np.empty((count, n))
    for k, rng in enumerate(rngs):
        rng.random(out=u[k])
    labels = np.zeros(count * n, dtype=np.int64)
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        block_labels = labels.reshape(count, n)[:, rows]
        # label k: exactly k of the left-to-right prefix sums of p's row are <= u
        for threshold in accumulate(plan.p.values[rows, :-1].T):
            block_labels += threshold <= u[:, rows]
    del u  # freed before the normals are drawn
    x = np.empty((count * n, plan.means.shape[1]))
    y = np.empty(count * n)
    for rng, lo in zip(rngs, range(0, count * n, n)):
        rng.standard_normal(out=x[lo : lo + n])
        rng.standard_normal(out=y[lo : lo + n])

    for start in range(0, count * n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        block_labels = labels[rows]
        # np.take gathers the per-row parameters far faster than fancy indexing
        x_block = x[rows]
        x_block *= np.take(plan.sds, block_labels, axis=0)
        x_block += np.take(plan.means, block_labels, axis=0)
        # sd_e * e + x . coef: addition and multiplication commute exactly, so
        # these are the bytes of x . coef + sd_e * e
        y_block = y[rows]
        y_block *= np.take(plan.error_sds, block_labels)
        y_block += np.einsum(
            "ji,ji->j", x_block, np.take(plan.coefficients, block_labels, axis=0)
        )
        # a non-finite regressor makes its row's response non-finite too
        if not np.isfinite(y_block).all():
            raise ConfigError(
                "components",
                "the draw overflows the float range; the coefficients, means or "
                "sds are too large",
            )
    for arr in (labels, x, y):
        arr.flags.writeable = False  # handed over without a copy
    return labels, x, y


def draw(plan: DrawPlan, seed: int) -> SimulatedDataset:
    """Draw one dataset from ``plan`` with the Philox stream keyed by ``seed``.

    The one-seed case of :func:`draw_stack`.  Each draw becomes its output in
    place, a block of rows at a time: the regressor normals become ``x`` and
    the error normals ``y``, which go to the ``Dataset`` without a copy.  A
    config whose finite numbers overflow in the draw is refused with a
    ``ConfigError`` on ``components``.
    """
    labels, x, y = _draw_rows(plan, (seed,))
    return SimulatedDataset(data=Dataset(y=y, x=x), p=plan.p, labels=labels)


def draw_stack(plan: DrawPlan, seeds: Sequence[int]) -> Dataset:
    """One dataset per seed, stacked: rows ``k N`` to ``(k + 1) N - 1`` hold
    the bytes of ``draw(plan, seeds[k]).data``.

    A study draws consecutive replications this way, as many as fit in
    ``_CHUNK_ROWS`` rows, and forms their normal equations with one
    ``normal_equations`` call.
    """
    _, x, y = _draw_rows(plan, seeds)
    return Dataset(y=y, x=x)


def generate(config: SimulationConfig) -> SimulatedDataset:
    """Draw one dataset from the configured mixture.

    Deterministic in ``config`` (including the seed): the Philox stream is
    consumed in a fixed layout regardless of component specs, so datasets are
    reproducible byte-for-byte.  Equivalent to
    ``draw(plan_draws(config), config.seed)``.
    """
    return draw(plan_draws(config), config.seed)


def derive_seed(base_seed: int, n_obs: int, replication: int) -> int:
    """Stable 64-bit seed for one replication of one grid point."""
    ss = np.random.SeedSequence(entropy=(base_seed, n_obs, replication))
    return int(ss.generate_state(1, np.uint64)[0])


def true_component_moments(config: SimulationConfig) -> list[ComponentMoments]:
    """Closed-form population moments of every component.

    Regressors are independent Gaussians within a component (a constant has
    sd 0), so ``D2 = diag(sd^2) + mu mu'``.
    """
    means, sds = _regressor_laws(config)
    return [
        ComponentMoments(
            d2=np.diag(sd**2) + np.outer(mean, mean),
            mean=mean,
            sigma2=np.square(comp.error_sd),  # inf, not OverflowError, when huge
            b=np.array(comp.coefficients),
        )
        for comp, mean, sd in zip(config.components, means, sds)
    ]


def limit_co_moments(config: SimulationConfig, m: int) -> np.ndarray:
    """Limiting weight co-moments ``<(a^m)^2 p^s p^t>`` of the design.

    For the linear ramp the concentration columns converge to t and 1 - t
    with t = j/N, so the limits are integrals over [0, 1] of polynomials of
    degree at most 4 in t.  Three-point Gauss-Legendre quadrature is exact
    for them, and the Gramian, the weights ``a = p Gamma^-1`` and the
    co-moments become the same matrix products as the finite-sample path,
    with the quadrature weights in place of 1/N.  An explicit concentration
    matrix has no limiting structure; its finite-sample co-moments are
    returned instead.
    """
    if not 0 <= m < config.n_components:
        raise ValueError(f"component index {m} out of range")
    model = config.concentrations
    if isinstance(model, LinearRamp):
        nodes, node_weights = np.polynomial.legendre.leggauss(3)
        t = (nodes + 1.0) / 2.0  # mapped from [-1, 1] to [0, 1]
        w = node_weights / 2.0
        conc = np.column_stack([t, 1.0 - t])
        gram = conc.T @ (w[:, None] * conc)
        a_m = conc @ np.linalg.inv(gram)[:, m]
        co = conc.T @ ((w * a_m**2)[:, None] * conc)
        return (co + co.T) / 2.0
    p = model.matrix(config.n_obs)
    return weight_co_moments(p.values @ invert_gramian(build_gramian(p))[:, m], p)


# --------------------------------------------------------------------------
# JSON configuration
# --------------------------------------------------------------------------

_TOP_LEVEL_KEYS = {
    "n_obs",
    "n_components",
    "components",
    "concentrations",
    "seed",
    "rep_count",
    "n_grid",
    "rel_tol",
    "mean_tol",
}


@dataclass(frozen=True)
class StudyOptions:
    """Replication-study settings carried alongside a SimulationConfig."""

    rep_count: int | None = None
    n_grid: tuple[int, ...] | None = None
    rel_tol: float | None = None
    mean_tol: float = 0.05

    def __post_init__(self):
        if self.rep_count is not None and self.rep_count < 2:
            raise ConfigError("rep_count", "must be at least 2")
        if self.n_grid is not None:
            if not self.n_grid:
                raise ConfigError("n_grid", "must not be empty")
            for n in self.n_grid:
                if not isinstance(n, int) or n < 2:
                    raise ConfigError("n_grid", "entries must be integers >= 2")
        if self.rel_tol is not None and not self.rel_tol > 0:
            raise ConfigError("rel_tol", "must be positive")
        if not self.mean_tol > 0:
            raise ConfigError("mean_tol", "must be positive")


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "is required")
    return mapping[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"must be an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, inf, huge ints
        raise ConfigError(path, f"must be a finite number, got {value!r}")
    return float(value)


def _parse_regressor(entry, path: str) -> RegressorSpec:
    if not isinstance(entry, dict):
        raise ConfigError(path, "must be an object")
    kind = entry.get("kind")
    if kind == "constant":
        extra = set(entry) - {"kind"}
        if extra:
            raise ConfigError(path, f"unknown keys {sorted(extra)} for constant regressor")
        return ConstantRegressor()
    if kind == "gaussian":
        extra = set(entry) - {"kind", "mean", "sd"}
        if extra:
            raise ConfigError(path, f"unknown keys {sorted(extra)} for gaussian regressor")
        mean = _as_number(_require(entry, "mean", path), f"{path}.mean")
        sd = _as_number(_require(entry, "sd", path), f"{path}.sd")
        return GaussianRegressor(mean=mean, sd=sd)
    raise ConfigError(f"{path}.kind", f"must be 'constant' or 'gaussian', got {kind!r}")


def _parse_component(entry, path: str) -> ComponentSpec:
    if not isinstance(entry, dict):
        raise ConfigError(path, "must be an object")
    extra = set(entry) - {"regressors", "error_sd", "coefficients"}
    if extra:
        raise ConfigError(path, f"unknown keys {sorted(extra)}")
    regressors = _require(entry, "regressors", path)
    if not isinstance(regressors, list):
        raise ConfigError(f"{path}.regressors", "must be a list")
    coefficients = _require(entry, "coefficients", path)
    if not isinstance(coefficients, list):
        raise ConfigError(f"{path}.coefficients", "must be a list")
    return ComponentSpec(
        regressors=tuple(
            _parse_regressor(r, f"{path}.regressors[{j}]") for j, r in enumerate(regressors)
        ),
        error_sd=_as_number(_require(entry, "error_sd", path), f"{path}.error_sd"),
        coefficients=tuple(
            _as_number(c, f"{path}.coefficients[{j}]") for j, c in enumerate(coefficients)
        ),
    )


def _parse_concentrations(entry, path: str) -> ConcentrationModel:
    if entry is None:
        return LinearRamp()
    if not isinstance(entry, dict):
        raise ConfigError(path, "must be an object")
    model = entry.get("model")
    if model == "linear_ramp":
        extra = set(entry) - {"model"}
        if extra:
            raise ConfigError(path, f"unknown keys {sorted(extra)} for linear_ramp")
        return LinearRamp()
    if model == "explicit":
        extra = set(entry) - {"model", "values"}
        if extra:
            raise ConfigError(path, f"unknown keys {sorted(extra)} for explicit model")
        values = _require(entry, "values", path)
        try:
            arr = np.array(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.values", f"not a numeric matrix: {exc}") from None
        if arr.ndim != 2:
            raise ConfigError(f"{path}.values", "must be a matrix (list of equal-length rows)")
        return ExplicitConcentrations(values=arr)
    raise ConfigError(f"{path}.model", f"must be 'linear_ramp' or 'explicit', got {model!r}")


def simulation_config_from_dict(raw: dict) -> SimulationConfig:
    """Build a validated SimulationConfig from parsed JSON.

    Raises
    ------
    ConfigError
        Naming the offending field path, e.g. ``components[1].error_sd``.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    extra = set(raw) - _TOP_LEVEL_KEYS
    if extra:
        raise ConfigError(sorted(extra)[0], "unknown configuration key")
    n_obs = _as_int(_require(raw, "n_obs", ""), "n_obs")
    components_raw = _require(raw, "components", "")
    if not isinstance(components_raw, list) or not components_raw:
        raise ConfigError("components", "must be a non-empty list")
    components = tuple(
        _parse_component(c, f"components[{i}]") for i, c in enumerate(components_raw)
    )
    if "n_components" in raw:
        declared = _as_int(raw["n_components"], "n_components")
        if declared != len(components):
            raise ConfigError(
                "components",
                f"n_components says {declared} but {len(components)} specs given",
            )
    concentrations = _parse_concentrations(raw.get("concentrations"), "concentrations")
    seed = _as_int(raw.get("seed", 0), "seed")
    return SimulationConfig(
        n_obs=n_obs, components=components, concentrations=concentrations, seed=seed
    )


def study_options_from_dict(raw: dict) -> StudyOptions:
    """Extract replication-study settings from the same JSON object."""
    rep_count = raw.get("rep_count")
    if rep_count is not None:
        rep_count = _as_int(rep_count, "rep_count")
    n_grid = raw.get("n_grid")
    if n_grid is not None:
        if not isinstance(n_grid, list):
            raise ConfigError("n_grid", "must be a list of integers")
        n_grid = tuple(_as_int(n, f"n_grid[{i}]") for i, n in enumerate(n_grid))
    rel_tol = raw.get("rel_tol")
    if rel_tol is not None:
        rel_tol = _as_number(rel_tol, "rel_tol")
    mean_tol = _as_number(raw.get("mean_tol", 0.05), "mean_tol")
    return StudyOptions(rep_count=rep_count, n_grid=n_grid, rel_tol=rel_tol, mean_tol=mean_tol)


def load_config_file(path) -> tuple[SimulationConfig, StudyOptions]:
    """Read a JSON config file into simulation and study settings."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    return simulation_config_from_dict(raw), study_options_from_dict(raw)


def reference_study_config() -> tuple[SimulationConfig, StudyOptions]:
    """The bundled two-component benchmark study.

    Linear-ramp concentrations with Gaussian regressors whose asymptotic
    covariance is known in closed form; the default study grid and
    replication count match the published reference table for this design.
    """
    ref = resources.files("mvcreg").joinpath("configs/reference_study.json")
    raw = json.loads(ref.read_text(encoding="utf-8"))
    return simulation_config_from_dict(raw), study_options_from_dict(raw)


def with_seed(config: SimulationConfig, seed: int) -> SimulationConfig:
    return replace(config, seed=seed)


def with_n_obs(config: SimulationConfig, n_obs: int) -> SimulationConfig:
    if n_obs == config.n_obs:
        return config
    if isinstance(config.concentrations, ExplicitConcentrations):
        raise ConfigError(
            "n_grid", "explicit concentration matrices cannot be resized across a grid"
        )
    try:
        return replace(config, n_obs=n_obs)
    except ConfigError as exc:  # only the n_obs checks depend on n_obs
        raise ConfigError("n_grid", exc.message) from None
