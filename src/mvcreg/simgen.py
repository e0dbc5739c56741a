"""Synthetic data generation for mixture regression.

Each observation draws a latent component label from its own row of the
concentration matrix, then regressors and a Gaussian error from that
component's spec, and assembles the response through the per-component linear
model.  Draws come from a counter-based Philox stream keyed by the config
seed, with a fixed draw layout (label uniforms, then the regressor normal
block, then error normals), so identical configs produce identical bytes no
matter how the surrounding code is scheduled.

A seed keys its stream as ``np.random.Philox(seed)`` does: the key is
numpy's ``SeedSequence`` hash of the seed.  A study's replication seeds are
that hash of (base seed, N, replication) too.  Both hashes are computed here
on uint32 arrays, so a whole range of replications is seeded and keyed in
one vectorised pass with numpy's values, and a task draws every stream from
one generator, re-keyed for it, with the bytes of a freshly seeded
``Generator(Philox(seed))``.

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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words ``SeedSequence`` splits a nonnegative int into, low first."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_pools(entropy: np.ndarray) -> list[np.ndarray]:
    """The entropy pool ``SeedSequence`` mixes from each row of ``entropy``.

    ``entropy`` is R x L uint32, one row of words per sequence; the pool
    comes back as its ``_POOL_SIZE`` words, each a length-R uint32 array.
    The hash constants do not depend on the data, so every row is mixed
    at once; uint32 array arithmetic wraps as numpy's C code does.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    rows, length = entropy.shape
    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words, np.uint64)`` of every pool, R x n_words."""
    const = _INIT_B
    halves = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        halves.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])], axis=1)


def derive_seeds(base_seed: int, n_obs: int, reps: Sequence[int]) -> np.ndarray:
    """The seeds of replications ``reps`` of one grid point, one uint64 each.

    The seed of replication r is the first 64-bit word of
    ``np.random.SeedSequence(entropy=(base_seed, n_obs, r))``, computed for
    all of ``reps`` at once.
    """
    prefix = _uint32_words(base_seed) + _uint32_words(n_obs)
    index = np.array(reps, dtype=np.uint64)
    seeds = np.empty(len(index), dtype=np.uint64)
    # a replication from 2**32 on is two words of entropy, one below it
    wide = index > _MASK32
    shifts = np.array([0, 32], dtype=np.uint64)
    for rows, words in ((~wide, index[~wide, None]), (wide, index[wide, None] >> shifts)):
        if not len(words):
            continue
        entropy = np.empty((len(words), len(prefix) + words.shape[1]), dtype=np.uint32)
        entropy[:, : len(prefix)] = prefix
        entropy[:, len(prefix) :] = words & _MASK32
        seeds[rows] = _generate_state(_seed_pools(entropy), 1)[:, 0]
    return seeds


def derive_seed(base_seed: int, n_obs: int, replication: int) -> int:
    """Stable 64-bit seed for one replication of one grid point.

    The one-replication case of :func:`derive_seeds`.
    """
    return int(derive_seeds(base_seed, n_obs, [replication])[0])


def philox_keys(seeds: np.ndarray) -> np.ndarray:
    """The Philox key of each seed, R x 2 uint64: ``np.random.Philox(seed)``'s.

    A seed is one or two words of entropy; a second word of 0 mixes as the
    pool's padding does, so every seed is hashed as two.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.stack([seeds & _MASK32, seeds >> 32], axis=1).astype(np.uint32)
    return _generate_state(_seed_pools(entropy), 2)


def _rekeyed(rng: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """``rng``, a ``Philox`` generator, at the start of the stream of ``key``.

    It takes the state a new ``Philox`` with that key starts in: the
    counter and buffer zero, the buffer used up and no 32-bit half kept.
    Re-keying costs a fraction of a new ``Philox``, most of whose ~20 µs is
    an unused ``SeedSequence`` of OS entropy.
    """
    zeros = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _draw_rows(
    plan: DrawPlan, keys: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Labels, regressors and responses of one draw per Philox key, stacked by rows.

    Each key's stream is drawn whole before the next key's, from ``rng``
    re-keyed for it, in a fixed layout whatever the component specs: N
    label uniforms, then the N x d regressor normals, then N error normals,
    each into its draw's rows of the stack.  The per-row arithmetic then runs over the stack a block of rows at a time
    and in place, so the uniforms become the labels and the normals ``x``
    and ``y``.  Every step works row by row, so a draw's bytes do not
    depend on the draws stacked with it.
    """
    n, count = plan.n_obs, len(keys)
    labels = np.empty(count * n, dtype=np.int64)
    # the uniforms are drawn into the labels' memory, which the blocks below
    # overwrite with the labels they give
    u = labels.view(np.float64)
    x = np.empty((count * n, plan.means.shape[1]))
    y = np.empty(count * n)
    for key, lo in zip(keys, range(0, count * n, n)):
        _rekeyed(rng, key).random(out=u[lo : lo + n])
        rng.standard_normal(out=x[lo : lo + n])
        rng.standard_normal(out=y[lo : lo + n])
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        block_u = u.reshape(count, n)[:, rows]
        block_labels = np.zeros(block_u.shape, dtype=np.int64)
        # label k: exactly k of the left-to-right prefix sums of p's row are <= u
        for threshold in accumulate(plan.p.values[rows, :-1].T):
            block_labels += threshold <= block_u
        labels.reshape(count, n)[:, rows] = block_labels

    for start in range(0, count * n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        block_labels = labels[rows]
        # np.take gathers the per-row parameters far faster than fancy
        # indexing; every label is in range, and mode="clip" skips the check
        x_block = x[rows]
        x_block *= np.take(plan.sds, block_labels, axis=0, mode="clip")
        x_block += np.take(plan.means, block_labels, axis=0, mode="clip")
        # sd_e * e + x . coef: addition and multiplication commute exactly, so
        # these are the bytes of x . coef + sd_e * e
        y_block = y[rows]
        y_block *= np.take(plan.error_sds, block_labels, mode="clip")
        y_block += np.einsum(
            "ji,ji->j", x_block, np.take(plan.coefficients, block_labels, axis=0, mode="clip")
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

    The one-draw case of :func:`draw_stack`, keyed as
    ``np.random.Philox(seed)`` is.  Each draw becomes its output in
    place, a block of rows at a time: the uniforms become the labels, the
    regressor normals ``x`` and the error normals ``y``, which go to the
    ``Dataset`` without a copy.  A config whose finite numbers overflow in
    the draw is refused with a ``ConfigError`` on ``components``.
    """
    rng = np.random.Generator(np.random.Philox())  # re-keyed for the stream of seed
    labels, x, y = _draw_rows(plan, philox_keys([seed]), rng)
    return SimulatedDataset(data=Dataset(y=y, x=x), p=plan.p, labels=labels)


def draw_stack(plan: DrawPlan, keys: np.ndarray, rng: np.random.Generator) -> Dataset:
    """One dataset per Philox key, stacked: rows ``k N`` to ``(k + 1) N - 1``
    hold the bytes of ``draw(plan, seed).data`` for the seed whose key is
    ``keys[k]`` (see :func:`philox_keys`).

    ``rng`` is a ``Generator`` on a ``Philox``, re-keyed for every stream,
    so its state before the call does not matter.  A study task keys its
    range of replications with one ``philox_keys`` call, draws consecutive
    replications this way from one generator, as many as fit in
    ``_CHUNK_ROWS`` rows, and forms their normal equations with one
    ``normal_equations`` call.
    """
    _, x, y = _draw_rows(plan, keys, rng)
    return Dataset(y=y, x=x)


def generate(config: SimulationConfig) -> SimulatedDataset:
    """Draw one dataset from the configured mixture.

    Deterministic in ``config`` (including the seed): the Philox stream is
    consumed in a fixed layout regardless of component specs, so datasets are
    reproducible byte-for-byte.  Equivalent to
    ``draw(plan_draws(config), config.seed)``.
    """
    return draw(plan_draws(config), config.seed)


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
