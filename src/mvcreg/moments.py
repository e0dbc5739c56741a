"""Weighted empirical moments for a single mixture component.

Given the signed minimax weights for component ``m``, the weighted average
``(1/N) sum_j a[j, m] g(y_j, x_j)`` is an unbiased, consistent estimate of
``E[g | component m]``.  This module keeps to those integrals: the weighted
empirical measure itself is never materialized.

All reductions here run in a fixed sequential order (plain loops or
non-optimized einsum), so results are reproducible bit-for-bit regardless of
thread settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable

import numpy as np

from .errors import NonFiniteMoment


@dataclass(frozen=True)
class Dataset:
    """Observed responses and regressors.

    Parameters
    ----------
    y : ndarray
        Length-N response vector.
    x : ndarray
        N x d regressor matrix.  An intercept, if wanted, is an ordinary
        column of ones supplied by the caller; nothing here special-cases it.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        x = np.array(self.x, dtype=float)
        if y.ndim != 1:
            raise ValueError("y must be one-dimensional")
        if x.ndim != 2:
            raise ValueError("x must be two-dimensional")
        n, d = x.shape
        if y.shape[0] != n:
            raise ValueError(f"y has {y.shape[0]} rows but x has {n}")
        if d < 1:
            raise ValueError("need at least one regressor")
        if n <= d:
            raise ValueError(f"need more observations than regressors (N={n}, d={d})")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("dataset contains non-finite entries")
        y.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n_obs(self) -> int:
        return self.x.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ComponentMoments:
    """Population moments of one component, analytic or plugged in.

    ``d2`` is the d x d second-moment matrix of the regressors, ``l4`` the
    d^4 fourth-moment tensor (symmetric in all four indices), ``sigma2`` the
    error variance and ``b`` the coefficient vector.
    """

    d2: np.ndarray
    l4: np.ndarray
    sigma2: float
    b: np.ndarray

    def __post_init__(self):
        d2 = np.array(self.d2, dtype=float)
        l4 = np.array(self.l4, dtype=float)
        b = np.array(self.b, dtype=float)
        d = d2.shape[0]
        if d2.shape != (d, d):
            raise ValueError("d2 must be square")
        if l4.shape != (d, d, d, d):
            raise ValueError("l4 must be d x d x d x d")
        if b.shape != (d,):
            raise ValueError("b must have one entry per regressor")
        if not np.allclose(d2, d2.T, atol=1e-10):
            raise ValueError("d2 must be symmetric")
        # full symmetry of l4: all permutations of a product of four scalars
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if not np.allclose(l4, np.transpose(l4, perm), atol=1e-8):
                raise ValueError("l4 must be symmetric under index permutations")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        d2.flags.writeable = False
        l4.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "l4", l4)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma2", float(self.sigma2))


def weighted_moment(
    data: Dataset,
    a_col: np.ndarray,
    g: Callable[[float, np.ndarray], object],
):
    """Weighted empirical moment of a row-wise function.

    Parameters
    ----------
    data : Dataset
        Observations.
    a_col : ndarray
        Length-N weight vector for the target component.
    g : callable
        Called as ``g(y_j, x_j)`` per row; may return a scalar or an array.
        The average is linear in ``g``.

    Returns
    -------
    float or ndarray
        ``(1/N) sum_j a_col[j] * g(y_j, x_j)``, summed in row order.

    Raises
    ------
    NonFiniteMoment
        If ``g`` produces a non-finite value on some row.
    """
    a_col = np.asarray(a_col, dtype=float)
    n = data.n_obs
    if a_col.shape != (n,):
        raise ValueError("weight vector length must match the number of observations")
    y = data.y
    x = data.x
    total = None
    for j in range(n):
        value = np.asarray(g(y[j], x[j]), dtype=float)
        if not np.all(np.isfinite(value)):
            raise NonFiniteMoment(j)
        term = a_col[j] * value
        total = term if total is None else total + term
    total = total / n
    if total.shape == ():
        return float(total)
    return total


def component_regression_moments(
    data: Dataset, a_col: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted normal-equation blocks for one component.

    Returns
    -------
    xtx : ndarray
        ``(1/N) sum_j a_j x_j x_j'``, symmetric d x d.
    xty : ndarray
        ``(1/N) sum_j a_j y_j x_j``, length d.
    """
    a_col = np.asarray(a_col, dtype=float)
    if a_col.shape != (data.n_obs,):
        raise ValueError("weight vector length must match the number of observations")
    n = data.n_obs
    xtx = np.einsum("j,ji,jk->ik", a_col, data.x, data.x) / n
    xtx = (xtx + xtx.T) / 2.0
    xty = np.einsum("j,j,ji->i", a_col, data.y, data.x) / n
    return xtx, xty


def weighted_fourth_moment(data: Dataset, a_col: np.ndarray) -> np.ndarray:
    """Weighted fourth-moment tensor of the regressors, symmetrized.

    The raw sum of rank-one fourth powers is symmetric already; the explicit
    symmetrization only irons out floating-point asymmetry.

    This is the reference form, at O(N d^4).  No command uses it: the
    plug-in covariance only needs the contraction ``delta' L4 delta`` and
    evaluates it directly at O(N d^2) without forming the tensor.
    """
    a_col = np.asarray(a_col, dtype=float)
    if a_col.shape != (data.n_obs,):
        raise ValueError("weight vector length must match the number of observations")
    x = data.x
    l4 = np.einsum("j,ji,jk,jl,jq->iklq", a_col, x, x, x, x) / data.n_obs
    sym = np.zeros_like(l4)
    for perm in permutations(range(4)):
        sym += np.transpose(l4, perm)
    return sym / 24.0


def objective(data: Dataset, a_col: np.ndarray, b: np.ndarray) -> float:
    """Weighted residual sum of squares at coefficient vector ``b``.

    With signed weights this can be unbounded below, so the estimator is not
    defined as its argmin; the function exists to test the normal-equation
    stationarity of the fitted coefficients.
    """
    a_col = np.asarray(a_col, dtype=float)
    b = np.asarray(b, dtype=float)
    if a_col.shape != (data.n_obs,):
        raise ValueError("weight vector length must match the number of observations")
    if b.shape != (data.n_regressors,):
        raise ValueError("coefficient vector length must match the number of regressors")
    resid = data.y - data.x @ b
    return float(np.einsum("j,j->", a_col, resid**2) / data.n_obs)
