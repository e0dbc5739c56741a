"""Weighted empirical moments for a single mixture component.

Given the signed minimax weights for component ``m``, the weighted average
``(1/N) sum_j a[j, m] g(y_j, x_j)`` is an unbiased, consistent estimate of
``E[g | component m]``.  This module keeps to those integrals: the weighted
empirical measure itself is never materialized.

The weighted normal equations are summed over fixed blocks of
``_CHUNK_ROWS`` rows, one matrix product per block, and the blocks are added
in row order, so the blocks and their order depend on N alone.  Within a
block the order is the BLAS library's; the tests check that results are
byte-identical under one and two BLAS threads.  The reference fourth-moment
tensor is a non-optimized einsum, in a fixed sequential order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._arrays import frozen

#: rows per block of the normal-equation sums, and the package's one block
#: size for work over rows (the draw's gathers, CSV rendering and parsing); a
#: constant, so the blocks and the order they are added in depend on N alone
_CHUNK_ROWS = 8192


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

    Both are kept read-only.  A float array that owns its memory and is
    already read-only is handed over and kept as is, without a copy; its
    producer must not write to it again.  Any other array is copied.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = frozen(self.y)
        x = frozen(self.x)
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
    x, y = data.x, data.y
    xtx = xty = None
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        xa = x[rows].T * a_col[rows]
        if xtx is None:
            xtx, xty = xa @ x[rows], xa @ y[rows]
        else:
            xtx += xa @ x[rows]
            xty += xa @ y[rows]
    xtx /= n
    xtx = (xtx + xtx.T) / 2.0
    xty /= n
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
