"""Weighted empirical moments for a single mixture component.

Given the signed minimax weights for component ``m``, the weighted average
``(1/N) sum_j a[j, m] g(y_j, x_j)`` is an unbiased, consistent estimate of
``E[g | component m]``.  This module keeps to those integrals: the weighted
empirical measure itself is never materialized.

Every weighted sum over the rows (the normal equations here, the weight
co-moments and the plug-in quartic elsewhere) is taken by
:func:`_row_block_products`: one matrix product per block of ``_CHUNK_ROWS``
rows, the blocks added in row order, so the blocks and their order depend on
N alone.  Within a block the order is the BLAS library's; the tests check
that results are byte-identical under one and two BLAS threads.  A study
stacks several samples of N rows along a leading axis and sums them with the
same products, one per sample, so a sample's sums do not depend on the
samples stacked with it.  The fourth-moment tensor is formed only as a test
reference, by a non-optimized einsum in a fixed sequential order.
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
    """Population moments of one component with Gaussian regressors.

    ``d2`` is the d x d second-moment matrix of the regressors, ``mean`` their
    means (a constant regressor is a Gaussian with sd 0), ``sigma2`` the error
    variance and ``b`` the coefficient vector.  The fourth moments follow
    from ``d2`` and ``mean`` by Isserlis' theorem.
    """

    d2: np.ndarray
    mean: np.ndarray
    sigma2: float
    b: np.ndarray

    def __post_init__(self):
        d2 = np.array(self.d2, dtype=float)
        mean = np.array(self.mean, dtype=float)
        b = np.array(self.b, dtype=float)
        d = d2.shape[0]
        if d2.shape != (d, d):
            raise ValueError("d2 must be square")
        if mean.shape != (d,):
            raise ValueError("mean must have one entry per regressor")
        if b.shape != (d,):
            raise ValueError("b must have one entry per regressor")
        if not np.allclose(d2, d2.T, atol=1e-10):
            raise ValueError("d2 must be symmetric")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        for arr in (d2, mean, b):
            arr.flags.writeable = False
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma2", float(self.sigma2))


def _row_block_products(left, weights, *rights) -> list[np.ndarray]:
    """``sum_j weights[j] left_j right_j'`` over the rows, for each of ``rights``.

    ``left`` and every ``right`` hold the rows on their second-to-last axis:
    N x k, or S x N x k for S stacked samples.  ``weights`` has one entry per
    row, shared by the samples.  Each block of ``_CHUNK_ROWS`` rows is one
    matrix product per right operand (per sample when stacked), and the
    blocks are added in row order.
    """

    def block(start):
        rows = slice(start, start + _CHUNK_ROWS)
        # laid out k x rows, so the multiply runs along the rows
        weighted = np.multiply(np.swapaxes(left[..., rows, :], -1, -2), weights[rows], order="C")
        return [weighted @ right[..., rows, :] for right in rights]

    sums = block(0)
    for start in range(_CHUNK_ROWS, weights.shape[0], _CHUNK_ROWS):
        for total, product in zip(sums, block(start)):
            total += product
    return sums


def component_regression_moments(
    data: Dataset, a_col: np.ndarray, samples: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted normal-equation blocks for one weight column.

    With ``samples`` given, ``data`` holds that many samples of
    ``len(a_col)`` rows each, one after another, every one weighted by
    ``a_col``, and both results gain a leading sample axis.  One sample gives
    the same bytes whether it comes alone or stacked with others.

    Returns
    -------
    xtx : ndarray
        ``(1/N) sum_j a_j x_j x_j'``, symmetric d x d.
    xty : ndarray
        ``(1/N) sum_j a_j y_j x_j``, length d.
    """
    a_col = np.asarray(a_col, dtype=float)
    count = 1 if samples is None else samples
    if a_col.ndim != 1 or count < 1 or a_col.shape[0] * count != data.n_obs:
        raise ValueError("weight vector length must match the number of observations")
    n = a_col.shape[0]
    x = data.x.reshape(count, n, data.n_regressors)
    xtx, xty = _row_block_products(x, a_col, x, data.y.reshape(count, n, 1))
    xtx /= n
    xtx = (xtx + np.swapaxes(xtx, -1, -2)) / 2.0
    xty = xty[..., 0] / n
    return (xtx[0], xty[0]) if samples is None else (xtx, xty)


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
