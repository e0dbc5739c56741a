"""Weighted empirical moments for a single mixture component.

Given the signed minimax weights for component ``m``, the weighted average
``(1/N) sum_j a[j, m] g(y_j, x_j)`` is an unbiased, consistent estimate of
``E[g | component m]``.  This module keeps to those integrals: the weighted
empirical measure itself is never materialized.

Every sum over the rows (the normal equations here, the weight
co-moments, error variances and plug-in quartic elsewhere) is taken by
:func:`_block_sums`: the sum of each block of ``_CHUNK_ROWS`` rows, the
blocks added in row order, so the blocks and their order depend on N alone.
A weighted sum is one matrix product per block (:func:`_row_block_products`),
and the weights of a block are formed from its rows when it is summed, so
nothing N-sized is made beside the data.  A table that lives in a shared
mapping, as the CSV reader's does from the size it parses with workers
at, is summed by workers: each forked worker reads the rows of its blocks
and sends their sums, and the calling process adds them in row order, so
it reads no row of the data.  Within a block the order is the BLAS
library's; the tests check that results are byte-identical under one and
two BLAS threads.  A study stacks several samples of N rows along a
leading axis and sums them with the same products, one per sample, so a
sample's sums do not depend on the samples stacked with it.  The
fourth-moment tensor is formed only as a test reference, by a
non-optimized einsum in a fixed sequential order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import _pool
from ._arrays import freeze

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

    Both are kept read-only, as :mod:`mvcreg._arrays` sets out.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self._take()
        if not (_finite(self.y) and _finite(self.x)):
            raise ValueError("dataset contains non-finite entries")

    @classmethod
    def _parsed(cls, y: np.ndarray, x: np.ndarray) -> Dataset:
        """``Dataset(y, x)`` of arrays whose every entry the caller found
        finite, as the CSV reader's parse tests each cell: the same checks
        but the one for non-finite entries, which reads every row."""
        data = cls.__new__(cls)
        object.__setattr__(data, "y", y)
        object.__setattr__(data, "x", x)
        data._take()
        return data

    def _take(self) -> None:
        """Freeze y and x and check their shapes."""
        freeze(self, "y", "x")
        y, x = self.y, self.x
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

    @property
    def n_obs(self) -> int:
        return self.x.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ComponentMoments:
    """Population moments of every component with Gaussian regressors.

    ``d2`` is M x d x d, slab ``m`` the second-moment matrix of component
    ``m``'s regressors; ``mean`` (M x d) holds their means (a constant
    regressor is a Gaussian with sd 0), ``sigma2`` (length M) the error
    variances and ``b`` (M x d) the coefficient vectors.  The fourth moments
    follow from ``d2`` and ``mean`` by Isserlis' theorem.
    """

    d2: np.ndarray
    mean: np.ndarray
    sigma2: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        freeze(self, "d2", "mean", "sigma2", "b")
        d2 = self.d2
        if d2.ndim != 3 or d2.shape[1] != d2.shape[2]:
            raise ValueError("d2 must be M x d x d")
        n_comp, d, _ = d2.shape
        if self.mean.shape != (n_comp, d):
            raise ValueError("mean must have one entry per component and regressor")
        if self.b.shape != (n_comp, d):
            raise ValueError("b must have one entry per component and regressor")
        if self.sigma2.shape != (n_comp,):
            raise ValueError("sigma2 must have one entry per component")
        if not _symmetric(d2):
            raise ValueError("d2 must be symmetric")
        if np.any(self.sigma2 < 0):
            raise ValueError("sigma2 must be nonnegative")


def _symmetric(stack: np.ndarray) -> bool:
    """Whether every d x d slab of ``stack`` is symmetric, scale-free.

    An entry may differ from its transpose by 1e-10 of its slab's largest
    magnitude; equal infinities are equal, and a NaN is never symmetric.
    """
    flipped = np.swapaxes(stack, -1, -2)
    gap = np.subtract(stack, flipped, out=np.zeros_like(stack), where=stack != flipped)
    scale = np.abs(stack).max(axis=(-2, -1), keepdims=True)
    return bool(np.all(np.abs(gap) <= 1e-10 * scale))


def _finite(values: np.ndarray) -> bool:
    """Whether every entry of the non-empty ``values`` is finite.

    The least and the greatest entry are finite exactly then: a NaN makes
    both NaN and an infinity one of them infinite.  Two reductions make no
    N-sized mask, as ``np.isfinite`` would.
    """
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def _row_slices(n: int) -> list[slice]:
    """The blocks of ``_CHUNK_ROWS`` of ``n`` rows, as slices, in row order."""
    return [slice(start, start + _CHUNK_ROWS) for start in range(0, n, _CHUNK_ROWS)]


def _block_sums(table: np.ndarray, block) -> list:
    """The sums over the blocks of ``_CHUNK_ROWS`` of the rows of ``table``,
    on its second-to-last axis, of what ``block(rows)`` returns for each
    block's slice ``rows``, a list of arrays or numbers, added in row order.

    Where ``table`` lives in a shared mapping, as the CSV reader's y, x and
    p do from ``_pool._POOL_MIN_CELLS`` cells on, forked workers run
    ``block`` (:func:`mvcreg._pool.table_map`): each reads only the rows of
    its own blocks and sends back their sums.  A block gives the same bytes
    wherever it runs, and the calling process adds the blocks in the same
    order either way.
    """
    with _pool.table_map(table, block, _row_slices(table.shape[-2])) as blocks:
        sums = next(blocks)
        for parts in blocks:
            sums = [total + part for total, part in zip(sums, parts)]
    return sums


def _weighted_products(left, weights, *rights) -> list[np.ndarray]:
    """``sum_j weights[j] left_j right_j'`` over the rows of one block, for
    each of ``rights``, as one matrix product each."""
    # laid out k x rows, so the multiply runs along the rows
    weighted = np.multiply(np.swapaxes(left, -1, -2), weights, order="C")
    return [weighted @ right for right in rights]


def _row_block_products(left, weights, *rights) -> list[np.ndarray]:
    """``sum_j weights[j] left_j right_j'`` over the rows, for each of ``rights``.

    ``left`` and every ``right`` hold the rows on their second-to-last axis:
    N x k, or S x N x k for S stacked samples.  ``weights(rows)`` gives the
    weights of a slice of rows, one per row, shared by the samples.  Each
    block of ``_CHUNK_ROWS`` rows is one matrix product per right operand
    (per sample when stacked), and the blocks are added in row order, by
    :func:`_block_sums` of ``left``.
    """
    return _block_sums(
        left,
        lambda rows: _weighted_products(
            left[..., rows, :], weights(rows), *(right[..., rows, :] for right in rights)
        ),
    )


def _rows_times(matrix: np.ndarray, vector: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows``, one block, of ``matrix @ vector``, with the bytes of
    the product of all of ``matrix``'s rows under one BLAS thread.

    BLAS forms each row of a matrix-vector product the same way in a block
    that begins at a multiple of ``_CHUNK_ROWS`` as in the whole product,
    but numpy takes the product of one row as a dot product, whose sum can
    differ; so a last block of one row is the last row of the product of
    its block and the one before.
    """
    if rows.start and matrix.shape[0] - rows.start == 1:
        return (matrix[rows.start - _CHUNK_ROWS :] @ vector)[-1:]
    return matrix[rows] @ vector


def component_regression_moments(
    data: Dataset, a_col, samples: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted normal-equation blocks for one weight column.

    ``a_col`` is the column of N weights, or a function that gives the
    weights of a block of rows from its slice, called as each block is
    summed.  With ``samples`` given, ``data`` holds that many samples of N
    rows each, one after another, every one weighted by ``a_col``, and both
    results gain a leading sample axis.  One sample gives the same bytes
    whether it comes alone or stacked with others.  Where ``data.x`` lives
    in a shared mapping, forked workers sum the row blocks, as
    :func:`_block_sums` sets out; the bytes are the same.

    Returns
    -------
    xtx : ndarray
        ``(1/N) sum_j a_j x_j x_j'``, symmetric d x d.
    xty : ndarray
        ``(1/N) sum_j a_j y_j x_j``, length d.
    """
    count = 1 if samples is None else samples
    if callable(a_col):
        weights, n = a_col, data.n_obs // max(count, 1)
    else:
        a_col = np.asarray(a_col, dtype=float)
        weights, n = a_col.__getitem__, (a_col.shape[0] if a_col.ndim == 1 else -1)
    if count < 1 or n * count != data.n_obs:
        raise ValueError("weight vector length must match the number of observations")
    x = data.x.reshape(count, n, data.n_regressors)
    xtx, xty = _row_block_products(x, weights, x, data.y.reshape(count, n, 1))
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
