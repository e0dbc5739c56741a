"""Modified least-squares estimator for mixture regression coefficients.

For target component ``m`` the estimate solves the weighted normal equations

    (X'AX) b = X'AY,    A = diag(a[:, m]),

with the signed minimax weights ``a = p G`` from :mod:`mvcreg.concentrations`.
The weights are linear in the concentrations, so with the concentration-
weighted statistics

    S_k = (1/N) sum_j p[j, k] x_j x_j',    t_k = (1/N) sum_j p[j, k] y_j x_j,

the equations are ``(sum_k G[k, m] S_k) b = sum_k G[k, m] t_k``: one pass
over the data per concentration column serves every component, and the
N x M weight matrix is never formed.  The sums are taken in an equivalent
basis of the concentration columns, centred on their means, whose rounding
G magnifies less.

The fit has three stages.  :func:`fit_basis` depends on ``p`` alone, so a
replication study builds it once per grid point.  :func:`normal_equations`
forms the equations of a stack of samples that share ``p``, one product
per basis column and block of rows.  :func:`solve_normal_equations` gates
and solves any stack of equations at once.  :func:`fit_all` is the
one-sample case; every stage works one sample at a time in the same way, so
a study's replication gets the bytes ``fit_all`` gives for its dataset.

Because some weights are negative, ``X'AX`` is symmetric but possibly
indefinite: the solve is LU with partial pivoting, which needs no
definiteness, and the eigenvalue signs are surfaced as a diagnostic rather
than assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._arrays import freeze
from .concentrations import DEFAULT_GAMMA_TOL, ConcentrationMatrix, GramianSummary, build_gramian
from .errors import DataFormatError, SingularNormalMatrix
from .moments import _CHUNK_ROWS, Dataset, _rows_times, component_regression_moments

#: default ceiling on cond(X'AX); beyond it the component is reported as
#: rank-deficient instead of silently returning noise
DEFAULT_XTX_TOL = 1e10


@dataclass(frozen=True)
class FitResult:
    """Per-component coefficient estimates with shared diagnostics.

    ``coefficients`` row ``m`` solves that component's normal equations; rows
    of failed components are NaN and the failure is recorded in ``errors``
    keyed by component index.  ``gramian`` is the one the fit basis was built
    from, with its inverse ``G`` the weights ``a = p G`` come from, and
    ``normal_matrices`` the M x d x d stack of each component's ``X'AX / N``,
    failed ones included; the plug-in covariance, which refuses a fit with a
    failed component, reuses both.  Nothing here is N-sized.
    """

    coefficients: np.ndarray
    gramian: GramianSummary
    xtx_condition: np.ndarray
    negative_eigenvalues: tuple[int, ...]
    n_obs: int
    errors: dict[int, SingularNormalMatrix]
    normal_matrices: np.ndarray

    def __post_init__(self):
        freeze(self, "coefficients", "xtx_condition", "normal_matrices")

    @property
    def n_components(self) -> int:
        return self.coefficients.shape[0]

    @property
    def ok(self) -> bool:
        """True when every component fitted cleanly."""
        return not self.errors


@dataclass(frozen=True)
class FitBasis:
    """What the fit needs of the concentrations, built once per ``p``.

    The basis columns are the centred concentration columns ``p_k - c_k r``
    (every column of ``p`` but the last; ``c`` the column means, ``centre``)
    and, last, the row sums ``r = p 1``.  They span the weights:
    ``a_m = sum_q combination[q, m] column_q``.  Centred weights average to
    zero, so their sums round like sums against the signed weights ``a``;
    sums against ``p_k`` itself round at the size of the whole mean, which
    ``G`` magnifies (threefold in the median over 60 random designs).
    ``gramian`` is that of ``p``, with its inverse ``G``.

    :meth:`column` forms a block of a column from its rows of ``p`` when the
    block is summed, so the N x M basis is never held.  ``columns`` (M rows)
    keeps the first block of every column, which is all of it when N is at
    most ``_CHUNK_ROWS``: a study sums its samples against it without
    forming it again for each.
    """

    gramian: GramianSummary
    p: ConcentrationMatrix
    centre: np.ndarray
    columns: np.ndarray
    combination: np.ndarray

    def __post_init__(self):
        freeze(self, "centre", "columns", "combination")

    @property
    def n_obs(self) -> int:
        return self.p.n_obs

    def column(self, q: int, rows: slice) -> np.ndarray:
        """The block ``rows`` of basis column ``q``: ``_CHUNK_ROWS`` rows from
        a multiple of it, or the rest."""
        if rows.start == 0:
            return self.columns[q]
        return _basis_column(self.p.values, self.centre, q, rows)


def _basis_column(values: np.ndarray, centre: np.ndarray, q: int, rows: slice) -> np.ndarray:
    """The block ``rows`` of basis column ``q`` of the concentrations ``values``."""
    column = _rows_times(values, np.ones(values.shape[1]), rows)  # r = p 1
    if q < len(centre) - 1:
        np.multiply(centre[q], column, out=column)
        np.subtract(values[rows, q], column, out=column)
    return column


def fit_basis(p: ConcentrationMatrix, gamma_tol: float = DEFAULT_GAMMA_TOL) -> FitBasis:
    """The fit basis of ``p``, behind the identifiability gate.

    Raises
    ------
    SingularGramian
        If ``cond(Gamma) > gamma_tol``.
    """
    gramian = build_gramian(p, gamma_tol)
    # a_m = p G[:, m] = sum_k (G[k, m] - G[-1, m]) (p_k - c_k r) + (c'G)_m r,
    # with the last entry of c set to 1 minus the others
    centre = gramian.gamma.sum(axis=1)  # the column means, since rows of p sum to 1
    centre[-1] = 1.0 - centre[:-1].sum()
    head = slice(0, _CHUNK_ROWS)
    columns = np.array([_basis_column(p.values, centre, q, head) for q in range(p.n_components)])
    combination = gramian.inverse - gramian.inverse[-1]
    combination[-1] = centre @ gramian.inverse
    for arr in (centre, columns, combination):
        arr.flags.writeable = False  # handed over to FitBasis
    return FitBasis(
        gramian=gramian, p=p, centre=centre, columns=columns, combination=combination
    )


def normal_equations(data: Dataset, basis: FitBasis) -> tuple[np.ndarray, np.ndarray]:
    """Weighted normal equations of every component of a stack of samples.

    ``data`` holds S samples one after another, ``basis.n_obs`` rows each,
    all with the concentrations ``basis`` was built from.  Returns the
    S x M x d x d normal matrices ``X'AX / N`` and the S x M x d right-hand
    sides ``X'Ay / N``.  Each column of the basis is one
    :func:`~mvcreg.moments.component_regression_moments` call over the whole
    stack, which forms the column a block at a time, in forked workers for
    data in the CSV reader's shared mappings, and a sample's equations have
    the same bytes alone as stacked with others.
    """
    samples = data.n_obs // basis.n_obs

    def term(q):
        xtx, xty = component_regression_moments(data, partial(basis.column, q), samples=samples)
        weight = basis.combination[q]
        return weight[:, None, None] * xtx[:, None], weight[:, None] * xty[:, None]

    # summed in basis order; symmetric because every summed matrix is
    normal, rhs = term(0)
    for q in range(1, len(basis.combination)):
        xtx, xty = term(q)
        normal += xtx
        rhs += xty
    return normal, rhs


def conditions(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition numbers and negative-eigenvalue counts of a stack of symmetric matrices.

    The condition number is the largest over the smallest eigenvalue
    magnitude, infinite where the smallest is 0.  The eigenvalues of the
    whole stack are one call that works one matrix at a time, so a matrix's
    results do not depend on the stack it comes in.
    """
    magnitudes = np.linalg.eigvalsh(matrices)
    negative = np.count_nonzero(magnitudes < 0.0, axis=-1)
    np.abs(magnitudes, out=magnitudes)
    smallest = magnitudes.min(axis=-1)
    cond = np.full(smallest.shape, np.inf)
    np.divide(magnitudes.max(axis=-1), smallest, out=cond, where=smallest != 0.0)
    return cond, negative


def solve_normal_equations(
    normal: np.ndarray, rhs: np.ndarray, xtx_tol: float = DEFAULT_XTX_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gate and solve a stack of normal equations, as :func:`normal_equations` gives them.

    Returns the S x M x d coefficients, NaN where the fit failed, and the
    S x M condition numbers, negative-eigenvalue counts (0 where failed) and
    failure flags.  A normal matrix whose :func:`conditions` number is not at
    most ``xtx_tol`` fails its own (sample, component).  The solve of the
    matrices that pass is one call too, one matrix at a time.
    """
    cond, negative = conditions(normal)
    failed = ~(np.isfinite(cond) & (cond <= xtx_tol))
    negative[failed] = 0
    coef = np.full(rhs.shape, np.nan)
    ok = ~failed
    # LU with partial pivoting: valid for the indefinite case, unlike
    # Cholesky; never form the explicit inverse
    coef[ok] = np.linalg.solve(normal[ok], rhs[ok][..., None])[..., 0]
    return coef, cond, negative, failed


def fit_all(
    data: Dataset,
    p: ConcentrationMatrix,
    xtx_tol: float = DEFAULT_XTX_TOL,
    gamma_tol: float = DEFAULT_GAMMA_TOL,
) -> FitResult:
    """Fit every component of one dataset.

    This is the one-sample case of the study's fit: :func:`fit_basis`, then
    :func:`normal_equations` and :func:`solve_normal_equations`.  ``mvcreg
    fit`` calls it once; a replication study builds the basis once per grid
    point, forms the equations of its replications a stack at a time and
    solves them a group of stacks at a time, and gets the bytes of this
    function for each.

    A Gramian refused by the ``gamma_tol`` gate (``SingularGramian``) aborts
    the whole fit, and so do sums of finite data that overflow the float
    range (``DataFormatError``); a singular normal matrix only fails its own
    component, which gets a NaN coefficient row and an entry in
    ``FitResult.errors``.
    """
    if data.n_obs != p.n_obs:
        raise ValueError("dataset and concentration matrix disagree on N")
    basis = fit_basis(p, gamma_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        normal, rhs = normal_equations(data, basis)
    if not (np.isfinite(normal).all() and np.isfinite(rhs).all()):
        raise DataFormatError("the weighted sums of the data overflow the float range")
    coef, cond, negative, failed = (
        part[0] for part in solve_normal_equations(normal, rhs, xtx_tol)
    )
    failed = np.flatnonzero(failed).tolist()
    return FitResult(
        coefficients=coef,
        gramian=basis.gramian,
        xtx_condition=cond,
        negative_eigenvalues=tuple(negative.tolist()),
        n_obs=data.n_obs,
        errors={m: SingularNormalMatrix(m, cond[m], xtx_tol) for m in failed},
        normal_matrices=normal[0],
    )
