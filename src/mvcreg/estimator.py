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

from dataclasses import dataclass, replace

import numpy as np

from .concentrations import (
    DEFAULT_GAMMA_TOL,
    ConcentrationMatrix,
    GramianSummary,
    build_gramian,
    invert_gramian,
)
from .errors import SingularNormalMatrix
from .moments import Dataset, component_regression_moments

#: default ceiling on cond(X'AX); beyond it the component is reported as
#: rank-deficient instead of silently returning noise
DEFAULT_XTX_TOL = 1e10


@dataclass(frozen=True)
class FitResult:
    """Per-component coefficient estimates with shared diagnostics.

    ``coefficients`` row ``m`` solves that component's normal equations; rows
    of failed components are NaN and the failure is recorded in ``errors``
    keyed by component index.  ``normal_matrices`` holds each component's
    ``X'AX / N`` (``None`` where the fit failed) and ``gamma_inverse`` the
    inverse Gramian ``G`` the weights ``a = p G`` come from, both for reuse
    by the plug-in covariance.  ``plug_in_cov`` stays ``None`` until filled
    by the covariance module.
    """

    coefficients: np.ndarray
    det_gamma: float
    xtx_condition: np.ndarray
    negative_eigenvalues: tuple[int, ...]
    n_obs: int
    errors: dict[int, SingularNormalMatrix]
    normal_matrices: tuple[np.ndarray | None, ...]
    gamma_inverse: np.ndarray
    plug_in_cov: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=float)
        cond = np.array(self.xtx_condition, dtype=float)
        coef.flags.writeable = False
        cond.flags.writeable = False
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "xtx_condition", cond)

    @property
    def n_components(self) -> int:
        return self.coefficients.shape[0]

    @property
    def ok(self) -> bool:
        """True when every component fitted cleanly."""
        return not self.errors

    def with_plug_in_cov(self, covs: tuple[np.ndarray, ...]) -> "FitResult":
        return replace(self, plug_in_cov=tuple(np.asarray(c, dtype=float) for c in covs))


@dataclass(frozen=True)
class FitBasis:
    """What the fit needs of the concentrations, built once per ``p``.

    ``columns`` is the N x M matrix, stored column by column (M x N), of the
    centred concentration columns ``p_k - c_k r`` (every column of ``p`` but
    the last; ``c`` the column means) and, last, the row sums ``r = p 1``.
    They span the weights: ``a_m = sum_q combination[q, m] columns[q]``.
    Centred weights average to zero, so their sums round like sums against
    the signed weights ``a``; sums against ``p_k`` itself round at the size of
    the whole mean, which ``G`` magnifies (threefold in the median over 60
    random designs).  ``gramian`` and ``gamma_inverse`` are those of ``p``.
    """

    gramian: GramianSummary
    gamma_inverse: np.ndarray
    columns: np.ndarray
    combination: np.ndarray

    def __post_init__(self):
        for name in ("columns", "combination"):
            getattr(self, name).flags.writeable = False

    @property
    def n_obs(self) -> int:
        return self.columns.shape[1]


def fit_basis(p: ConcentrationMatrix, gamma_tol: float = DEFAULT_GAMMA_TOL) -> FitBasis:
    """The fit basis of ``p``, behind the identifiability gate.

    Raises
    ------
    SingularGramian
        If ``cond(Gamma) > gamma_tol``.
    """
    gramian = build_gramian(p)
    gamma_inverse = invert_gramian(gramian, gamma_tol)
    n_comp = p.n_components
    # a_m = p G[:, m] = sum_k (G[k, m] - G[-1, m]) (p_k - c_k r) + (c'G)_m r,
    # with the last entry of c set to 1 minus the others
    c = gramian.gamma.sum(axis=1)  # the column means, since rows of p sum to 1
    c[-1] = 1.0 - c[:-1].sum()
    columns = np.empty((n_comp, p.n_obs))
    np.matmul(p.values, np.ones(n_comp), out=columns[-1])
    for q in range(n_comp - 1):
        np.multiply(c[q], columns[-1], out=columns[q])
        np.subtract(p.values[:, q], columns[q], out=columns[q])
    combination = gamma_inverse - gamma_inverse[-1]
    combination[-1] = c @ gamma_inverse
    return FitBasis(
        gramian=gramian, gamma_inverse=gamma_inverse, columns=columns, combination=combination
    )


def normal_equations(data: Dataset, basis: FitBasis) -> tuple[np.ndarray, np.ndarray]:
    """Weighted normal equations of every component of a stack of samples.

    ``data`` holds S samples one after another, ``basis.n_obs`` rows each,
    all with the concentrations ``basis`` was built from.  Returns the
    S x M x d x d normal matrices ``X'AX / N`` and the S x M x d right-hand
    sides ``X'Ay / N``.  Each column of the basis is one
    :func:`~mvcreg.moments.component_regression_moments` call over the whole
    stack, and a sample's equations have the same bytes alone as stacked
    with others.
    """
    samples = data.n_obs // basis.n_obs

    def term(q):
        xtx, xty = component_regression_moments(data, basis.columns[q], samples=samples)
        weight = basis.combination[q]
        return weight[:, None, None] * xtx[:, None], weight[:, None] * xty[:, None]

    # summed in basis order; symmetric because every summed matrix is
    normal, rhs = term(0)
    for q in range(1, len(basis.columns)):
        xtx, xty = term(q)
        normal += xtx
        rhs += xty
    return normal, rhs


def solve_normal_equations(
    normal: np.ndarray, rhs: np.ndarray, xtx_tol: float = DEFAULT_XTX_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gate and solve a stack of normal equations, as :func:`normal_equations` gives them.

    Returns the S x M x d coefficients, NaN where the fit failed, and the
    S x M condition numbers, negative-eigenvalue counts (0 where failed) and
    failure flags.  A normal matrix whose condition number (largest over smallest
    eigenvalue magnitude) is not at most ``xtx_tol`` fails its own
    (sample, component).  The eigenvalues of the whole stack are one call,
    and so is the solve of the matrices that pass; both work one matrix at a
    time, so a matrix's results do not depend on the stack it comes in.
    """
    magnitudes = np.linalg.eigvalsh(normal)
    negative = np.count_nonzero(magnitudes < 0.0, axis=-1)
    np.abs(magnitudes, out=magnitudes)
    smallest = magnitudes.min(axis=-1)
    cond = np.full(smallest.shape, np.inf)
    np.divide(magnitudes.max(axis=-1), smallest, out=cond, where=smallest != 0.0)
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
    the whole fit; a singular normal matrix only fails its own component,
    which gets a NaN coefficient row and an entry in ``FitResult.errors``.
    """
    if data.n_obs != p.n_obs:
        raise ValueError("dataset and concentration matrix disagree on N")
    basis = fit_basis(p, gamma_tol)
    normal, rhs = normal_equations(data, basis)
    normal.flags.writeable = False  # its slabs are kept as FitResult.normal_matrices
    coef, cond, negative, failed = (
        part[0] for part in solve_normal_equations(normal, rhs, xtx_tol)
    )
    failed = np.flatnonzero(failed).tolist()
    return FitResult(
        coefficients=coef,
        det_gamma=basis.gramian.det_gamma,
        xtx_condition=cond,
        negative_eigenvalues=tuple(negative.tolist()),
        n_obs=data.n_obs,
        errors={m: SingularNormalMatrix(m, cond[m], xtx_tol) for m in failed},
        normal_matrices=tuple(
            None if m in failed else matrix for m, matrix in enumerate(normal[0])
        ),
        gamma_inverse=basis.gamma_inverse,
    )
