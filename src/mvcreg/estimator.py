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


def fit_all(
    data: Dataset,
    p: ConcentrationMatrix,
    xtx_tol: float = DEFAULT_XTX_TOL,
    gramian: GramianSummary | None = None,
    gamma_tol: float = DEFAULT_GAMMA_TOL,
    gamma_inverse: np.ndarray | None = None,
) -> FitResult:
    """Fit every component from one set of concentration-weighted statistics.

    This is the one solve path: ``mvcreg fit`` calls it once, and a
    replication study once per replication with the Gramian and inverse
    Gramian of its grid point, so neither is rebuilt per replication.

    A Gramian refused by the ``gamma_tol`` gate (``SingularGramian``) aborts
    the whole fit; a singular normal matrix only fails its own component,
    which gets a NaN coefficient row and an entry in ``FitResult.errors``.
    ``gramian`` and ``gamma_inverse``, when given, must be those of ``p``,
    the inverse from :func:`~mvcreg.concentrations.invert_gramian`; with
    ``gamma_inverse`` given, ``gamma_tol`` is not consulted.
    """
    if data.n_obs != p.n_obs:
        raise ValueError("dataset and concentration matrix disagree on N")
    if gramian is None:
        gramian = build_gramian(p)
    if gamma_inverse is None:
        gamma_inverse = invert_gramian(gramian, gamma_tol)
    n_comp = p.n_components
    # Each weight column a_m = p G[:, m] combines the centred columns
    # p_k - c_k r (every column of p but the last; c the column means) and
    # the row sums r = p 1:
    #     a_m = sum_k (G[k, m] - G[-1, m]) (p_k - c_k r) + (c'G)_m r,
    # with the last entry of c set to 1 minus the others.  Centred weights
    # average to zero, so their sums round like sums against the signed
    # weights a; sums against p_k itself round at the size of the whole
    # mean, which G magnifies (threefold in the median over 60 random designs).
    c = gramian.gamma.sum(axis=1)  # the column means, since rows of p sum to 1
    c[-1] = 1.0 - c[:-1].sum()
    r = p.values @ np.ones(n_comp)
    basis = gamma_inverse - gamma_inverse[-1]
    basis[-1] = c @ gamma_inverse
    d = data.n_regressors
    sums = np.empty((n_comp, d, d + 1))  # [X'WX | X'Wy] / N per weight column
    columns = (p.values[:, q] - c[q] * r if q < n_comp - 1 else r for q in range(n_comp))
    for q, column in enumerate(columns):  # one N-sized column at a time
        sums[q, :, :d], sums[q, :, d] = component_regression_moments(data, column)
    # combined in a fixed order; symmetric because every summed matrix is
    combined = np.einsum("qm,qij->mij", basis, sums)
    combined.flags.writeable = False
    normal, rhs = combined[:, :, :d], combined[:, :, d]
    coef = np.full((n_comp, d), np.nan)
    cond = np.empty(n_comp)
    neg = [0] * n_comp
    failures: dict[int, SingularNormalMatrix] = {}
    for m in range(n_comp):
        eig = np.linalg.eigvalsh(normal[m])
        magnitudes = np.abs(eig)
        smallest = magnitudes.min()
        cond[m] = np.inf if smallest == 0.0 else magnitudes.max() / smallest
        if not (np.isfinite(cond[m]) and cond[m] <= xtx_tol):
            failures[m] = SingularNormalMatrix(m, cond[m], xtx_tol)
            continue
        # LU with partial pivoting: valid for the indefinite case, unlike
        # Cholesky; never form the explicit inverse
        coef[m] = np.linalg.solve(normal[m], rhs[m])
        neg[m] = int(np.count_nonzero(eig < 0.0))
    return FitResult(
        coefficients=coef,
        det_gamma=gramian.det_gamma,
        xtx_condition=cond,
        negative_eigenvalues=tuple(neg),
        n_obs=data.n_obs,
        errors=failures,
        normal_matrices=tuple(None if m in failures else normal[m] for m in range(n_comp)),
        gamma_inverse=gamma_inverse,
    )
