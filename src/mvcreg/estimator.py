"""Modified least-squares estimator for mixture regression coefficients.

For target component ``m`` the estimate solves the weighted normal equations

    (X'AX) b = X'AY,    A = diag(a[:, m]),

with the signed minimax weights from :mod:`mvcreg.concentrations`.  Because
some weights are negative, ``X'AX`` is symmetric but possibly indefinite: the
solve is LU with partial pivoting, which needs no definiteness, and the
eigenvalue signs are surfaced as a diagnostic rather than assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .concentrations import (
    ConcentrationMatrix,
    GramianSummary,
    WeightMatrix,
    build_gramian,
    compute_weights,
)
from .errors import DegenerateWeights, SingularNormalMatrix
from .moments import Dataset, component_regression_moments

#: default ceiling on cond(X'AX); beyond it the component is reported as
#: rank-deficient instead of silently returning noise
DEFAULT_XTX_TOL = 1e10

_WEIGHT_FLOOR = 1e-12  # mean |a| below this means the component got no mass


@dataclass(frozen=True)
class ComponentFit:
    """Fit of a single component: coefficients plus solver diagnostics.

    ``normal_matrix`` is the weighted normal matrix ``X'AX / N`` that was
    solved, which is also the component's plug-in second-moment matrix D2.
    """

    coefficients: np.ndarray
    condition: float
    negative_eigenvalues: int
    normal_matrix: np.ndarray

    def __post_init__(self):
        for name in ("coefficients", "normal_matrix"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class FitResult:
    """Per-component coefficient estimates with shared diagnostics.

    ``coefficients`` row ``m`` solves that component's normal equations; rows
    of failed components are NaN and the failure is recorded in ``errors``
    keyed by component index.  ``normal_matrices`` holds each component's
    ``X'AX / N`` (``None`` where the fit failed) for reuse by the plug-in
    covariance.  ``plug_in_cov`` stays ``None`` until filled by the
    covariance module.
    """

    coefficients: np.ndarray
    det_gamma: float
    xtx_condition: np.ndarray
    negative_eigenvalues: tuple[int, ...]
    n_obs: int
    errors: dict[int, SingularNormalMatrix | DegenerateWeights]
    normal_matrices: tuple[np.ndarray | None, ...]
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


def _solve_component(
    data: Dataset, weights: WeightMatrix, m: int, xtx_tol: float
) -> ComponentFit:
    """The one solve of a component's normal equations, behind every gate."""
    mean_abs = float(weights.mean_abs[m])
    if mean_abs < _WEIGHT_FLOOR:
        raise DegenerateWeights(m, mean_abs)
    xtx, xty = component_regression_moments(data, weights.values[:, m])
    eig = np.linalg.eigvalsh(xtx)
    magnitudes = np.abs(eig)
    largest = float(magnitudes.max())
    smallest = float(magnitudes.min())
    condition = np.inf if smallest == 0.0 else largest / smallest
    if not (np.isfinite(condition) and condition <= xtx_tol):
        raise SingularNormalMatrix(m, condition, xtx_tol)
    # LU with partial pivoting: valid for the indefinite case, unlike
    # Cholesky; never form the explicit inverse
    coef = np.linalg.solve(xtx, xty)
    return ComponentFit(
        coefficients=coef,
        condition=condition,
        negative_eigenvalues=int(np.count_nonzero(eig < 0.0)),
        normal_matrix=xtx,
    )


def fit_all(
    data: Dataset,
    p: ConcentrationMatrix,
    xtx_tol: float = DEFAULT_XTX_TOL,
    gramian: GramianSummary | None = None,
    weights: WeightMatrix | None = None,
) -> FitResult:
    """Fit every component, sharing one Gramian and weight computation.

    This is the one solve path: ``mvcreg fit`` calls it once, and a
    replication study once per replication with the Gramian and weights of
    its grid point, so work that depends on the weights alone (the
    degenerate-weight floor) is done once per weight matrix.

    A singular Gramian aborts the whole fit; a singular normal matrix only
    fails its own component, which gets a NaN coefficient row and an entry in
    ``FitResult.errors``.  ``weights``, when given, must be those of ``p``;
    build them with ``compute_weights(p, gramian, gamma_tol=...)`` for a
    non-default identifiability ceiling.
    """
    if data.n_obs != p.n_obs:
        raise ValueError("dataset and concentration matrix disagree on N")
    if gramian is None:
        gramian = build_gramian(p)
    if weights is None:
        weights = compute_weights(p, gramian)
    n_comp = p.n_components
    d = data.n_regressors
    coef = np.full((n_comp, d), np.nan)
    cond = np.full(n_comp, np.nan)
    neg = []
    normal: list[np.ndarray | None] = []
    failures: dict[int, SingularNormalMatrix | DegenerateWeights] = {}
    for m in range(n_comp):
        try:
            fit = _solve_component(data, weights, m, xtx_tol)
        except (SingularNormalMatrix, DegenerateWeights) as exc:
            failures[m] = exc
            if isinstance(exc, SingularNormalMatrix):
                cond[m] = exc.condition
            neg.append(0)
            normal.append(None)
            continue
        coef[m] = fit.coefficients
        cond[m] = fit.condition
        neg.append(fit.negative_eigenvalues)
        normal.append(fit.normal_matrix)
    return FitResult(
        coefficients=coef,
        det_gamma=gramian.det_gamma,
        xtx_condition=cond,
        negative_eigenvalues=tuple(neg),
        n_obs=data.n_obs,
        errors=failures,
        normal_matrices=tuple(normal),
    )
