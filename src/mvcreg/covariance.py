"""Asymptotic covariance of the modified least-squares estimator.

The scaled estimator fluctuations converge to N(0, V) with the sandwich

    V = D^-1 Sigma D^-1,

where D is the target component's regressor second-moment matrix and, writing
``w[s] = <(a^m)^2 p^s>`` and ``c[s, t] = <(a^m)^2 p^s p^t>`` for the limiting
weight co-moments and ``delta_s = b^(s) - b^(m)``,

    Sigma[i, k] = sum_s w[s] * (D2_s[i, k] * sigma_s^2
                                + delta_s' L4_s[i, k] delta_s)
                - sum_{s,t} c[s, t] * (D2_s delta_s)[i] * (D2_t delta_t)[k].

The double sum is evaluated through the d x M matrix of vectors
``u_s = D2_s delta_s`` as ``U c U'``, which is algebraically identical to the
four-index product tensor but O(M^2 d^2).

Two modes are provided: analytic (true component moments supplied, used to
validate simulations) and plug-in (every population quantity replaced by its
weighted-empirical estimate from one dataset).  Both feed one assembler with
the M d x d contractions ``delta_s' L4_s delta_s`` and never form L4.  The
analytic mode assumes Gaussian regressors (a constant has sd 0), for which
Isserlis' theorem gives, with means mu and ``u = D2 delta``,

    delta' L4 delta = (delta' D2 delta) D2 + 2 (u u' - (mu' delta)^2 mu mu').

The plug-in mode makes one pass per component ``s``.  It forms the weight
column ``a[:, s] = p G[:, s]`` once, from the fit's inverse Gramian ``G``,
and from it takes the component's error variance, its weight co-moments when
``s`` is a target, and, for every target ``m``, the contraction
``(1/N) sum_j a[j, s] (x_j' delta)^2 x_j x_j'`` with ``delta = b_s - b_m``.
The column is freed before the next component's, so the N x M weight matrix
is never held: at most two N-vectors exist at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._arrays import freeze
from .concentrations import ConcentrationMatrix, weight_co_moments
from .errors import SingularD
from .estimator import FitResult
from .moments import ComponentMoments, Dataset, _row_block_products

# Unused here since neither mode forms L4; kept so code that reaches the
# tensor route through this module (the benchmark's tracer self-test does)
# still finds it.
from .moments import weighted_fourth_moment  # noqa: F401

_D_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Sandwich covariance for one component.

    ``std_errors`` holds sqrt(V[i, i] / N) in plug-in mode and is ``None`` in
    analytic mode, where no sample size is involved.  ``warnings`` records
    finite-sample degeneracies (clamped negative variance estimates).
    """

    sigma: np.ndarray
    v: np.ndarray
    component: int
    mode: str
    d_matrix: np.ndarray
    std_errors: np.ndarray | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        freeze(self, "sigma", "v", "d_matrix", "std_errors")


def _assemble_sigma(
    d2: Sequence[np.ndarray],
    sigma2: Sequence[float],
    b: Sequence[np.ndarray],
    co_moments: np.ndarray,
    m: int,
    quartic: np.ndarray,
) -> np.ndarray:
    """Sigma for target ``m`` from per-component D2, sigma^2 and b.

    ``quartic[s]`` is the d x d contraction ``delta' L4_s delta`` of
    component ``s``'s fourth moments with ``delta = b_s - b_m``.
    """
    n_comp = len(d2)
    co = np.asarray(co_moments, dtype=float)
    if co.shape != (n_comp, n_comp):
        raise ValueError("co_moments must be M x M")
    if not np.allclose(co, co.T, atol=1e-8):
        raise ValueError("co_moments must be symmetric")
    if not 0 <= m < n_comp:
        raise ValueError(f"component index {m} out of range")
    d = d2[m].shape[0]
    w = co.sum(axis=1)  # <(a^m)^2 p^s>: rows of p sum to one
    sigma = np.zeros((d, d))
    u = np.zeros((d, n_comp))  # u[:, s] = D2_s (b_s - b_m)
    for s in range(n_comp):
        sigma += w[s] * (d2[s] * sigma2[s] + quartic[s])
        u[:, s] = d2[s] @ (b[s] - b[m])
    sigma -= u @ co @ u.T
    return (sigma + sigma.T) / 2.0


def _sandwich(d2: np.ndarray, sigma: np.ndarray, component: int) -> np.ndarray:
    eig = np.abs(np.linalg.eigvalsh(d2))
    condition = eig.max() / eig.min() if eig.min() else np.inf
    if condition > _D_CONDITION_LIMIT:
        raise SingularD(component, f"condition number {condition:.3g}")
    half = np.linalg.solve(d2, sigma)  # D^-1 Sigma
    v = np.linalg.solve(d2, half.T).T  # (D^-1 Sigma) D^-1
    return (v + v.T) / 2.0


def _gaussian_quartic(moments: ComponentMoments, delta: np.ndarray) -> np.ndarray:
    """``delta' L4 delta`` of Gaussian regressors, by Isserlis' theorem."""
    d2, mean = moments.d2, moments.mean
    u = d2 @ delta
    shift = mean * (mean @ delta)
    return (delta @ u) * d2 + 2.0 * (np.outer(u, u) - np.outer(shift, shift))


def analytic_sigma(
    moments: list[ComponentMoments] | tuple[ComponentMoments, ...],
    co_moments: np.ndarray,
    m: int,
) -> AsymptoticCovariance:
    """Assemble Sigma and V from true component moments.

    Parameters
    ----------
    moments : sequence of ComponentMoments
        One entry per component: second moments and means of its Gaussian
        regressors, error variance, and coefficient vector.
    co_moments : ndarray
        M x M symmetric matrix of the limits ``<(a^m)^2 p^s p^t>`` for the
        target component's weights.
    m : int
        Target component, 0-based.

    Raises
    ------
    SingularD
        If the target component's second-moment matrix is singular.
    """
    sigma = _assemble_sigma(
        [mom.d2 for mom in moments],
        [mom.sigma2 for mom in moments],
        [mom.b for mom in moments],
        co_moments,
        m,
        np.array([_gaussian_quartic(mom, mom.b - moments[m].b) for mom in moments]),
    )
    v = _sandwich(moments[m].d2, sigma, m)
    return AsymptoticCovariance(
        sigma=sigma, v=v, component=m, mode="analytic", d_matrix=moments[m].d2
    )


def plug_in_covariances(
    data: Dataset, p: ConcentrationMatrix, fit: FitResult
) -> tuple[AsymptoticCovariance, ...]:
    """Plug-in estimates of the sandwich covariance of every component.

    Every population quantity in Sigma is replaced by its weighted-empirical
    counterpart: component ``s``'s moments use the weights of component
    ``s``, the error variance is the weighted mean squared residual at that
    component's fitted coefficients, and the co-moment limits are replaced by
    their finite-sample averages.  Each component's D2 is the normal matrix
    its fit already solved.  The rest takes one pass per component ``s``,
    which forms its weight column ``a[:, s]`` once and from it the error
    variance, the weight co-moments and, for every target ``m``, the
    fourth-moment term, which enters only contracted, as
    ``(1/N) sum_j a[j, s] (x_j' delta)^2 x_j x_j'`` with
    ``delta = b_s - b_m``.

    A negative weighted residual variance (possible with signed weights) is
    clamped to zero and reported through ``warnings`` instead of failing the
    whole covariance.  Every target's Sigma depends on every component's
    error variance, so each result's ``warnings`` carries all clamp notes,
    followed by that target's own note when its V has a negative diagonal.

    Parameters
    ----------
    data, p : Dataset, ConcentrationMatrix
        The observations the fit was computed from.
    fit : FitResult
        Successful fit of *all* components from these data; their
        coefficient differences and normal matrices enter Sigma, and its
        inverse Gramian gives the weights.

    Returns
    -------
    tuple of AsymptoticCovariance
        One entry per component, in component order.

    Raises
    ------
    SingularD
        If some component's second-moment matrix is singular.
    """
    if fit.errors:
        bad = sorted(fit.errors)
        raise ValueError(
            f"plug-in covariance needs every component fitted; components {bad} failed"
        )
    if data.n_obs != p.n_obs:
        raise ValueError("dataset and concentration matrix disagree on N")
    n = data.n_obs
    x = data.x
    b = fit.coefficients
    d2 = fit.normal_matrices
    n_comp = p.n_components
    # quartic[m, s] = delta' L4_s delta with delta = b_s - b_m, zero where
    # s == m; co[m] = the weight co-moments of a_m
    quartic = np.zeros((n_comp, n_comp, data.n_regressors, data.n_regressors))
    co = []
    clamp_notes: list[str] = []
    sigma2 = []
    for s in range(n_comp):
        weights = p.values @ fit.gamma_inverse[:, s]  # a_s
        co.append(weight_co_moments(weights, p))
        # the one N-sized array beside a_s: the squared residuals of the
        # weighted mean squared residual, then for each target the row
        # weights a_s (x' delta)^2 of delta' L4_s delta, summed over row blocks
        scratch = x @ b[s]
        np.subtract(data.y, scratch, out=scratch)
        np.square(scratch, out=scratch)
        sigma2_s = float(np.einsum("j,j->", weights, scratch) / n)
        if sigma2_s < 0.0:
            clamp_notes.append(
                f"degenerate-variance: component index {s} plug-in error variance "
                f"{sigma2_s:.6g} clamped to 0"
            )
            sigma2_s = 0.0
        sigma2.append(sigma2_s)
        for m in range(n_comp):
            if m != s:
                np.matmul(x, b[s] - b[m], out=scratch)
                np.square(scratch, out=scratch)
                scratch *= weights
                (quartic[m, s],) = _row_block_products(x, scratch, x)
                quartic[m, s] /= n
        del weights, scratch  # before the next component's

    covs = []
    for m in range(n_comp):
        sigma = _assemble_sigma(d2, sigma2, b, co[m], m, quartic[m])
        v = _sandwich(d2[m], sigma, m)
        notes = list(clamp_notes)
        variances = np.diag(v).copy()
        if np.any(variances < -1e-10):
            notes.append(
                f"degenerate-variance: component index {m} plug-in V has negative "
                f"diagonal entries (min {variances.min():.6g}); standard errors clamped"
            )
        covs.append(
            AsymptoticCovariance(
                sigma=sigma,
                v=v,
                component=m,
                mode="plug_in",
                d_matrix=d2[m],
                std_errors=np.sqrt(np.maximum(variances, 0.0) / n),
                warnings=tuple(notes),
            )
        )
    return tuple(covs)


def plug_in_covariance(
    data: Dataset, p: ConcentrationMatrix, fit: FitResult, m: int
) -> AsymptoticCovariance:
    """Plug-in sandwich covariance of component ``m``.

    Entry ``m`` of :func:`plug_in_covariances`, which it computes for every
    component: the pass over component ``s`` serves every target at once,
    so covering several components takes one call of that function.
    """
    if not 0 <= m < p.n_components:
        raise ValueError(f"component index {m} out of range")
    return plug_in_covariances(data, p, fit)[m]
