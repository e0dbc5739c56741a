"""Asymptotic covariance of the modified least-squares estimator.

The scaled estimator fluctuations of each target component ``m`` converge to
N(0, V_m) with the sandwich

    V_m = D_m^-1 Sigma_m D_m^-1,

where D_m is the target component's regressor second-moment matrix and,
writing ``w[s] = <(a^m)^2 p^s>`` and ``c[s, t] = <(a^m)^2 p^s p^t>`` for the
limiting weight co-moments and ``delta_s = b^(s) - b^(m)``,

    Sigma_m[i, k] = sum_s w[s] * (D2_s[i, k] * sigma_s^2
                                  + delta_s' L4_s[i, k] delta_s)
                  - sum_{s,t} c[s, t] * (D2_s delta_s)[i] * (D2_t delta_t)[k].

The double sum is evaluated through the d x M matrix of vectors
``u_s = D2_s delta_s`` as ``U c U'``, which is algebraically identical to the
four-index product tensor but O(M^2 d^2).

Two modes are provided: analytic (true component moments supplied, used to
validate simulations) and plug-in (every population quantity replaced by its
weighted-empirical estimate from one dataset).  Each returns one
:class:`AsymptoticCovariance` for all M components, whose ``sigma`` and ``v``
are M x d x d with slab ``m`` for target ``m``.  Both call one assembler
with every component's D2, sigma^2 and b stacked, the M x M x M co-moments
and the M x M d x d contractions ``delta_s' L4_s delta_s``, and never form
L4.  The analytic mode assumes Gaussian regressors (a constant has sd 0), for
which Isserlis' theorem gives, with means mu and ``u = D2 delta``,

    delta' L4 delta = (delta' D2 delta) D2 + 2 (u u' - (mu' delta)^2 mu mu').

Only the analytic mode refuses a singular D (``SingularD``), since there D
comes from the config; the plug-in's D are the normal matrices the fit
already gated with its own ``xtx_tol``.  Both gates take the condition
number from :func:`~mvcreg.estimator.conditions`.

The plug-in mode takes, for each component ``s``, M + 1 weighted sums over
the rows: its weight co-moments as a target, its error variance, and, for
each of the M - 1 other targets ``m``, the contraction
``(1/N) sum_j a[j, s] (x_j' delta)^2 x_j x_j'`` with ``delta = b_s - b_m``;
M (M + 1) row sums in all, taken in one pass over the row blocks.  A block
forms its rows of each weight column ``a[:, s] = p G[:, s]``, from the
fit's inverse Gramian ``G``, and of the residuals and row weights, so no
N-vector is made: a block's few ``_CHUNK_ROWS``-vectors are all there is
beside the data.  For a table in the CSV reader's shared mappings,
forked workers sum the blocks, each reading only its own rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import freeze
from .concentrations import ConcentrationMatrix
from .errors import DataFormatError, SingularD
from .estimator import FitResult, conditions
from .moments import (
    ComponentMoments,
    Dataset,
    _block_sums,
    _rows_times,
    _symmetric,
    _weighted_products,
)

# Unused here since neither mode forms L4; kept so code that reaches the
# tensor route through this module (the benchmark's tracer self-test does)
# still finds it.
from .moments import weighted_fourth_moment  # noqa: F401

_D_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Sandwich covariance of every component.

    ``sigma`` and ``v`` are M x d x d, slab ``m`` for target component ``m``.
    ``std_errors`` is the M x d array sqrt(V[m, i, i] / N) in plug-in mode
    and ``None`` in analytic mode, where no sample size is involved.
    ``warnings`` records finite-sample degeneracies, each note once: clamped
    negative error variances in component order, then negative diagonals of
    V in target order.
    """

    sigma: np.ndarray
    v: np.ndarray
    std_errors: np.ndarray | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        freeze(self, "sigma", "v", "std_errors")


def _sandwiches(
    d2: np.ndarray, sigma2: np.ndarray, b: np.ndarray, co: np.ndarray, quartic: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sigma and V of every target, each M x d x d.

    ``d2`` (M x d x d), ``sigma2`` (length M) and ``b`` (M x d) hold every
    component's D2, error variance and coefficients.  ``co[m]`` is target
    ``m``'s M x M weight co-moments and ``quartic[m, s]`` the d x d
    contraction ``delta' L4_s delta`` of component ``s``'s fourth moments
    with ``delta = b_s - b_m``.
    """
    w = co.sum(axis=2)  # w[m, s] = <(a^m)^2 p^s>: rows of p sum to one
    sigma = np.zeros_like(d2)
    for s in range(len(d2)):
        sigma += w[:, s, None, None] * (d2[s] * sigma2[s] + quartic[:, s])
    u = np.swapaxes(_times(d2, b - b[:, None]), 1, 2)  # u[m, :, s] = D2_s (b_s - b_m)
    sigma -= u @ co @ np.swapaxes(u, 1, 2)
    sigma = (sigma + np.swapaxes(sigma, 1, 2)) / 2.0
    half = np.linalg.solve(d2, sigma)  # D^-1 Sigma
    v = np.swapaxes(np.linalg.solve(d2, np.swapaxes(half, 1, 2)), 1, 2)  # (D^-1 Sigma) D^-1
    return sigma, (v + np.swapaxes(v, 1, 2)) / 2.0


def _times(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrices @ vectors``, each product the same BLAS call as a lone ``matrix @ vector``."""
    return (matrices @ vectors[..., None])[..., 0]


def _gaussian_quartic(d2: np.ndarray, mean: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``delta' L4 delta`` of Gaussian regressors, by Isserlis' theorem.

    ``d2`` (... x d x d), ``mean`` and ``delta`` (... x d) broadcast over
    their leading axes.
    """
    u = _times(d2, delta)
    shift = mean * _times(mean[..., None, :], delta)
    return _times(delta[..., None, :], u)[..., None] * d2 + 2.0 * (
        u[..., :, None] * u[..., None, :] - shift[..., :, None] * shift[..., None, :]
    )


def analytic_sigma(moments: ComponentMoments, co_moments: np.ndarray) -> AsymptoticCovariance:
    """Assemble Sigma and V of every component from true component moments.

    Parameters
    ----------
    moments : ComponentMoments
        Every component's second moments and means of its Gaussian
        regressors, error variance, and coefficient vector.
    co_moments : ndarray
        M x M x M array whose slab ``m`` holds the symmetric limits
        ``<(a^m)^2 p^s p^t>`` of target ``m``'s weights, as
        :func:`~mvcreg.simgen.limit_co_moments` returns them.

    Returns
    -------
    AsymptoticCovariance
        M x d x d ``sigma`` and ``v``; ``std_errors`` is ``None``.

    Raises
    ------
    ValueError
        If ``co_moments`` is not M x M x M or a slab is not symmetric.
    SingularD
        If some component's second-moment matrix is singular.
    """
    d2, b = moments.d2, moments.b
    co = np.asarray(co_moments, dtype=float)
    if co.shape != (len(d2),) * 3:
        raise ValueError("co_moments must be M x M x M")
    if not _symmetric(co):
        raise ValueError("co_moments must be symmetric")
    cond, _ = conditions(d2)
    singular = np.flatnonzero(cond > _D_CONDITION_LIMIT)
    if singular.size:
        raise SingularD(singular[0], f"condition number {cond[singular[0]]:.3g}")
    # quartic[m, s] with delta = b_s - b_m
    quartic = _gaussian_quartic(d2, moments.mean, b - b[:, None])
    sigma, v = _sandwiches(d2, moments.sigma2, b, co, quartic)
    return AsymptoticCovariance(sigma=sigma, v=v)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, once
def plug_in_covariance(
    data: Dataset, p: ConcentrationMatrix, fit: FitResult
) -> AsymptoticCovariance:
    """Plug-in estimate of the sandwich covariance of every component.

    Every population quantity in Sigma is replaced by its weighted-empirical
    counterpart: component ``s``'s moments use the weights of component
    ``s``, the error variance is the weighted mean squared residual at that
    component's fitted coefficients, and the co-moment limits are replaced by
    their finite-sample averages.  Each component's D2 is the normal matrix
    its fit already solved, behind the fit's own condition gate.  The rest
    is M + 1 weighted row sums of each component ``s``, all taken in one
    pass over the row blocks, each of which forms its rows of the weight
    columns ``a[:, s]``: the weight co-moments, the error variance and, for each
    other target ``m``, the fourth-moment term, which enters
    only contracted, as ``(1/N) sum_j a[j, s] (x_j' delta)^2 x_j x_j'`` with
    ``delta = b_s - b_m``.

    A negative weighted residual variance (possible with signed weights) is
    clamped to zero and reported through ``warnings`` instead of failing the
    whole covariance, as is a target whose V has a negative diagonal, which
    gives a standard error of 0.  Data whose sums here overflow the float
    range are refused with ``DataFormatError``.

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
    AsymptoticCovariance
        M x d x d ``sigma`` and ``v`` and M x d ``std_errors``, in component
        order.
    """
    if fit.errors:
        bad = sorted(fit.errors)
        raise ValueError(
            f"plug-in covariance needs every component fitted; components {bad} failed"
        )
    if data.n_obs != p.n_obs:
        raise ValueError("dataset and concentration matrix disagree on N")
    n, x, y, values = data.n_obs, data.x, data.y, p.values
    b = fit.coefficients
    n_comp = p.n_components
    # quartic[m, s] = delta' L4_s delta with delta = b_s - b_m, zero where
    # s == m; co[m] = the weight co-moments of a_m
    quartic = np.zeros((n_comp, n_comp, data.n_regressors, data.n_regressors))
    co = np.empty((n_comp,) * 3)
    sigma2 = np.empty(n_comp)
    notes: list[str] = []
    others = [[m for m in range(n_comp) if m != s] for s in range(n_comp)]

    def block(rows):  # the M + 1 sums of every component, in component order
        p_rows, x_rows = values[rows], x[rows]
        sums = []
        for s in range(n_comp):
            weights = _rows_times(values, fit.gramian.inverse[:, s], rows)  # a_s
            # the squared residuals, then for each other target the row
            # weights a_s (x' delta)^2 of delta' L4_s delta
            scratch = _rows_times(x, b[s], rows)
            np.subtract(y[rows], scratch, out=scratch)
            np.square(scratch, out=scratch)
            sums.append(np.einsum("j,j->", weights, scratch))
            sums += _weighted_products(p_rows, np.square(weights), p_rows)
            for m in others[s]:
                scratch = _rows_times(x, b[s] - b[m], rows)
                np.square(scratch, out=scratch)
                scratch *= weights
                sums += _weighted_products(x_rows, scratch, x_rows)
        return sums

    totals = _block_sums(x, block)
    for s in range(n_comp):
        residual_sum, co_sum, *quartic_sums = totals[s * (n_comp + 1) : (s + 1) * (n_comp + 1)]
        co_sum /= n
        co[s] = (co_sum + co_sum.T) / 2.0
        sigma2[s] = residual_sum / n
        if sigma2[s] < 0.0:
            notes.append(
                f"degenerate-variance: component index {s} plug-in error variance "
                f"{sigma2[s]:.6g} clamped to 0"
            )
            sigma2[s] = 0.0
        for m, total in zip(others[s], quartic_sums):
            quartic[m, s] = total / n

    sigma, v = _sandwiches(fit.normal_matrices, sigma2, b, co, quartic)
    if not np.isfinite(v).all():
        raise DataFormatError("the plug-in covariance of the data overflows the float range")
    variances = np.diagonal(v, axis1=1, axis2=2)
    for m in np.flatnonzero(np.any(variances < 0.0, axis=1)):  # what np.maximum clamps
        notes.append(
            f"degenerate-variance: component index {m} plug-in V has negative "
            f"diagonal entries (min {variances[m].min():.6g}); standard errors clamped"
        )
    return AsymptoticCovariance(
        sigma=sigma,
        v=v,
        std_errors=np.sqrt(np.maximum(variances, 0.0) / n),
        warnings=tuple(notes),
    )
