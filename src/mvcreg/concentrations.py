"""Concentration Gramian, its inverse and the minimax weights.

The mixing probabilities of the observations form an N x M row-stochastic
matrix ``p``.  Averaging products of its columns gives the M x M Gramian
``Gamma = (1/N) p'p`` whose nonsingularity is the identifiability condition
for the mixture.  The minimax weights are

    a = p G,    G = Gamma^-1,

the unique linear-in-p weight system satisfying the biorthogonality identity
``(1/N) sum_j a[j, m] p[j, k] = delta(m, k)``.  Because they are linear in
``p``, every weighted sum over the observations is G applied to the same sums
weighted by the concentration columns, so the fit and the covariance need
only the M x M ``G`` from :func:`invert_gramian`; the N x M weight matrix is
built only where it is the output (``mvcreg weights``).

Identifiability is judged by ``cond(Gamma)``, not by ``det(Gamma)``: the
determinant of a well-conditioned Gramian still shrinks geometrically with M
(uniform Dirichlet rows give about 1e-9 at M=6 and 1e-20 at M=10), so an
absolute floor on it refuses good designs.  Every eigenvalue of ``Gamma`` is
at most ``trace Gamma <= 1``, hence ``det(Gamma) > 1e-8`` implies
``cond(Gamma) < 1e8``, the default ceiling.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from ._arrays import frozen
from .errors import SingularGramian
from .moments import _row_block_products

#: default ceiling on cond(Gamma); beyond it the concentration columns are
#: treated as linearly dependent and the components as not identifiable
DEFAULT_GAMMA_TOL = 1e8


@dataclass(frozen=True)
class ConcentrationMatrix:
    """Known mixing probabilities, one row per observation.

    Parameters
    ----------
    values : ndarray
        N x M matrix; row ``j`` holds the probabilities that observation ``j``
        belongs to each of the M components.  Entries must lie in [0, 1] and
        each row must sum to 1 within ``row_sum_tol``.
    row_sum_tol : float, optional
        Tolerance for the row-sum check.  Rows are validated, never
        renormalized: off-simplex input is a modeling error, not noise.

    ``values`` is kept read-only.  A float array that owns its memory and is
    already read-only is handed over and kept as is, without a copy; its
    producer must not write to it again.  Any other array is copied.
    """

    values: np.ndarray
    row_sum_tol: InitVar[float] = 1e-9

    def __post_init__(self, row_sum_tol: float):
        values = frozen(self.values)
        if values.ndim != 2:
            raise ValueError("concentration matrix must be two-dimensional")
        n, m = values.shape
        if m < 1:
            raise ValueError("need at least one component")
        if n < m:
            raise ValueError(f"need at least as many observations as components (N={n} < M={m})")
        if not np.all(np.isfinite(values)):
            raise ValueError("concentration matrix contains non-finite entries")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("concentration entries must lie in [0, 1]")
        row_err = values.sum(axis=1)  # the one N-sized temporary, worked in place
        row_err -= 1.0
        np.abs(row_err, out=row_err)
        worst = int(np.argmax(row_err))
        if row_err[worst] > row_sum_tol:
            raise ValueError(
                f"row {worst} sums to {values[worst].sum():.12g}, "
                f"off 1 by more than {row_sum_tol:g}"
            )
        object.__setattr__(self, "values", values)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GramianSummary:
    """Gramian of the concentration columns with determinant and condition.

    ``condition`` is the ratio of the largest to the smallest eigenvalue of
    ``gamma``, infinite when the smallest is not positive.
    """

    gamma: np.ndarray
    det_gamma: float
    condition: float

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)
        gamma.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "det_gamma", float(self.det_gamma))
        object.__setattr__(self, "condition", float(self.condition))


@dataclass(frozen=True)
class WeightMatrix:
    """Minimax weights, one column per component.

    Column ``m`` weights the observations when component ``m`` is the
    estimation target.  Entries are signed: whenever M > 1 some weights must
    be negative for the biorthogonality identity to hold.

    ``values`` is kept read-only.  A float array that owns its memory and is
    already read-only is handed over and kept as is, without a copy; its
    producer must not write to it again.  Any other array is copied.
    """

    values: np.ndarray

    def __post_init__(self):
        values = frozen(self.values)
        if values.ndim != 2:
            raise ValueError("weights must be an N x M matrix")
        if not np.all(np.isfinite(values)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "values", values)


def build_gramian(p: ConcentrationMatrix) -> GramianSummary:
    """Compute the concentration Gramian with its determinant and condition.

    Parameters
    ----------
    p : ConcentrationMatrix
        Validated concentrations.

    Returns
    -------
    GramianSummary
        ``gamma = (1/N) p'p`` with ``det_gamma`` and ``condition``, both
        from its eigenvalues.  Singularity is diagnosed downstream, not
        here: a degenerate design still gets its Gramian reported.
    """
    values = p.values
    n = p.n_obs
    gamma = np.einsum("jl,jm->lm", values, values) / n
    gamma = (gamma + gamma.T) / 2.0
    eig = np.linalg.eigvalsh(gamma)  # ascending
    condition = np.inf if eig[0] <= 0.0 else float(eig[-1] / eig[0])
    return GramianSummary(gamma=gamma, det_gamma=float(np.prod(eig)), condition=condition)


def invert_gramian(g: GramianSummary, gamma_tol: float = DEFAULT_GAMMA_TOL) -> np.ndarray:
    """The inverse Gramian ``G = Gamma^-1`` behind the identifiability gate.

    Parameters
    ----------
    g : GramianSummary
        Gramian of the concentrations, from :func:`build_gramian`.
    gamma_tol : float, optional
        Ceiling for ``cond(Gamma)``.

    Returns
    -------
    ndarray
        Read-only M x M ``G`` from one LU solve (partial pivoting) of
        ``Gamma`` against the identity; it takes no square roots, so hand
        values such as ``1 / 0.5`` stay exact.

    Raises
    ------
    SingularGramian
        If ``cond(Gamma) > gamma_tol``: the concentration columns are
        (near-)linearly dependent and the components are not identifiable.
    """
    if not g.condition <= gamma_tol:
        raise SingularGramian(g.det_gamma, g.condition, gamma_tol)
    try:
        inv = np.linalg.solve(g.gamma, np.eye(g.gamma.shape[0]))
    except np.linalg.LinAlgError:
        # only a ceiling near 1/eps lets a Gramian this close to singular through
        raise SingularGramian(g.det_gamma, np.inf, gamma_tol) from None
    inv.flags.writeable = False
    return inv


def compute_weights(
    p: ConcentrationMatrix,
    g: GramianSummary | None = None,
    gamma_tol: float = DEFAULT_GAMMA_TOL,
) -> WeightMatrix:
    """Build the minimax weight matrix ``a = p Gamma^-1``.

    Parameters
    ----------
    p : ConcentrationMatrix
        Concentrations the weights are built from.
    g : GramianSummary, optional
        Precomputed Gramian of ``p``; computed here when omitted.
    gamma_tol : float, optional
        Ceiling for ``cond(Gamma)``, as in :func:`invert_gramian`.

    Returns
    -------
    WeightMatrix
        ``p`` times the inverse Gramian of :func:`invert_gramian`.

    Raises
    ------
    SingularGramian
        If ``cond(Gamma) > gamma_tol``.
    """
    if g is None:
        g = build_gramian(p)
    a = p.values @ invert_gramian(g, gamma_tol)
    a.flags.writeable = False  # handed over to WeightMatrix without a copy
    return WeightMatrix(values=a)


def weight_co_moments(a_col: np.ndarray, p: ConcentrationMatrix) -> np.ndarray:
    """Averaged products of squared weights with concentration pairs.

    ``a_col`` is one component's weight column ``a[:, m] = p G[:, m]``.
    Returns the M x M matrix with (s, t) entry
    ``(1/N) sum_j a[j, m]**2 p[j, s] p[j, t]``, the finite-sample proxy for
    the limiting co-moments entering the asymptotic covariance.  Symmetric by
    construction; its row sums estimate ``<(a^m)^2 p^s>`` because the
    concentration rows sum to one.
    """
    a_col = np.asarray(a_col, dtype=float)
    if a_col.shape != (p.n_obs,):
        raise ValueError("weight vector length must match the number of observations")
    (out,) = _row_block_products(p.values, np.square(a_col), p.values)
    out /= p.n_obs
    return (out + out.T) / 2.0
