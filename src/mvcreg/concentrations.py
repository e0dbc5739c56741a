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
only the M x M ``G`` that :func:`build_gramian` returns with ``Gamma``; the
N x M weight matrix is built only where it is the output (``mvcreg
weights``).

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

from ._arrays import freeze
from .errors import SingularGramian
from .moments import _CHUNK_ROWS, _finite, _row_block_products

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

    ``values`` is kept read-only, as :mod:`mvcreg._arrays` sets out.
    """

    values: np.ndarray
    row_sum_tol: InitVar[float] = 1e-9

    def __post_init__(self, row_sum_tol: float):
        freeze(self, "values")
        values = self.values
        if values.ndim != 2:
            raise ValueError("concentration matrix must be two-dimensional")
        n, m = values.shape
        if m < 1:
            raise ValueError("need at least one component")
        if n < m:
            raise ValueError(f"need at least as many observations as components (N={n} < M={m})")
        if not _finite(values):
            raise ValueError("concentration matrix contains non-finite entries")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("concentration entries must lie in [0, 1]")
        # the first of the rows whose sum is furthest from 1, a block at a time
        worst, worst_err = 0, -1.0
        for start in range(0, n, _CHUNK_ROWS):
            row_err = values[start : start + _CHUNK_ROWS].sum(axis=1)
            row_err -= 1.0
            np.abs(row_err, out=row_err)
            k = int(np.argmax(row_err))
            if row_err[k] > worst_err:
                worst, worst_err = start + k, row_err[k]
        if worst_err > row_sum_tol:
            raise ValueError(
                f"row {worst} sums to {values[worst].sum():.12g}, "
                f"off 1 by more than {row_sum_tol:g}"
            )

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GramianSummary:
    """Gramian of the concentration columns with its determinant, condition and inverse.

    ``condition`` is the ratio of the largest to the smallest eigenvalue of
    ``gamma``, infinite when the smallest is not positive; ``inverse`` is
    ``G = Gamma^-1``.
    """

    gamma: np.ndarray
    det_gamma: float
    condition: float
    inverse: np.ndarray

    def __post_init__(self):
        freeze(self, "gamma", "inverse")
        object.__setattr__(self, "det_gamma", float(self.det_gamma))
        object.__setattr__(self, "condition", float(self.condition))


def build_gramian(p: ConcentrationMatrix, gamma_tol: float = DEFAULT_GAMMA_TOL) -> GramianSummary:
    """The concentration Gramian and its inverse, behind the identifiability gate.

    Parameters
    ----------
    p : ConcentrationMatrix
        Validated concentrations.
    gamma_tol : float, optional
        Ceiling for ``cond(Gamma)``.

    Returns
    -------
    GramianSummary
        ``gamma = (1/N) p'p`` with ``det_gamma`` and ``condition``, both
        from its eigenvalues, and ``inverse``, from one LU solve (partial
        pivoting) of ``gamma`` against the identity; it takes no square
        roots, so hand values such as ``1 / 0.5`` stay exact.

    Raises
    ------
    SingularGramian
        If ``cond(Gamma) > gamma_tol``: the concentration columns are
        (near-)linearly dependent and the components are not identifiable.
        The error carries the determinant and the condition.
    """
    values = p.values
    n = p.n_obs
    gamma = np.einsum("jl,jm->lm", values, values) / n
    gamma = (gamma + gamma.T) / 2.0
    eig = np.linalg.eigvalsh(gamma)  # ascending
    det = float(np.prod(eig))
    condition = np.inf if eig[0] <= 0.0 else float(eig[-1] / eig[0])
    if not condition <= gamma_tol:
        raise SingularGramian(det, condition, gamma_tol)
    try:
        inverse = np.linalg.solve(gamma, np.eye(gamma.shape[0]))
    except np.linalg.LinAlgError:
        # only a ceiling near 1/eps lets a Gramian this close to singular through
        raise SingularGramian(det, np.inf, gamma_tol) from None
    inverse.flags.writeable = False  # handed over to GramianSummary
    return GramianSummary(gamma=gamma, det_gamma=det, condition=condition, inverse=inverse)


def compute_weights(p: ConcentrationMatrix, g: GramianSummary) -> np.ndarray:
    """Build the minimax weight matrix ``a = p Gamma^-1``.

    Parameters
    ----------
    p : ConcentrationMatrix
        Concentrations the weights are built from.
    g : GramianSummary
        Gramian of ``p`` from :func:`build_gramian`, which applied the
        identifiability gate at the caller's ceiling.

    Returns
    -------
    ndarray
        Read-only N x M ``p`` times ``g.inverse``, one column per component.
        Column ``m`` weights the observations when component ``m`` is the
        estimation target; whenever M > 1 some weights must be negative for
        the biorthogonality identity to hold.
    """
    a = p.values @ g.inverse
    a.flags.writeable = False
    return a


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
    (out,) = _row_block_products(p.values, np.square(a_col).__getitem__, p.values)
    out /= p.n_obs
    return (out + out.T) / 2.0
