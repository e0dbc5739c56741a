"""Exception types shared across the package."""

from __future__ import annotations


def _rebuild(cls, args, kwargs):
    return cls(*args, **kwargs)


class MvcregError(Exception):
    """Base class for all errors raised by this package.

    Pickles with its type, message and attributes, so an error raised in a
    study worker process reaches the parent intact.  The subclasses build
    their message from other constructor arguments, so unpickling calls
    the constructor with those arguments, not with the message as the
    default reduction would.
    """

    #: short machine-parsable slug, used by the CLI diagnostic prefix
    code = "error"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._init_args = (args, kwargs)
        return self

    def __reduce__(self):
        return (_rebuild, (type(self), *self._init_args), self.__dict__)


class SingularGramian(MvcregError):
    """Concentration Gramian is (near-)singular; components not identifiable.

    Raised when ``cond(Gamma)`` exceeds the configured ceiling.  The
    consistency theory requires ``det(Gamma)`` bounded away from zero: the
    concentration vectors must stay linearly independent.  ``det`` is kept
    as a diagnostic; the gate is the scale-free condition number.
    """

    code = "singular-gramian"

    def __init__(self, det: float, condition: float, tol: float):
        self.det = float(det)
        self.condition = float(condition)
        self.tol = float(tol)
        super().__init__(
            f"cond(Gamma)={condition:.6g} > tol={tol:.6g} (det(Gamma)={det:.6g}); "
            "concentration columns are (near-)linearly dependent, violating the "
            "identifiability condition det(Gamma) > C > 0 required for consistency"
        )


class SingularNormalMatrix(MvcregError):
    """Weighted normal matrix for one component is numerically singular.

    Signals a finite-sample violation of the condition that the component's
    regressor second-moment matrix D be nonsingular.
    """

    code = "singular-normal-matrix"

    def __init__(self, component: int, condition: float, tol: float):
        self.component = int(component)
        self.condition = float(condition)
        self.tol = float(tol)
        super().__init__(
            f"weighted normal matrix X'AX for component index {component} has "
            f"condition number {condition:.6g} > tol={tol:.6g}; the second-moment "
            "matrix D of the regressors must be nonsingular for the estimator to "
            "be consistent"
        )


class SingularD(MvcregError):
    """Second-moment matrix D of the target component is singular.

    The sandwich covariance V = D^-1 Sigma D^-1 requires a nonsingular D.
    """

    code = "singular-d"

    def __init__(self, component: int, detail: str = ""):
        self.component = int(component)
        msg = (
            f"second-moment matrix D for component index {component} is singular; "
            "the asymptotic covariance D^-1 Sigma D^-1 is undefined"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DataFormatError(MvcregError):
    """Input data file does not follow the expected layout."""

    code = "data-format"


class ConfigError(MvcregError):
    """Invalid simulation or study configuration."""

    code = "config-error"

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class ExcessiveFailures(MvcregError):
    """Too many replications of a study grid point failed to fit."""

    code = "excessive-failures"

    def __init__(self, n_obs: int, failures: int, rep_count: int):
        self.n_obs = int(n_obs)
        self.failures = int(failures)
        self.rep_count = int(rep_count)
        super().__init__(
            f"{failures} of {rep_count} replications failed at n_obs={n_obs}; "
            "a summary needs at least half of them, and at least two, to fit"
        )


class WorkerLost(MvcregError):
    """A worker process of a pool ended before it returned its task's result.

    A worker killed by a signal or by the out-of-memory killer, say; the
    pool cannot go on without it, so the command stops.
    """

    code = "worker-lost"
