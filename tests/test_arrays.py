"""Every value class takes its arrays by the one rule of ``mvcreg._arrays``."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import mvcreg
from mvcreg.concentrations import ConcentrationMatrix, GramianSummary
from mvcreg.covariance import AsymptoticCovariance
from mvcreg.estimator import FitBasis, FitResult
from mvcreg.moments import ComponentMoments, Dataset
from mvcreg.montecarlo import GridPointSummary, MonteCarloReport
from mvcreg.simgen import DrawPlan, ExplicitConcentrations, SimulatedDataset

_P = [[0.2, 0.8], [0.6, 0.4], [0.9, 0.1]]
_EYE = [[1.0, 0.0], [0.0, 1.0]]
_GAMMA = [[0.4, 0.1], [0.1, 0.4]]
_GAMMA_INVERSE = [[8 / 3, -2 / 3], [-2 / 3, 8 / 3]]
_GRAMIAN = GramianSummary(gamma=_GAMMA, det_gamma=0.15, condition=5 / 3, inverse=_GAMMA_INVERSE)

#: constructor arguments of each value class; lists of floats become float
#: arrays and the one list of ints an int64 array
VALUE_CLASSES = {
    Dataset: dict(y=[1.0, 2.0, 3.0], x=[[1.0, 0.5], [2.0, 0.1], [3.0, 0.7]]),
    ConcentrationMatrix: dict(values=_P),
    GramianSummary: dict(gamma=_GAMMA, det_gamma=0.15, condition=5 / 3, inverse=_GAMMA_INVERSE),
    AsymptoticCovariance: dict(sigma=[_EYE], v=[_EYE], std_errors=[[0.1, 0.2]]),
    FitResult: dict(
        coefficients=[[1.0, 2.0], [3.0, 4.0]],
        gramian=_GRAMIAN,
        xtx_condition=[1.0, 2.0],
        negative_eigenvalues=(0, 0),
        n_obs=3,
        errors={},
        normal_matrices=[_EYE, _EYE],
    ),
    FitBasis: dict(
        gramian=_GRAMIAN,
        p=ConcentrationMatrix(_P),
        centre=[0.4, 0.6],
        columns=[[0.1, -0.2, 0.1], [1.0, 1.0, 1.0]],
        combination=[[3.0, -3.0], [1.0, 1.0]],
    ),
    ComponentMoments: dict(d2=[_EYE], mean=[[0.0, 1.0]], sigma2=[0.25], b=[[1.0, 2.0]]),
    GridPointSummary: dict(
        n_obs=10,
        rep_count=2,
        failures=0,
        mean_b=[[1.0, 2.0]],
        scaled_cov=[_EYE],
        estimates=[[[1.0, 2.0]], [[1.0, 2.0]]],
    ),
    MonteCarloReport: dict(seed=0, true_b=[[1.0, 2.0]], analytic_v=[_EYE], points=()),
    ExplicitConcentrations: dict(values=_P),
    SimulatedDataset: dict(
        data=Dataset(y=[1.0, 2.0, 3.0], x=[[1.0], [2.0], [4.0]]),
        p=ConcentrationMatrix(_P),
        labels=[0, 1, 0],
    ),
    DrawPlan: dict(
        concentrations=ExplicitConcentrations(values=_P),
        n_obs=3,
        means=[[1.0, 0.0], [1.0, 2.0]],
        sds=[[0.0, 1.0], [0.0, 0.5]],
        coefficients=[[1.0, 2.0], [3.0, 4.0]],
        error_sds=[0.1, 0.2],
    ),
}


def _array_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type.startswith("np.ndarray")]


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_takes_arrays_by_one_rule(cls):
    kwargs = VALUE_CLASSES[cls]
    names = _array_fields(cls)
    assert names and set(names) <= kwargs.keys()

    def build(writeable):
        given = {name: np.array(kwargs[name]) for name in names}
        for arr in given.values():
            arr.flags.writeable = writeable
        return given, cls(**{**kwargs, **given})

    # a caller's writeable array is copied and keeps its flags
    given, obj = build(writeable=True)
    for name in names:
        kept = getattr(obj, name)
        assert not kept.flags.writeable, name
        assert given[name].flags.writeable, name
        assert not np.shares_memory(kept, given[name]), name
        np.testing.assert_array_equal(kept, given[name])
    # a read-only array that owns its memory is kept without a copy
    given, obj = build(writeable=False)
    for name in names:
        assert getattr(obj, name) is given[name], name


def test_every_array_holding_dataclass_is_covered():
    found = set()
    for info in pkgutil.iter_modules(mvcreg.__path__):
        module = importlib.import_module(f"mvcreg.{info.name}")
        for obj in vars(module).values():
            if (
                dataclasses.is_dataclass(obj)
                and isinstance(obj, type)
                and obj.__module__ == module.__name__
                and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))
            ):
                found.add(obj)
    assert found == set(VALUE_CLASSES)
