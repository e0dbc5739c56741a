"""Argument refusals of the library functions, one table row each.

Each row calls one function with one bad argument and names the error type
and the exact message it must raise.
"""

import numpy as np
import pytest

from mvcreg import (
    ComponentMoments,
    ConcentrationMatrix,
    analytic_sigma,
    component_regression_moments,
    fit_all,
    plug_in_covariance,
    reference_study_config,
    true_component_moments,
    weight_co_moments,
)
from conftest import dirichlet_design

_LENGTH = "weight vector length must match the number of observations"
_N_MISMATCH = "dataset and concentration matrix disagree on N"


def _config():
    config, _ = reference_study_config()
    return config


def _moments():
    return true_component_moments(_config())


def _design():
    # 2 components, intercept plus one regressor, N = 300
    return dirichlet_design(5, 2, 2)


def _other_p():
    # a valid concentration matrix one row shorter than the design's
    data, p = _design()
    return ConcentrationMatrix(p.values[:-1])


def _plug_in_mismatch():
    data, p = _design()
    plug_in_covariance(data, _other_p(), fit_all(data, p))


def _component_moments(**bad):
    args = dict(d2=[np.eye(2)], mean=np.zeros((1, 2)), sigma2=[1.0], b=np.zeros((1, 2)))
    ComponentMoments(**{**args, **bad})


REFUSALS = {
    "analytic_sigma co-moments not M x M": (
        lambda: analytic_sigma(_moments(), np.eye(2)),
        ValueError,
        "co_moments must be M x M x M",
    ),
    "analytic_sigma co-moments asymmetric": (
        lambda: analytic_sigma(_moments(), np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]])),
        ValueError,
        "co_moments must be symmetric",
    ),
    "plug_in_covariances N mismatch": (_plug_in_mismatch, ValueError, _N_MISMATCH),
    "fit_all N mismatch": (
        lambda: fit_all(_design()[0], _other_p()),
        ValueError,
        _N_MISMATCH,
    ),
    "ComponentMoments d2 not square": (
        lambda: _component_moments(d2=np.ones((1, 2, 3))),
        ValueError,
        "d2 must be M x d x d",
    ),
    "ComponentMoments d2 not stacked": (
        lambda: _component_moments(d2=np.eye(2)),
        ValueError,
        "d2 must be M x d x d",
    ),
    "ComponentMoments mean length": (
        lambda: _component_moments(mean=np.zeros((1, 3))),
        ValueError,
        "mean must have one entry per component and regressor",
    ),
    "ComponentMoments b length": (
        lambda: _component_moments(b=np.zeros((1, 1))),
        ValueError,
        "b must have one entry per component and regressor",
    ),
    "ComponentMoments sigma2 length": (
        lambda: _component_moments(sigma2=[1.0, 1.0]),
        ValueError,
        "sigma2 must have one entry per component",
    ),
    "component_regression_moments weight length": (
        lambda: component_regression_moments(_design()[0], np.ones(299)),
        ValueError,
        _LENGTH,
    ),
    "component_regression_moments weight matrix": (
        lambda: component_regression_moments(_design()[0], np.ones((300, 1))),
        ValueError,
        _LENGTH,
    ),
    "weight_co_moments weight length": (
        lambda: weight_co_moments(np.ones(301), _design()[1]),
        ValueError,
        _LENGTH,
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
