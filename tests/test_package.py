import importlib
import inspect

import pytest

import mvcreg


def test_every_public_name_resolves_through_the_lazy_table():
    for name in mvcreg.__all__:
        module = importlib.import_module(f"mvcreg.{mvcreg._EXPORTS[name]}")
        assert getattr(mvcreg, name) is getattr(module, name)
    namespace = {}
    exec("from mvcreg import *", namespace)
    assert set(mvcreg.__all__) <= set(namespace)
    assert {"__all__", "__version__", *mvcreg.__all__} <= set(dir(mvcreg))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mvcreg.no_such_name  # noqa: B018


def test_each_table_entry_names_the_defining_module():
    assert sorted(mvcreg._EXPORTS) == mvcreg.__all__
    for name, module_name in mvcreg._EXPORTS.items():
        module = importlib.import_module(f"mvcreg.{module_name}")
        value = vars(module)[name]
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
