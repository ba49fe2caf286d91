"""The benchmark's tracer wraps pepslab names: each must still resolve.

``pepsbench/tracing.py`` lists the functions and methods it wraps by name. A
rename in the package would break every traced run (``--trace``), so this
test loads that list, without installing anything, and looks each name up.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "pepsbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_pepsbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("home,name", [(home, name) for home, names in tracing.FUNCTIONS.items()
                                       for name in names])
def test_traced_functions_resolve(home, name):
    assert callable(getattr(importlib.import_module(f"pepslab.{home}"), name))


@pytest.mark.parametrize("home,cls,method", tracing.METHODS)
def test_traced_methods_resolve(home, cls, method):
    owner = getattr(importlib.import_module(f"pepslab.{home}"), cls)
    assert callable(vars(owner)[method])


def test_counted_names_are_traced():
    traced = {f"{home}.{name}" for home, names in tracing.FUNCTIONS.items() for name in names}
    traced |= {f"{home}.{cls}.{method}" for home, cls, method in tracing.METHODS}
    assert set(tracing.CONTRACTION_ENTRY) <= traced
    assert set(tracing.EXTRAS) <= traced
