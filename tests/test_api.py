"""Every exported name resolves, in the package and in each module, and
names taken out of the API stay out."""

import dataclasses
import importlib
import pkgutil

import pytest

import ucdkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(ucdkit.__path__))


def test_package_all_resolves():
    assert [name for name in ucdkit.__all__ if not hasattr(ucdkit, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"ucdkit.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []


# names taken out of the API, by the module that exported them
REMOVED = {
    "oracle": ("exact_value_table",),
    "clho": ("approx_value",),
    "costs": ("startup_cost_reference",),
    "scenario": ("bundled_scenario_path",),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items()
                                          for n in names])
def test_removed_names_stay_unexported(module, name):
    assert name not in ucdkit.__all__ and not hasattr(ucdkit, name)
    assert name not in importlib.import_module(f"ucdkit.{module}").__all__


def test_train_config_has_no_basis_knob():
    assert [f.name for f in dataclasses.fields(ucdkit.TrainConfig)] == [
        "samples", "regularization", "seed"]
