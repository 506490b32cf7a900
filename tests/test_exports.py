import importlib
import pkgutil

import pytest

import qphase

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(qphase.__path__))


def test_public_modules_declare_exports():
    declared = [m for m in MODULES if hasattr(importlib.import_module(f"qphase.{m}"), "__all__")]
    assert {"lattice", "gaussian_entropy", "stochastic", "wigner", "plusp"} <= set(declared)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"qphase.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
