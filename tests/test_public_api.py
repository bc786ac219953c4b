"""Every exported name resolves, so a deletion cannot leave an export dangling."""

import importlib

import pytest

import sp2curv

MODULES = ("algebra", "metric", "curvature", "cartan", "experiments")


def test_package_exports_resolve_once():
    assert len(sp2curv.__all__) == len(set(sp2curv.__all__))
    missing = [name for name in sp2curv.__all__ if not hasattr(sp2curv, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"sp2curv.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
