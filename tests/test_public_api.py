"""Every exported name resolves, so a deletion cannot leave an export dangling."""

import importlib
import inspect

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


def _defaulted_parameters() -> list:
    """``name.parameter`` for every parameter with a default among the
    exported functions and the public methods of the exported classes."""
    found = []
    for name in sp2curv.__all__:
        obj = getattr(sp2curv, name)
        if inspect.isclass(obj):
            members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                       if attr == "__init__" or not attr.startswith("_")]
        else:
            members = [(name, obj)]
        for qualname, member in members:
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if inspect.isfunction(member):
                found += [f"{qualname}.{p.name}"
                          for p in inspect.signature(member).parameters.values()
                          if p.default is not inspect.Parameter.empty]
    return found


# Each option a caller sets: the CLI's (--samples, --tol, lemma1's draw,
# theorem1's t_values), perfbench's lemma0 deformations and the tests'
# injected oracle bracket.  A new option shows up here as a reviewed diff.
OPTIONS = [
    "classify_plane.orbit_tol",
    "run_baseline_suite.samples",
    "run_lemma0_suite.samples",
    "run_lemma0_suite.deformations",
    "run_oracle_suite.samples",
    "run_oracle_suite.tol",
    "run_oracle_suite.bracket_fn",
    "sample_commuting_plane.draw",
    "verify_lemma1.n_samples",
    "verify_lemma1.draw",
    "verify_lemma1.c2_tol",
    "verify_theorem1.n_samples",
    "verify_theorem1.t_values",
    "verify_theorem1.pos_tol",
    "verify_wilking.n_metrics",
    "verify_wilking.tol",
]


def test_defaulted_parameters_are_the_options_ledger():
    assert _defaulted_parameters() == OPTIONS
