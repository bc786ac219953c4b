"""The traced counts that the benchmark's per-layer ratios divide by.

``perfbench/layers.py`` divides by the calls of ``sample_commuting_plane``
under theorem1 and of ``random_admissible_metric`` under wilking.  A suite
that stopped making one of those calls would turn its ratio into NaN, and
the benchmark's last line into invalid JSON (the slow end-to-end check is
``tests/test_benchmark_output.py``).  Here one traced pass per workload,
in-process, pins the counts.  The perfbench modules are loaded by path
and left as they are.
"""

import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from sp2curv import algebra, cli, curvature, experiments, metric

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's spans, layers and workloads modules, by path.

    layers imports spans by its bare name, so each is registered in
    sys.modules while loading; the previous entries come back after.
    """
    names = ("spans", "layers", "workloads")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        yield SimpleNamespace(**{name: sys.modules[name] for name in names})
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _traced_pass(bench, workload, tmp_path):
    """(spans, [(op kind, first span, end span)]) of one checked pass."""
    api = SimpleNamespace(cli=cli, experiments=experiments, algebra=algebra,
                          curvature=curvature, metric=metric)
    ops = bench.workloads.WORKLOADS[workload](api, 0, str(tmp_path / workload))
    results, ends = [], []
    with bench.spans.Tracer() as tracer:
        for op in ops:
            results.append(op.run())
            ends.append(len(tracer.spans))
    for op, result in zip(ops, results):
        op.verdict(result)
    return tracer.spans, [(op.kind, lo, hi) for op, lo, hi
                          in zip(ops, [0, *ends[:-1]], ends)]


def _spans_of(recorded, ranges, kind, name):
    return [i for k, lo, hi in ranges if k == kind for i in range(lo, hi)
            if recorded[i][0] == name]


@pytest.mark.parametrize("workload", ["fixed", "jets"])
def test_every_traced_ratio_is_finite(bench, workload, tmp_path):
    recorded, ranges = _traced_pass(bench, workload, tmp_path)
    found = bench.layers.layer_metrics(workload, recorded, ranges)
    assert {name: value for name, (value, _) in found.items()
            if not math.isfinite(value)} == {}
    if workload == "jets":
        assert found["jets.curvature.orthonormalized.per_plane"][0] == 1.5
        return

    planes = _spans_of(recorded, ranges, "theorem1",
                       "experiments.sample_commuting_plane")
    assert len(planes) == 120
    draws = _spans_of(recorded, ranges, "wilking",
                      "metric.random_admissible_metric")
    assert len(draws) == 125
    checks = Counter(recorded[i][3] for i in _spans_of(
        recorded, ranges, "wilking",
        "metric.MetricDeformation.is_positive_definite"))
    assert all(checks[i] >= 1 for i in draws)
    # Seed 0 draws its 125 metrics in 160 attempts.
    assert sum(checks.values()) == 160
    assert found["fixed.metric.random_admissible_metric.attempts_per_metric"][0] == 1.28
