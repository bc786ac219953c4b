"""perfbench's excuse for the Wilking recheck defect, reached from tier-1.

``workloads.known_recheck_defect`` runs only when a Wilking certificate
fails, which no seed-0 benchmark run reaches.  It rebuilds the
certificate through the public API (``SpElement.from_array`` and ``-``,
``bracket``, ``norm``, ``bi_inner``, ``DeformedMetric.apply`` and
``inverse_apply``, ``numerator``, ``TangentPlane``), so without this test
a removal there would pass tier-1 and still break the benchmark's
``fixed`` probe on seed 4.  The module is loaded by path and left as it
is.  This test goes away with the defect (ROADMAP item 2).
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from sp2curv import algebra, curvature, experiments, metric

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_seed_4_wilking_failures_are_the_known_recheck_defect():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    api = SimpleNamespace(algebra=algebra, curvature=curvature,
                          experiments=experiments, metric=metric)
    report = experiments.verify_wilking(4, workloads.WILKING_CONTRACT_METRICS)
    assert report.failures
    for i, cert in report.failures:
        failure = {"metric_index": i, "case_tag": cert.case_tag,
                   "k_value": cert.k_value}
        assert workloads.known_recheck_defect(api, 4, failure), i
