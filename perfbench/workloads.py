"""The benchmark's workloads: fixed operation sequences and their verdicts.

A workload is built from a seed into a list of ``Op``.  One pass runs
every op once, in order, each issued when the previous one returns
(closed loop, one client, no extra threads).  ``Op.run`` is the timed
call into sp2curv; ``Op.verdict``, called once the pass has run, checks
what it returned and extracts the fields that the committed references
pin down.  Each command op writes its report to a file of its own, so
that the verdicts can wait for the end of the pass.

Sizes are fixed here so that every ``wall_s`` is work at a stated size;
``BENCHMARK.json`` repeats them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

# Sizes per pass.  A pass is kept near half a second, so that a run
# holds about a hundred passes.  The suites take the same number of
# planes within a workload, as the acceptance gate does at its 10k
# contract size.
JETS_PLANES = 160
LEMMA0_DEFORMATIONS = 100
REPLAY_PLANES = 50
FIXED_PLANES = 120
THEOREM1_T = "0.001,0.01"
ORACLE_PAIRS = 1250
WILKING_METRICS = 125
# After its timed passes, ``fixed`` runs oracle and wilking once each at
# their acceptance contract size: the oracle suite against its 1 s budget,
# and wilking at the size where its known recheck defect shows on some
# seeds.
ORACLE_CONTRACT_PAIRS = 10000
WILKING_CONTRACT_METRICS = 1000
WILKING_TOL = 1e-10  # the wilking command's default tolerance
RECHECK_TOL = 1e-9  # verify_wilking_inequalities' default tolerance
# A Wilking failure can be the known recheck defect only on a metric
# whose smallest eigenvalue is below this (1e-5 to 1.5e-4 observed).
NEAR_SINGULAR = 1e-3

# Margins may move by rounding only.  The absolute part covers margins
# that are zero up to rounding, such as the baseline's min_k at t = 0.
# Violation and failure lists are pinned by which sample failed and how,
# not by the rounding-sensitive coordinates of their witnesses.
RTOL = 1e-6
ATOL = 1e-12


class OpFailed(Exception):
    """An operation exited nonzero, reported a failure or broke a check."""


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    verdict: Callable[[object], dict]
    latency: bool = False  # counted in op_p50_ms and op_p90_ms


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailed(what)


def report_paths(prefix: str):
    """One report file per command op: ``<prefix>-0.json``, ``-1``, ..."""
    return (f"{prefix}-{i}.json" for i in itertools.count())


def _cli_op(api, kind: str, argv: list, out: str, extract,
            latency: bool = False) -> Op:
    """An ``sp2curv`` command run in-process, its JSON report sent to ``out``."""
    argv = argv + ["--out", out]

    def run():
        try:
            return api.cli.main(argv)
        except SystemExit as exc:  # usage errors leave through parser.exit
            return exc.code

    def verdict(code):
        _require(code in (0, 1), f"{kind}: exit code {code}")
        try:
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
        finally:
            if os.path.exists(out):
                os.remove(out)
        result = extract(payload)
        # A report whose only failures are known defects exits 1.
        if not result.get("known_defects"):
            _require(code == 0 and payload["passed"] is True,
                     f"{kind}: exit code {code}, passed {payload['passed']}")
        return result

    return Op(kind, run, verdict, latency)


def _lemma1(payload):
    results, summary = payload["results"], payload["summary"]
    _require(results["violations"] == [], "lemma1: violations")
    return {
        "exact": {
            "classification_counts": results["classification_counts"],
            "kind_counts": results["kind_counts"],
            "family_counts": results["family_counts"],
            "violations": [[v["plane_id"], v["family"], v["kind"]]
                           for v in results["violations"]],
        },
        "margins": {"min_generic_c2": summary["generic_c2"]["min"]},
    }


def _lemma0(report):
    _require(report.passed, "lemma0: passed is false")
    return {"exact": {"samples": report.samples},
            "margins": {"min_c2": report.min_c2}}


def _theorem1(payload):
    results = payload["results"]
    margins = {"cubic_coefficient": results["cubic_coefficient"],
               "opposite_sign_k": results["opposite_sign"]["k_value"]}
    for i, scan in enumerate(results["scans"]):
        for key in ("min_k", "min_k_over_t2", "min_k_over_t3"):
            margins[f"scan{i}.{key}"] = scan[key]
    for i, point in enumerate(results["frontier"]):
        margins[f"frontier{i}.min_k"] = point["min_k"]
    return {
        "exact": {
            "sigma": results["sigma"],
            "scan_positive": [s["positive"] for s in results["scans"]],
            "frontier_positive": [p["positive"] for p in results["frontier"]],
            "frontier_t": results["frontier_t"],
        },
        "margins": margins,
    }


def _baseline(report):
    _require(report.passed, "baseline: passed is false")
    return {"exact": {"samples": report.samples},
            "margins": {"min_k": report.min_k}}


def _oracle(payload):
    results = payload["results"]
    return {"exact": {"samples": results["samples"]},
            "margins": {"inner_ratio": results["inner_ratio"]},
            "suite_s": payload["timing_seconds"]}


def known_recheck_defect(api, seed: int, failure: dict) -> bool:
    """Whether a reported Wilking failure is the known recheck defect.

    verify_wilking_inequalities requires the h part of w = [x, y] to be
    below 1e-9 * max(|w|, 1).  For a nearly singular metric, y = M^-1 z
    has a norm near 1e4 to 1e5 and the rounding of the bracket alone
    exceeds that bound (seed 4 metric 532, seed 11 metric 530: about 7
    of 40 seeds at 1000 metrics).  The failure counts as that defect
    only if the certificate rebuilt through the public API is the one
    reported, its metric is nearly singular, the h part of w is beyond
    the recheck's bound but within rounding of |y|, and every other step
    of the recheck passes at its own tolerance once that h part is
    dropped.  Any other failure is a real one.
    """
    al, tol = api.algebra, RECHECK_TOL
    index = failure["metric_index"]
    metric = api.metric.random_admissible_metric(
        np.random.default_rng([seed, 3, index])).as_metric()
    cert = api.experiments.wilking_pair(metric)
    if (cert.case_tag != failure["case_tag"]
            or cert.k_value != failure["k_value"]
            or cert.k_value > WILKING_TOL
            or cert.smallest_eigenvalue >= NEAR_SINGULAR):
        return False
    x, z, y = (al.SpElement.from_array(np.asarray(v))
               for v in (cert.x, cert.z, cert.y))
    w = al.bracket(x, y)
    if not tol * max(al.norm(w), 1.0) < abs(w.data[0]) <= tol * al.norm(y):
        return False
    w = al.SpElement.from_array(np.concatenate(([0.0], w.data[1:])))

    # The remaining steps of verify_wilking_inequalities, unchanged.
    lam = cert.smallest_eigenvalue
    resid = (al.bracket(x, metric.apply(y)).data
             + al.bracket(y, metric.apply(x)).data + lam * w.data)
    w_mw = al.bi_inner(w, metric.apply(w))
    w_w = al.bi_inner(w, w)
    w_minv_w = al.bi_inner(w, metric.inverse_apply(w))
    three_term = -0.75 * w_mw + 0.5 * lam * w_w + 0.25 * lam ** 2 * w_minv_w
    num = api.curvature.numerator(metric, api.curvature.TangentPlane(x, y))
    scale = max(w_w, 1.0)
    return (al.norm(al.bracket(x, z)) <= 1e-10
            and al.norm(metric.apply(y) - z) <= tol * max(al.norm(z), 1.0)
            and al.norm(metric.apply(x) - al.SpElement.from_array(lam * x.data))
            <= tol * al.norm(x)
            and float(np.max(np.abs(resid)))
            <= tol * max(al.norm(w) * abs(lam), 1.0)
            and abs(num - three_term) <= tol * scale
            and w_mw >= lam * w_w - tol * scale
            and w_minv_w <= w_w / lam + tol * scale
            and three_term <= tol * scale)


def _wilking(api, seed: int, payload):
    """Wilking verdict; only the known recheck defect may fail."""
    results = payload["results"]
    failures = results["failures"]
    _require(results["max_commutator_residual"] <= WILKING_TOL,
             "wilking: commutator residual")
    for f in failures:
        _require(known_recheck_defect(api, seed, f),
                 f"wilking: metric {f['metric_index']} fails beyond the "
                 f"known recheck defect")
    return {
        "exact": {"case_counts": results["case_counts"],
                  "failures": [[f["metric_index"], f["case_tag"]]
                               for f in failures]},
        "margins": {"max_k_value": results["max_k_value"]},
        "known_defects": len(failures),
    }


def _classify(payload):
    results = payload["results"]
    return {"exact": {"family": results["family"],
                      "classification": results["classification"]},
            "margins": {}}


def replay_planes(api, seed: int) -> list:
    """Classify-ready ``x``/``y`` strings of default-sampler planes.

    The strings are built the way lemma1's CSV builds its ``x`` and
    ``y`` columns: the orthonormalized spanning vectors, joined ``repr``.
    """
    planes = []
    for i in range(REPLAY_PLANES):
        plane, _, _ = api.experiments.sample_commuting_plane(seed, i)
        ortho = plane.orthonormalized()
        planes.append((",".join(repr(float(t)) for t in ortho.x.data),
                       ",".join(repr(float(t)) for t in ortho.y.data)))
    return planes


def build_jets(api, seed: int, prefix: str) -> list:
    """The degree-4 jet path: lemma1, lemma0, then classify per plane.

    The latency percentiles are over the classify calls.
    """
    ex, out = api.experiments, report_paths(prefix)
    return [
        _cli_op(api, "lemma1", ["lemma1", "--seed", str(seed),
                                "--samples", str(JETS_PLANES)],
                next(out), _lemma1),
        Op("lemma0", lambda: ex.run_lemma0_suite(
            seed, JETS_PLANES, deformations=LEMMA0_DEFORMATIONS), _lemma0),
    ] + [_cli_op(api, "classify", ["classify", x, y], next(out), _classify,
                 latency=True)
         for x, y in replay_planes(api, seed)]


def _crosscheck_ops(api, seed: int, out, pairs: int, metrics: int):
    return [
        _cli_op(api, "oracle", ["oracle", "--seed", str(seed),
                                "--samples", str(pairs)], next(out), _oracle),
        _cli_op(api, "wilking", ["wilking", "--seed", str(seed),
                                 "--samples", str(metrics)], next(out),
                lambda payload: _wilking(api, seed, payload)),
    ]


def build_fixed(api, seed: int, prefix: str) -> list:
    """Fixed-metric curvature and the independent routes.

    The latency percentiles are over the theorem1 calls, one per pass.
    """
    ex, out = api.experiments, report_paths(prefix)
    return [
        _cli_op(api, "theorem1", ["theorem1", "--seed", str(seed),
                                  "--samples", str(FIXED_PLANES),
                                  "--t", THEOREM1_T], next(out), _theorem1,
                latency=True),
        Op("baseline", lambda: ex.run_baseline_suite(
            seed, FIXED_PLANES), _baseline),
    ] + _crosscheck_ops(api, seed, out, ORACLE_PAIRS, WILKING_METRICS)


WORKLOADS = {
    "jets": build_jets,
    "fixed": build_fixed,
}


def build_probes(api, workload: str, seed: int, prefix: str) -> list:
    """Ops run once after the timed passes: checked, in no metric.

    Their reference verdicts follow those of the pass.
    """
    if workload == "fixed":
        return _crosscheck_ops(api, seed, report_paths(prefix + "-probe"),
                               ORACLE_CONTRACT_PAIRS, WILKING_CONTRACT_METRICS)
    return []


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare(expected: dict, got: dict) -> list:
    """Mismatches of ``got`` against a reference verdict, as messages.

    ``exact`` fields must be equal; ``margins`` may differ by rounding,
    within ``RTOL`` relative plus ``ATOL`` absolute.  A reference leaves
    out a group that is empty.
    """
    problems = []
    for key, value in expected.get("exact", {}).items():
        if got["exact"].get(key) != value:
            problems.append(f"{key}: expected {value!r}, got "
                            f"{got['exact'].get(key)!r}")
    margins = expected.get("margins", {})
    if set(margins) != set(got["margins"]):
        problems.append(f"margin fields: expected {sorted(margins)}"
                        f", got {sorted(got['margins'])}")
    for key, value in margins.items():
        if key in got["margins"] and not _close(value, got["margins"][key]):
            problems.append(f"{key}: expected {value!r}, got "
                            f"{got['margins'][key]!r}")
    return problems
