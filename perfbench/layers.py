"""Per-layer metrics of a traced pass.

For each workload, ``REACH`` lists the boundaries its pass calls on
every seed; each gets ``<workload>.<boundary>.calls`` and
``<workload>.<boundary>.self_s``.  A boundary a workload never reaches
is left out rather than reported as a constant zero.  The waste ratios
are computed from the same spans, restricted to the operations of one
kind (``ops`` maps each op to its span index range).
"""

from __future__ import annotations

import spans as sp

REACH = {
    "jets": (
        "cli.main",
        "experiments.verify_lemma1",
        "experiments.run_lemma0_suite",
        "experiments.sample_commuting_plane",
        "experiments.classify_plane",
        "cartan.sample_cartan",
        "cartan.centralizer_in_m",
        "cartan.special_orbit_distance",
        "cartan.canonicalize",
        "curvature.TangentPlane.orthonormalized",
        "curvature.numerator_jet",
        "curvature.second_derivative_closed_form",
        "curvature.is_commuting_pair",
        "metric.random_deformation",
    ),
    "fixed": (
        "cli.main",
        "experiments.verify_theorem1",
        "experiments.run_baseline_suite",
        "experiments.run_oracle_suite",
        "experiments.verify_wilking",
        "experiments.sample_commuting_plane",
        "experiments.measure_sigma",
        "experiments.wilking_pair",
        "experiments.verify_wilking_inequalities",
        "cartan.sample_cartan",
        "cartan.centralizer_in_m",
        "curvature.TangentPlane.orthonormalized",
        "curvature.numerator_jet",
        "curvature.sectional_curvature",
        "curvature.numerator",
        "curvature.denominator",
        "metric.DeformedMetric.init",
        "metric.DeformedMetric.apply",
        "metric.DeformedMetric.inverse_apply",
        "metric.random_admissible_metric",
        "metric.MetricDeformation.is_positive_definite",
        "algebra.bracket",
        "algebra.to_matrix",
        "algebra.from_matrix",
        "algebra.QuatMatrix.matmul",
    ),
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else float("nan")


def _select(recorded, ops, kinds) -> list:
    """The spans of the ops whose kind is in ``kinds``, parents re-indexed."""
    keep = [i for kind, lo, hi in ops if kind in kinds for i in range(lo, hi)]
    new = {old: new for new, old in enumerate(keep)}
    return [[*recorded[i][:sp.PARENT], new.get(recorded[i][sp.PARENT], -1),
             *recorded[i][sp.PARENT + 1:]] for i in keep]


def waste_ratios(workload: str, recorded, ops) -> dict:
    """Waste ratios of one traced pass; ``ops`` is [(kind, lo, hi)]."""

    def calls(kinds, name):
        return sum(1 for s in _select(recorded, ops, kinds) if s[sp.NAME] == name)

    if workload == "jets":
        suites = ("lemma1", "lemma0")
        return {
            "jets.curvature.orthonormalized.per_plane": _ratio(
                calls(suites, "curvature.TangentPlane.orthonormalized"),
                calls(suites, "experiments.sample_commuting_plane")),
            "jets.curvature.numerator_jet.per_classify": _ratio(
                calls(("classify",), "curvature.numerator_jet"),
                calls(("classify",), "cli.main")),
        }
    return {
        "fixed.curvature.sectional_curvature.per_plane": _ratio(
            calls(("theorem1",), "curvature.sectional_curvature"),
            calls(("theorem1",), "experiments.sample_commuting_plane")),
        "fixed.metric.random_admissible_metric.attempts_per_metric": _ratio(
            sp.count_children(_select(recorded, ops, ("wilking",)),
                              "metric.random_admissible_metric",
                              "metric.MetricDeformation.is_positive_definite"),
            calls(("wilking",), "metric.random_admissible_metric")),
    }


def raised_calls(recorded, ops, kind: str, name: str) -> int:
    """Calls of ``name`` that raised, within the ops of ``kind``.

    Printed, not a metric: it is 0 whenever the run is correct.
    """
    return sum(1 for s in _select(recorded, ops, (kind,))
               if s[sp.NAME] == name and s[sp.RAISED])


def layer_metrics(workload: str, recorded, ops) -> dict:
    stats = sp.self_times(recorded)
    out = {}
    for name in REACH[workload]:
        rec = stats.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{workload}.{name}.calls"] = (rec["calls"], "count")
        out[f"{workload}.{name}.self_s"] = (rec["self_s"], "s")
    for name, value in waste_ratios(workload, recorded, ops).items():
        out[name] = (value, "ratio")
    return out
