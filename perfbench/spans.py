"""In-memory span tracing at sp2curv's layer boundaries.

A ``Tracer`` replaces each boundary function by a wrapper that records a
span ``[name, start, end, parent, raised]`` and calls the original.  The
suites bind names with ``from .x import y``, so a function is replaced in
every ``sp2curv`` module that holds it, not only where it is defined;
methods are replaced on their class.  Leaving the ``with`` block puts
every original object back.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

# Every traced boundary as (layer name, module, attribute path).  The
# layer name is the one the per-layer metrics use.
BOUNDARIES = (
    ("cli.main", "sp2curv.cli", "main"),
    ("experiments.verify_lemma1", "sp2curv.experiments", "verify_lemma1"),
    ("experiments.run_lemma0_suite", "sp2curv.experiments", "run_lemma0_suite"),
    ("experiments.verify_theorem1", "sp2curv.experiments", "verify_theorem1"),
    ("experiments.run_baseline_suite", "sp2curv.experiments", "run_baseline_suite"),
    ("experiments.run_oracle_suite", "sp2curv.experiments", "run_oracle_suite"),
    ("experiments.verify_wilking", "sp2curv.experiments", "verify_wilking"),
    ("experiments.sample_commuting_plane", "sp2curv.experiments", "sample_commuting_plane"),
    ("experiments.classify_plane", "sp2curv.experiments", "classify_plane"),
    ("experiments.measure_sigma", "sp2curv.experiments", "measure_sigma"),
    ("experiments.wilking_pair", "sp2curv.experiments", "wilking_pair"),
    ("experiments.verify_wilking_inequalities", "sp2curv.experiments",
     "verify_wilking_inequalities"),
    ("cartan.sample_cartan", "sp2curv.cartan", "sample_cartan"),
    ("cartan.centralizer_in_m", "sp2curv.cartan", "centralizer_in_m"),
    ("cartan.special_orbit_distance", "sp2curv.cartan", "special_orbit_distance"),
    ("cartan.canonicalize", "sp2curv.cartan", "canonicalize"),
    ("curvature.TangentPlane.orthonormalized", "sp2curv.curvature",
     "TangentPlane.orthonormalized"),
    ("curvature.numerator_jet", "sp2curv.curvature", "numerator_jet"),
    ("curvature.second_derivative_closed_form", "sp2curv.curvature",
     "second_derivative_closed_form"),
    ("curvature.sectional_curvature", "sp2curv.curvature", "sectional_curvature"),
    ("curvature.numerator", "sp2curv.curvature", "numerator"),
    ("curvature.denominator", "sp2curv.curvature", "denominator"),
    ("curvature.is_commuting_pair", "sp2curv.curvature", "is_commuting_pair"),
    ("metric.DeformedMetric.init", "sp2curv.metric", "DeformedMetric.__init__"),
    ("metric.DeformedMetric.apply", "sp2curv.metric", "DeformedMetric.apply"),
    ("metric.DeformedMetric.inverse_apply", "sp2curv.metric",
     "DeformedMetric.inverse_apply"),
    ("metric.random_admissible_metric", "sp2curv.metric", "random_admissible_metric"),
    ("metric.random_deformation", "sp2curv.metric", "random_deformation"),
    # Traced for the rejection count of random_admissible_metric only.
    ("metric.MetricDeformation.is_positive_definite", "sp2curv.metric",
     "MetricDeformation.is_positive_definite"),
    ("algebra.bracket", "sp2curv.algebra", "bracket"),
    ("algebra.to_matrix", "sp2curv.algebra", "to_matrix"),
    ("algebra.from_matrix", "sp2curv.algebra", "from_matrix"),
    ("algebra.QuatMatrix.matmul", "sp2curv.algebra", "QuatMatrix.__matmul__"),
)

NAME, START, END, PARENT, RAISED = range(5)


class Tracer:
    """Context manager that traces ``BOUNDARIES`` while it is active."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sp2curv"
                                         or key.startswith("sp2curv."))]
        try:
            for name, module, path in BOUNDARIES:
                owner = sys.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original)
                if outer:
                    self._patch(owner, attr, original, wrapper)
                    continue
                # A module-level function: replace it wherever it is bound.
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False

    @property
    def patched(self):
        """The (owner, attribute, original) triples currently replaced."""
        return list(self._patched)


def self_times(spans) -> dict:
    """Per span name: ``{"calls", "self_s", "raised"}``.

    A span's self time is its duration minus the durations of its direct
    children.  Spans come from one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict = {}
    for i, span in enumerate(spans):
        rec = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "raised": 0})
        rec["calls"] += 1
        rec["self_s"] += span[END] - span[START] - child_time[i]
        rec["raised"] += bool(span[RAISED])
    return out


def count_children(spans, parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
    return sum(1 for s in spans
               if s[NAME] == child_name and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == parent_name)
