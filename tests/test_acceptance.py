"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single pass/fail
line with the measured numbers.  Sample counts and tolerances here are
the contract; the unit test modules cover the same code at smaller
scale.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from sp2curv import (
    DeformedMetric,
    TangentPlane,
    bracket,
    reference_deformation,
    run_baseline_suite,
    run_lemma0_suite,
    run_oracle_suite,
    second_derivative_closed_form,
    u_tensor,
    verify_lemma1,
    verify_theorem1,
    verify_wilking,
)
from sp2curv import experiments
from sp2curv.cli import main

from conftest import element

SEED = 0
E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
          f" [{detail}]")
    return ok


def test_criterion_1_bracket_matches_matrix_oracle():
    rep = run_oracle_suite(SEED, 10000, tol=1e-12)
    ok = (rep.passed and rep.max_bracket_error <= 1e-12
          and rep.inner_ratio_spread < 1e-12 and rep.elapsed_seconds < 1.0)
    assert report(
        1, "bracket oracle", ok,
        f"max_err={rep.max_bracket_error:.2e}"
        f" ratio={rep.inner_ratio} spread={rep.inner_ratio_spread:.2e}"
        f" elapsed={rep.elapsed_seconds:.2f}s")


def test_criterion_2_special_pair_exact_values():
    x = element(v=E1)
    y = element(w=E2)
    worst = 0.0
    for t in (0.01, 0.1):
        metric = DeformedMetric(reference_deformation(), t)
        uxx = u_tensor(metric, x, x)
        expected = np.zeros(10)
        expected[1:4] = (t * t * E1 - t * E2) / (1.0 - t * t)
        worst = max(worst, float(np.abs(uxx.data - expected).max()))
        uxy = u_tensor(metric, x, y)
        worst = max(worst, float(np.abs(uxy.data).max()))
        br = bracket(y, metric.apply(y))
        expected = np.zeros(10)
        expected[1:4] = t * E1
        worst = max(worst, float(np.abs(br.data - expected).max()))
    ok = worst <= 1e-12
    assert report(2, "special pair closed forms", ok,
                  f"max_deviation={worst:.2e} at t in (0.01, 0.1)")


def test_criterion_3_jet_vanishing_on_commuting_planes():
    assert experiments._LEMMA0_TOL == 1e-10  # the suite's own pass bound
    rep = run_lemma0_suite(SEED, 10000, deformations=100)
    ok = (rep.passed and rep.max_abs_c0 <= 1e-10 and rep.max_abs_c1 <= 1e-10
          and rep.min_c2 >= -1e-10 and rep.max_closed_form_gap <= 1e-10
          and rep.elapsed_seconds < 60.0)
    assert report(
        3, "jet vanishing", ok,
        f"c0={rep.max_abs_c0:.2e} c1={rep.max_abs_c1:.2e}"
        f" min_c2={rep.min_c2:.2e} gap={rep.max_closed_form_gap:.2e}"
        f" elapsed={rep.elapsed_seconds:.1f}s")


def test_criterion_4_dichotomy_with_reference_deformation():
    rep = verify_lemma1(SEED, 10000)
    case2 = second_derivative_closed_form(
        reference_deformation(),
        TangentPlane(element(u=E3, w=E1), element(v=E3)))
    ok = (rep.passed and not rep.violations
          and rep.min_generic_c2 > 0.0
          and rep.max_special_abs_c2 <= 1e-10
          and rep.max_special_c3_defect <= 1e-8
          and abs(case2 - 3.5) <= 1e-10)
    assert report(
        4, "positivity dichotomy", ok,
        f"violations={len(rep.violations)}"
        f" min_generic_c2={rep.min_generic_c2:.2e}"
        f" special_c2={rep.max_special_abs_c2:.2e}"
        f" c3_defect={rep.max_special_c3_defect:.2e}"
        f" case2_second_derivative={case2!r}")


def test_criterion_5_deformed_positivity():
    rep = verify_theorem1(SEED, 10000, t_values=(0.001, 0.01))
    ok = (rep.passed and rep.sigma in (-1, 1)
          and all(s.min_k > 0.0 for s in rep.scans)
          and rep.opposite_sign_k < 0.0)
    margins = " ".join(
        f"min_k({s.t})={s.min_k:.3e} (k/t^3={s.min_k_over_t3:.3f})"
        for s in rep.scans)
    assert report(
        5, "deformed positivity", ok,
        f"sigma={rep.sigma} {margins}"
        f" opposite k({rep.opposite_sign_t})={rep.opposite_sign_k:.3e}"
        f" frontier_t={rep.frontier_t}")


def test_criterion_6_nonpositive_plane_for_every_metric():
    rep = verify_wilking(SEED, 1000, tol=1e-10)
    ok = (rep.passed and not rep.failures and rep.max_k_value <= 1e-10
          and rep.max_commutator_residual <= 1e-10
          and rep.elapsed_seconds < 30.0)
    assert report(
        6, "nonpositive planes", ok,
        f"metrics={rep.metrics} max_k={rep.max_k_value:.2e}"
        f" max_[x,z]={rep.max_commutator_residual:.2e}"
        f" cases={rep.case_counts} elapsed={rep.elapsed_seconds:.1f}s")


def test_criterion_7_flat_baseline():
    assert experiments._BASELINE_TOL == 1e-12  # the suite's own pass bound
    rep = run_baseline_suite(SEED, 10000)
    ok = (rep.passed and rep.min_k >= -1e-12
          and rep.max_commuting_k <= 1e-12)
    assert report(
        7, "flat baseline", ok,
        f"min_k={rep.min_k:.2e} max_commuting_k={rep.max_commuting_k:.2e}")


def test_criterion_8_deterministic_payloads():
    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        payload = json.loads(buf.getvalue())
        payload.pop("timing_seconds")
        return code, json.dumps(payload, sort_keys=True)

    ok = True
    for argv in (["lemma1", "--samples", "200", "--seed", "42"],
                 ["theorem1", "--samples", "120", "--seed", "11"],
                 ["wilking", "--samples", "40", "--seed", "7"]):
        code_a, first = capture(argv)
        code_b, second = capture(argv)
        ok = ok and code_a == code_b == 0 and first == second
    assert report(8, "deterministic payloads", ok,
                  "three commands, identical JSON modulo timing")
