from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2curv import (
    DeformedMetric,
    MetricDeformation,
    SpElement,
    TangentPlane,
    bracket,
    classify_plane,
    measure_sigma,
    random_admissible_metric,
    random_deformation,
    reference_deformation,
    run_baseline_suite,
    run_lemma0_suite,
    run_oracle_suite,
    sample_commuting_plane,
    sectional_curvature,
    special_orbit_distance,
    special_plane,
    verify_lemma1,
    verify_theorem1,
    verify_wilking,
    verify_wilking_inequalities,
    wilking_pair,
)
from sp2curv import cartan, curvature, experiments
from sp2curv.algebra import (
    E1,
    E2,
    _bracket_rows,
    bi_inner,
    bi_inner_trace_form,
    bracket_oracle,
    norm,
)
from sp2curv.cartan import SPECIAL_ORBIT_TOL
from sp2curv.curvature import (
    _closed_form_rows,
    _numerator_jet_rows,
    _sectional_curvature_rows,
    numerator_jet,
    second_derivative_closed_form,
)
from sp2curv.experiments import _ORACLE_CHUNK

from conftest import bits, element


# ---- oracle suite ----


def test_oracle_suite_passes():
    report = run_oracle_suite(5, 300)
    assert report.passed
    assert report.max_bracket_error <= 1e-12
    assert report.inner_ratio == pytest.approx(2.0, abs=1e-13)
    assert report.inner_ratio_spread < 1e-12


def test_oracle_suite_catches_corrupted_bracket():
    def corrupted(x, y):
        out = bracket(x, y).data.copy()
        out[3] += 1e-9
        return SpElement.from_array(out)

    report = run_oracle_suite(5, 50, bracket_fn=corrupted)
    assert not report.passed
    assert report.max_bracket_error > 1e-12

    def nan_bracket(x, y):
        out = bracket(x, y).data.copy()
        out[3] = np.nan
        return SpElement.from_array(out)

    report = run_oracle_suite(5, 50, bracket_fn=nan_bracket)
    assert not report.passed
    assert np.isnan(report.max_bracket_error)


@pytest.mark.parametrize("samples", [1, 300, 3 * _ORACLE_CHUNK + 5])
def test_oracle_suite_matches_per_pair_oracle(samples):
    # The suite converts pairs to the matrix model in chunks; a pair by
    # pair loop through the public scalar oracle must give the same bits.
    seed = 5
    ratios = []
    for k in range(10):
        e = SpElement.from_array(np.eye(10)[k])
        ratios.append(bi_inner(e, e) / bi_inner_trace_form(e, e))
    draws = np.random.default_rng([seed, 0]).uniform(-1.0, 1.0, (samples, 2, 10))
    max_err = 0.0
    for xa, ya in draws:
        x, y = SpElement.from_array(xa), SpElement.from_array(ya)
        diff = bracket(x, y).data - bracket_oracle(x, y).data
        max_err = max(max_err, float(np.max(np.abs(diff))))
        tr = bi_inner_trace_form(x, y)
        if abs(tr) > 1e-1:
            ratios.append(bi_inner(x, y) / tr)
    ratios = np.asarray(ratios)
    ratio = float(np.median(ratios))

    checked = []

    def counted(x, y):
        checked.append(1)
        return bracket(x, y)

    report = run_oracle_suite(seed, samples, bracket_fn=counted)
    assert len(checked) == samples
    assert report.max_bracket_error == max_err
    assert report.inner_ratio == ratio
    assert report.inner_ratio_spread == float(
        (ratios.max() - ratios.min()) / abs(ratio))


def test_oracle_suite_checks_batched_bracket(monkeypatch):
    def corrupted(a, b):
        out = _bracket_rows(a, b)
        out[-1, 3] += 1e-9
        return out

    monkeypatch.setattr(experiments, "_bracket_rows", corrupted)
    report = run_oracle_suite(5, 300)
    assert not report.passed
    assert report.max_bracket_error > 1e-12


def test_oracle_suite_rejects_bad_counts():
    with pytest.raises(ValueError):
        run_oracle_suite(5, 0)


# ---- plane sampling ----


def test_sample_commuting_plane_is_deterministic():
    a, fam_a, kind_a = sample_commuting_plane(3, 17)
    b, fam_b, kind_b = sample_commuting_plane(3, 17)
    np.testing.assert_array_equal(a.x.data, b.x.data)
    np.testing.assert_array_equal(a.y.data, b.y.data)
    assert (fam_a, kind_a) == (fam_b, kind_b)


def test_sample_commuting_plane_mix():
    kinds = set()
    for i in range(30):
        plane, family, kind = sample_commuting_plane(6, i)
        x, y = plane.x, plane.y
        resid = np.abs(bracket(x, y).data).max()
        assert resid <= 1e-10 * max(1.0, np.abs([x.data, y.data]).max())
        assert family in ("F1", "F2", "F3", "F4")
        kinds.add(kind)
        if i % 5 == 4:
            assert kind in ("transverse", "centralizer", "on_orbit")
        else:
            assert kind == "uniform"
    assert kinds == {"uniform", "transverse", "centralizer", "on_orbit"}


def test_sample_commuting_plane_family_override():
    for i in range(8):
        _, family, kind = sample_commuting_plane(6, i, draw="F3")
        assert family == "F3"
        assert kind == "uniform"
    for draw in ("F9", "uniform"):
        with pytest.raises(ValueError):
            sample_commuting_plane(6, 0, draw=draw)


def test_sample_commuting_plane_adversarial_only():
    kinds = {sample_commuting_plane(6, i, draw="adversarial")[2]
             for i in range(15)}
    assert kinds == {"transverse", "centralizer", "on_orbit"}


# ---- classification ----


def test_classify_special_plane():
    label, special, distance, c2, c3 = classify_plane(special_plane())
    assert label == "DEGENERATE_CUBIC"
    assert special
    assert distance < 1e-10
    assert abs(c2) <= 1e-10
    assert c3 == pytest.approx(-1.0, abs=1e-12)


def test_classify_generic_plane():
    plane, _, _ = sample_commuting_plane(9, 1)
    label, special, _, c2, _ = classify_plane(plane)
    assert label == "GENERIC_POSITIVE"
    assert not special
    assert c2 > 1e-10


def test_classify_rejects_non_commuting():
    plane = TangentPlane(element(u=E1), element(u=E2))
    with pytest.raises(ValueError):
        classify_plane(plane)


def test_measured_sigma_is_negative():
    sigma, c3 = measure_sigma()
    assert sigma == -1
    assert c3 == -1.0


# ---- jet vanishing across deformations ----


def test_lemma0_suite_passes():
    report = run_lemma0_suite(3, samples=60, deformations=6)
    assert report.passed
    assert report.max_abs_c0 <= 1e-10
    assert report.max_abs_c1 <= 1e-10
    assert report.min_c2 >= -1e-10
    assert report.max_closed_form_gap <= 1e-10


def test_lemma0_fails_on_nan_jet(monkeypatch):
    def with_nan(lam9, which, x, y):
        jet = _numerator_jet_rows(lam9, which, x, y)
        jet[:, 3] = np.nan
        return jet

    monkeypatch.setattr(experiments, "_numerator_jet_rows", with_nan)
    report = run_lemma0_suite(0, 20, deformations=5)
    assert not report.passed
    assert np.isnan(report.max_abs_c0) and np.isnan(report.min_c2)


def test_lemma0_fails_on_nan_closed_form(monkeypatch):
    def with_nan(lam9, x, y):
        closed = _closed_form_rows(lam9, x, y)
        closed[3] = np.nan
        return closed

    monkeypatch.setattr(experiments, "_closed_form_rows", with_nan)
    report = run_lemma0_suite(0, 20, deformations=5)
    assert not report.passed
    assert np.isnan(report.max_closed_form_gap)


@pytest.mark.parametrize("seed", range(10))
def test_lemma0_suite_matches_per_plane_jets(seed):
    report = run_lemma0_suite(seed, 160, deformations=100)
    pool = [random_deformation(np.random.default_rng([seed, 2, j]))
            for j in range(100)]
    c0 = c1 = gap = 0.0
    c2 = np.inf
    for i in range(160):
        plane = sample_commuting_plane(seed, i)[0].orthonormalized()
        jet = numerator_jet(pool[i % 100], plane)
        c0 = max(c0, abs(jet[0]))
        c1 = max(c1, abs(jet[1]))
        c2 = min(c2, jet[2])
        gap = max(gap, abs(2.0 * jet[2]
                           - second_derivative_closed_form(pool[i % 100], plane)))
    assert report.passed == (max(c0, c1, gap, -c2) <= 1e-10)
    assert report.min_c2 == pytest.approx(c2, rel=1e-12)
    for got, want in ((report.max_abs_c0, c0), (report.max_abs_c1, c1),
                      (report.max_closed_form_gap, gap)):
        assert got == pytest.approx(want, rel=0.0, abs=1e-14)


# ---- dichotomy sweep ----


def test_lemma1_small_run():
    report = verify_lemma1(7, 150)
    assert report.passed
    assert report.violations == []
    assert report.samples == 150
    assert report.min_generic_c2 > 1e-10
    assert report.max_special_abs_c2 <= 1e-10
    assert report.max_special_c3_defect <= 1e-8
    assert (report.max_special_orbit_distance <= SPECIAL_ORBIT_TOL
            < report.min_generic_orbit_distance)
    assert set(report.kind_counts) == {"uniform", "transverse",
                                       "centralizer", "on_orbit"}
    for verdict in report.verdicts:
        if verdict.kind == "on_orbit":
            assert verdict.classification == "DEGENERATE_CUBIC"
            assert abs(abs(verdict.c3) - 1.0) <= 1e-8
        if verdict.classification == "DEGENERATE_CUBIC":
            assert verdict.special_orbit


def test_lemma1_family_restriction():
    report = verify_lemma1(7, 40, draw="F4")
    assert report.passed
    assert set(report.family_counts) == {"F4"}
    # No F4 plane lies on the orbit, so that margin has no plane to read.
    assert np.isnan(report.max_special_orbit_distance)
    assert report.min_generic_orbit_distance > SPECIAL_ORBIT_TOL


def test_lemma1_adversarial_only():
    report = verify_lemma1(7, 45, draw="adversarial")
    assert report.passed
    assert "uniform" not in report.kind_counts
    assert report.classification_counts.get("DEGENERATE_CUBIC", 0) > 0


def test_nan_orbit_distance_is_a_violation(monkeypatch):
    # Plane 3 is a generic F4 plane; a NaN distance must not pass for
    # "off the orbit".
    plane = sample_commuting_plane(0, 3)[0]
    assert classify_plane(plane)[0] == "GENERIC_POSITIVE"
    monkeypatch.setattr(experiments, "special_orbit_distance",
                        lambda x, y: (float("nan"), 0.0))
    label, special, distance, c2, _ = classify_plane(plane)
    assert (label, special) == ("VIOLATION", False)
    assert np.isnan(distance) and c2 > 1e-10

    rows_of = experiments._orbit_distance_rows

    def nan_for_plane_3(x, y):
        distances, angles = rows_of(x, y)
        distances[3] = np.nan
        return distances, angles

    monkeypatch.setattr(experiments, "_orbit_distance_rows", nan_for_plane_3)
    report = verify_lemma1(0, 20)
    assert not report.passed
    assert [v.plane_id for v in report.violations] == [3]
    assert report.verdicts[3].classification == "VIOLATION"
    assert report.classification_counts["VIOLATION"] == 1


def _measured_rows(report):
    """The rows the suite measures: each verdict's plane orthonormalized."""
    planes = [TangentPlane(SpElement.from_array(np.array(v.x)),
                           SpElement.from_array(np.array(v.y))).orthonormalized()
              for v in report.verdicts]
    return (np.array([p.x.data for p in planes]),
            np.array([p.y.data for p in planes]))


def _verdict_bits(report):
    return bits([[v.orbit_distance, v.c2, v.c3] for v in report.verdicts])


@pytest.mark.parametrize(
    "sampler", [{}, {"draw": "F4"}, {"draw": "adversarial"}],
    ids=["mix", "F4", "adversarial"])
def test_lemma1_rows_do_not_depend_on_the_stack(sampler, monkeypatch):
    report = verify_lemma1(7, 150, **sampler)
    x, y = _measured_rows(report)
    distances, angles = cartan._orbit_distance_rows(x, y)
    np.testing.assert_array_equal(
        bits(distances), _verdict_bits(report)[:, 0])
    for r in range(len(x)):
        alone = special_orbit_distance(SpElement.from_array(x[r]),
                                       SpElement.from_array(y[r]))
        np.testing.assert_array_equal(
            bits(alone), bits([distances[r], angles[r]]))
    whole = _verdict_bits(report)
    for chunk in (1, 7, 128):
        monkeypatch.setattr(curvature, "_JET_CHUNK", chunk)
        np.testing.assert_array_equal(
            _verdict_bits(verify_lemma1(7, 150, **sampler)), whole)


@pytest.mark.parametrize("seed", range(3))
def test_lemma1_verdicts_replay_through_classify_plane(seed):
    # classify_plane takes its jet through the scalar jet ring, one plane
    # at a time.
    for v in verify_lemma1(seed, 160).verdicts:
        label, special, distance, c2, c3 = classify_plane(TangentPlane(
            SpElement.from_array(np.array(v.x)),
            SpElement.from_array(np.array(v.y))))
        assert (label, special) == (v.classification, v.special_orbit)
        assert abs(c2 - v.c2) <= 1e-12 and abs(c3 - v.c3) <= 1e-12
        if v.orbit_distance < 1e-3:
            assert abs(distance - v.orbit_distance) <= 1e-12


# ---- deformed positivity ----


def test_theorem1_small_run():
    report = verify_theorem1(11, n_samples=80)
    assert report.passed
    assert report.sigma == -1
    assert report.cubic_coefficient == pytest.approx(-1.0, abs=1e-12)
    assert {scan.t for scan in report.scans} == {-0.001, -0.01}
    for scan in report.scans:
        assert scan.positive
        assert scan.min_k > 0
    assert report.opposite_sign_t == 0.01
    assert report.opposite_sign_k < 0
    # Frontier carries the sign of sigma and reaches past the scan range;
    # the grid ends before the positivity window does.
    assert report.frontier_t <= -0.1
    assert any(not entry[2] for entry in report.frontier)


@pytest.mark.parametrize("t_values", [(0.001, 0.01), (0.0, 0.2, -0.4), ()])
def test_theorem1_metrics_keep_the_bits_of_deformed_metrics(monkeypatch, t_values):
    """The one stacked pass over the requested and the frontier grid's
    times gives each scanned metric the operators DeformedMetric gives it;
    a grid time that is not positive definite is not scanned."""
    seen = []
    real = experiments._sectional_curvature_rows

    def spy(rings, x, y):
        seen.append(rings)
        return real(rings, x, y)

    monkeypatch.setattr(experiments, "_sectional_curvature_rows", spy)
    report = verify_theorem1(2, 20, t_values)
    times = [scan.t for scan in report.scans]
    for t, min_k, _ in report.frontier:
        try:
            DeformedMetric(reference_deformation(), t)
            times.append(t)
        except ValueError:
            assert np.isnan(min_k)
    (rings,) = seen
    assert len(rings) == len(times) and len(times) < len(t_values) + 14
    for ring, t in zip(rings, times):
        want = curvature._metric_ring(DeformedMetric(reference_deformation(), t))
        np.testing.assert_array_equal(bits(ring._op), bits(want._op))
        np.testing.assert_array_equal(bits(ring._inv), bits(want._inv))


def test_theorem1_names_the_first_requested_t_not_positive_definite(monkeypatch):
    def unreachable(*args):
        raise AssertionError("sampled a plane before rejecting t")

    monkeypatch.setattr(experiments, "sample_commuting_plane", unreachable)
    with pytest.raises(ValueError) as exc:
        verify_theorem1(0, 10, (0.001, 5.0, 7.0))
    assert str(exc.value) == ("I + tL is not positive definite at t=-5.0 "
                              "(smallest eigenvalue -9.850e+00)")


def test_theorem1_scans_carry_their_argmin_plane():
    report = verify_theorem1(11, n_samples=40)
    for scan in report.scans:
        plane, _, _ = sample_commuting_plane(11, scan.argmin_plane)
        ortho = plane.orthonormalized()
        assert scan.x == tuple(ortho.x.data.tolist())
        assert scan.y == tuple(ortho.y.data.tolist())


def test_theorem1_takes_plane_brackets_once_per_chunk(monkeypatch):
    """The 4 metric-free brackets of each chunk of planes serve all 15
    metrics, which add the 4 brackets of their U terms each."""
    sizes = []

    def spy(a, b):
        sizes.append(len(a))
        return _bracket_rows(a, b)

    monkeypatch.setattr(curvature, "_bracket_rows", spy)
    monkeypatch.setattr(curvature._RowsRing, "br", staticmethod(spy))
    monkeypatch.setattr(curvature, "_ROWS_CHUNK", 16)
    report = verify_theorem1(11, n_samples=40)
    metrics = len(report.scans) + sum(not np.isnan(k) for _, k, _ in report.frontier)
    assert metrics == 15
    # Chunks of 16, 16 and 8 planes; the opposite-sign check is one plane
    # under one metric, all 8 of its brackets its own.
    per_chunk = 4 + 4 * metrics
    assert Counter(sizes) == {16: 2 * per_chunk, 8: per_chunk, 1: 8}


def _nan_at_row_3(monkeypatch):
    def with_nan(metrics, x, y):
        k = _sectional_curvature_rows(metrics, x, y)
        k[:, 3] = np.nan
        return k

    monkeypatch.setattr(experiments, "_sectional_curvature_rows", with_nan)


def test_theorem1_fails_on_nan_curvature(monkeypatch):
    _nan_at_row_3(monkeypatch)
    report = verify_theorem1(11, n_samples=40)
    assert not report.passed
    for scan in report.scans:
        assert np.isnan(scan.min_k) and scan.argmin_plane == 3
        assert not scan.positive
    assert report.frontier_t == 0.0


def test_theorem1_accepts_zero_t():
    report = verify_theorem1(11, n_samples=30, t_values=(0.0, 0.001))
    assert report.passed
    flat = [scan for scan in report.scans if scan.t == 0.0]
    assert len(flat) == 1
    assert abs(flat[0].min_k) <= 1e-12


# ---- nonpositive planes for every metric ----


def _scalar_recheck(metric, cert):
    """Recheck a certificate through the SpElement API, not the rows code.

    k is compared within 1e-9 relative, scaled by the condition number
    of S = g(x,x) g(y,y) - g(x,y)^2: on nearly singular metrics S is a
    difference of nearly equal products, and k inherits its rounding.
    """
    x, z, y = (SpElement.from_array(np.asarray(v)) for v in (cert.x, cert.z, cert.y))
    lam = cert.smallest_eigenvalue
    assert norm(bracket(x, z)) <= 1e-10
    mx, my = metric.apply(x), metric.apply(y)
    assert np.linalg.norm(my.data - z.data) <= 1e-9 * max(norm(z), 1.0)
    assert np.linalg.norm(mx.data - lam * x.data) <= 1e-9 * norm(x)
    report = sectional_curvature(metric, TangentPlane(x, y))
    gxy = bi_inner(x, my)
    cond = (bi_inner(x, mx) * bi_inner(y, my) + gxy * gxy) / report.s_value
    assert abs(report.k_value - cert.k_value) <= 1e-9 * abs(report.k_value) * cond


def test_wilking_identity_metric():
    metric = MetricDeformation(np.eye(3), np.zeros((3, 3)),
                               np.eye(3)).as_metric()
    cert = wilking_pair(metric)
    assert cert.case_tag == "u_eigenvector"
    assert cert.smallest_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert abs(cert.k_value) <= 1e-12
    assert verify_wilking_inequalities(metric, cert)
    _scalar_recheck(metric, cert)


def test_wilking_aligned_branch():
    metric = MetricDeformation(1.5 * np.eye(3), np.zeros((3, 3)),
                               np.diag([0.8, 1.0, 1.2])).as_metric()
    cert = wilking_pair(metric)
    assert cert.case_tag == "vw_aligned"
    assert cert.smallest_eigenvalue == pytest.approx(0.8, abs=1e-12)
    assert abs(cert.k_value) <= 1e-12
    assert verify_wilking_inequalities(metric, cert)
    _scalar_recheck(metric, cert)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_wilking_suite_certificates_by_scalar_route(seed):
    report = verify_wilking(seed, 8)
    for i, cert in enumerate(report.certificates):
        triple = random_admissible_metric(np.random.default_rng([seed, 3, i]))
        _scalar_recheck(triple.as_metric(), cert)


def _cert_bits(cert):
    return bits([*cert.x, *cert.z, *cert.y, cert.k_value,
                 cert.numerator_value, cert.smallest_eigenvalue])


def test_wilking_rows_do_not_depend_on_the_stack():
    # Seed 4 metric 532 is nearly singular, and its certificate fails the
    # h part of the recheck; the failure must not depend on the stack.
    seed, n = 4, 1000
    triples = [random_admissible_metric(np.random.default_rng([seed, 3, i]))
               for i in range(n)]
    report = verify_wilking(seed, n)
    alone = []
    for i, triple in enumerate(triples):
        metric = triple.as_metric()
        cert = wilking_pair(metric)
        if i == 532 or i % 7 == 0:
            suite = report.certificates[i]
            np.testing.assert_array_equal(_cert_bits(cert), _cert_bits(suite))
            assert cert.case_tag == suite.case_tag
        if not verify_wilking_inequalities(metric, cert):
            alone.append(i)
    in_sevens = [lo + i for lo in range(0, n, 7)
                 for i in np.flatnonzero(
                     ~experiments._wilking_verdicts(triples[lo:lo + 7], 1e-10)[3])]
    assert [i for i, _ in report.failures] == alone == in_sevens
    assert 532 in alone


def test_wilking_fails_on_nan_curvature(monkeypatch):
    rows_of = experiments._wilking_rows

    def with_nan(*args):
        rows = rows_of(*args)
        rows[3][3] = np.nan  # the k of metric 3
        return rows

    monkeypatch.setattr(experiments, "_wilking_rows", with_nan)
    report = verify_wilking(7, 25)
    assert not report.passed
    assert np.isnan(report.max_k_value)
    assert [i for i, _ in report.failures] == [3]


def test_wilking_generic_branch_on_random_metric():
    triple = random_admissible_metric(np.random.default_rng(11))
    metric = triple.as_metric()
    cert = wilking_pair(metric)
    assert cert.k_value <= 1e-10
    assert verify_wilking_inequalities(metric, cert)


def test_wilking_rejects_tampered_certificate():
    triple = random_admissible_metric(np.random.default_rng(11))
    metric = triple.as_metric()
    cert = wilking_pair(metric)
    bad = cert._replace(y=tuple(1.1 * t for t in cert.y))
    assert not verify_wilking_inequalities(metric, bad)


def test_wilking_population():
    report = verify_wilking(7, 25)
    assert report.passed
    assert report.failures == []
    assert report.max_k_value <= 1e-10
    assert report.max_commutator_residual <= 1e-10
    assert 0.0 <= report.recheck_headroom <= 1.0
    assert sum(report.case_counts.values()) == 25


# ---- flat baseline ----


def test_baseline_small_run():
    report = run_baseline_suite(7, 200)
    assert report.passed
    assert report.min_k >= -1e-12
    assert report.max_commuting_k <= 1e-12


def _suite_rows(monkeypatch, suite, *args):
    """The (x, y) rows each scan of a suite hands to the curvature."""
    seen = []
    real = experiments._sectional_curvature_rows

    def spy(metrics, x, y):
        seen.append((x, y))
        return real(metrics, x, y)

    monkeypatch.setattr(experiments, "_sectional_curvature_rows", spy)
    suite(*args)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("seed", range(10))
def test_suites_orthonormalize_rows_as_tangent_plane_does(seed, monkeypatch):
    """theorem1's and the baseline's rows, against the one-plane route."""
    n = 200
    commuting = [sample_commuting_plane(seed, i)[0] for i in range(n)]
    random_planes = {}
    for i in range(0, n, 2):
        rng = np.random.default_rng([seed, 4, i])
        x, y = np.zeros(10), np.zeros(10)
        x[1:] = rng.normal(size=9)
        y[1:] = rng.normal(size=9)
        random_planes[i] = TangentPlane(SpElement.from_array(x),
                                        SpElement.from_array(y))
    expected = {
        "theorem1": [p.orthonormalized() for p in commuting],
        "baseline": [random_planes.get(i, commuting[i]).orthonormalized()
                     for i in range(n)],
    }
    scans = {
        "theorem1": _suite_rows(monkeypatch, verify_theorem1, seed, n, (0.001,)),
        "baseline": _suite_rows(monkeypatch, run_baseline_suite, seed, n),
    }
    for name, planes in expected.items():
        want_x = bits([p.x.data for p in planes])
        want_y = bits([p.y.data for p in planes])
        assert scans[name]
        for x, y in scans[name]:
            np.testing.assert_array_equal(bits(x), want_x)
            np.testing.assert_array_equal(bits(y), want_y)


def test_baseline_rejects_an_exactly_dependent_draw(monkeypatch):
    # Measured unchecked, y = -2x gave the plane of x and rounding noise.
    v = np.random.default_rng(3).normal(size=9)
    draws = iter([v, -2.0 * v])

    class Scripted:
        def normal(self, size):
            assert size == 9
            return next(draws)

    monkeypatch.setattr(np.random, "default_rng", lambda key: Scripted())
    with pytest.raises(ValueError, match="linearly dependent"):
        run_baseline_suite(0, 1)


def test_baseline_fails_on_nan_curvature(monkeypatch):
    _nan_at_row_3(monkeypatch)
    report = run_baseline_suite(7, 40)
    assert not report.passed
    assert np.isnan(report.min_k) and np.isnan(report.max_commuting_k)
