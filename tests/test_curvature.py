import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sp2curv import curvature
from sp2curv import (
    DeformedMetric,
    E1,
    E2,
    E3,
    SpElement,
    TangentPlane,
    ad_h,
    bi_inner,
    bracket,
    is_commuting_pair,
    norm,
    numerator,
    numerator_jet,
    random_admissible_metric,
    random_deformation,
    reference_deformation,
    sample_commuting_plane,
    second_derivative_closed_form,
    sectional_curvature,
    special_plane,
)
from sp2curv.curvature import (
    _RowsRing,
    _orthonormal_rows,
    _rows_dot,
    _rows_matvec,
    _sectional_curvature_rows,
    denominator,
    u_tensor,
)
from sp2curv.experiments import _FRONTIER_GRID

from conftest import bits, element, matrix9_stack


# ---- tangent planes ----


def test_tangent_plane_validation():
    with pytest.raises(ValueError):
        TangentPlane(element(lam=1.0, v=E1), element(w=E2))
    with pytest.raises(ValueError):
        TangentPlane(element(v=E1), element(v=2.0 * E1))
    with pytest.raises(ValueError):
        TangentPlane(element(), element(v=E1))


def test_orthonormalized_plane():
    plane = TangentPlane(element(v=3.0 * E1), element(v=E1, w=E2))
    ortho = plane.orthonormalized()
    assert norm(ortho.x) == pytest.approx(1.0, abs=1e-14)
    assert norm(ortho.y) == pytest.approx(1.0, abs=1e-14)
    assert abs(bi_inner(ortho.x, ortho.y)) <= 1e-14


# ---- the U tensor and the distinguished pair ----


def test_u_tensor_vanishes_on_special_cross_term(t0):
    for t in (0.01, 0.1):
        m = DeformedMetric(reference_deformation(), t)
        u = u_tensor(m, t0.x, t0.y)
        assert norm(u) <= 1e-12


@pytest.mark.parametrize("t", [0.01, 0.1])
def test_u_tensor_exact_self_term(t0, t):
    m = DeformedMetric(reference_deformation(), t)
    u = u_tensor(m, t0.x, t0.x)
    expected = element(u=(t * t / (1 - t * t), -t / (1 - t * t), 0))
    np.testing.assert_allclose(u.data, expected.data, atol=1e-12)


@pytest.mark.parametrize("t", [0.01, 0.1])
def test_bracket_with_deformed_partner_exact(t0, t):
    m = DeformedMetric(reference_deformation(), t)
    out = bracket(t0.y, m.apply(t0.y))
    np.testing.assert_allclose(out.data, element(u=(t, 0, 0)).data,
                               atol=1e-12)


def test_special_plane_numerator_closed_form(t0):
    # C(t) = -t^3 / (1 - t^2) on the distinguished plane.
    for t in (-0.1, -0.01, 0.01, 0.1, 0.3):
        m = DeformedMetric(reference_deformation(), t)
        c = numerator(m, t0)
        assert c == pytest.approx(-t ** 3 / (1 - t * t), abs=1e-14)


def test_special_plane_jet_is_pure_cubic(t0, ref):
    jet = numerator_jet(ref, t0)
    assert jet.dtype == np.float64 and not jet.flags.writeable
    np.testing.assert_array_equal(jet, [0.0, 0.0, 0.0, -1.0, 0.0])


def test_special_plane_denominator(t0):
    # S(t) = 1 + t - t^2 for the reference deformation at t0.
    for t in (0.0, 0.01, -0.2):
        m = DeformedMetric(reference_deformation(), t)
        assert denominator(m, t0) == pytest.approx(1 + t - t * t, abs=1e-14)


# ---- undeformed baseline oracle ----


def test_zero_deformation_matches_biquotient_formula():
    m = DeformedMetric(reference_deformation(), 0.0)
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = element(u=rng.normal(size=3), v=rng.normal(size=3),
                    w=rng.normal(size=3))
        y = element(u=rng.normal(size=3), v=rng.normal(size=3),
                    w=rng.normal(size=3))
        br = bracket(x, y).data
        expected = 0.25 * (br[1:] @ br[1:]) + br[0] ** 2
        got = numerator(m, TangentPlane(x, y))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---- jets against finite differences ----


def test_jet_matches_finite_differences(generic_triple):
    rng = np.random.default_rng(17)
    h = 1e-3
    for i in range(10):
        plane, _, _ = sample_commuting_plane(900, i)
        plane = plane.orthonormalized()
        jet = numerator_jet(generic_triple, plane)
        samples = {s: numerator(DeformedMetric(generic_triple, s * h), plane)
                   for s in (-2, -1, 0, 1, 2)}
        d2 = (samples[1] - 2 * samples[0] + samples[-1]) / h ** 2
        d3 = (samples[2] - 2 * samples[1] + 2 * samples[-1]
              - samples[-2]) / (2 * h ** 3)
        assert math.factorial(2) * jet[2] == pytest.approx(d2, rel=2e-4, abs=1e-7)
        assert math.factorial(3) * jet[3] == pytest.approx(d3, rel=2e-3, abs=1e-4)


def test_jet_evaluates_to_numerator_within_truncation(generic_triple):
    plane, _, _ = sample_commuting_plane(901, 3)
    plane = plane.orthonormalized()
    jet = numerator_jet(generic_triple, plane)
    # Truncation error is O(t^5), so at t = 1e-3 the agreement is ~1e-9
    # relative while finite differences could never get close to that.
    t = 1e-3
    exact = numerator(DeformedMetric(generic_triple, t), plane)
    assert np.polyval(jet[::-1], t) == pytest.approx(exact, rel=1e-8,
                                                    abs=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jet_matches_numerator_on_generic_planes(seed):
    # The jets and the fixed-t values run the same formula, so on planes
    # that do not commute the constant coefficient is the t = 0 value
    # bit for bit, and at t = 1e-3 (truncation error ~1e-15) they agree.
    d = random_deformation(seed)
    rng = np.random.default_rng([31, seed])
    at_zero = DeformedMetric(d, 0.0)
    at_small = DeformedMetric(d, 1e-3)
    for _ in range(50):
        a, b = rng.normal(size=(2, 9))
        plane = TangentPlane(element(u=a[:3], v=a[3:6], w=a[6:]),
                             element(u=b[:3], v=b[3:6], w=b[6:]))
        assert not is_commuting_pair(plane.x, plane.y)
        jet = numerator_jet(d, plane)
        assert jet[0] == numerator(at_zero, plane)
        assert np.polyval(jet[::-1], 1e-3) == pytest.approx(
            numerator(at_small, plane), rel=1e-10)


# ---- the commuting closed form ----


def test_closed_form_on_case_ii_pair(ref):
    x = element(u=E3, w=E1)
    y = element(v=E3)
    assert is_commuting_pair(x, y)
    assert second_derivative_closed_form(ref, TangentPlane(x, y)) == 3.5
    jet = numerator_jet(ref, TangentPlane(x, y))
    assert 2.0 * jet[2] == pytest.approx(3.5, abs=1e-12)


def test_closed_form_scales_quartically(ref):
    x = element(u=E3, w=E1)
    y = element(v=E3)
    base = second_derivative_closed_form(ref, TangentPlane(x, y))
    scaled = second_derivative_closed_form(ref, TangentPlane(
        SpElement.from_array(2.0 * x.data), SpElement.from_array(3.0 * y.data)))
    assert scaled == pytest.approx(4.0 * 9.0 * base, rel=1e-13)


def test_closed_form_requires_commuting(ref):
    x = element(u=E1, v=E2, w=E3)
    y = element(u=E2)
    assert not is_commuting_pair(x, y)
    with pytest.raises(ValueError):
        second_derivative_closed_form(ref, TangentPlane(x, y))


def test_closed_form_matches_jet_for_random_deformations():
    for j in range(20):
        d = random_deformation(j)
        plane, _, _ = sample_commuting_plane(902, j)
        plane = plane.orthonormalized()
        jet = numerator_jet(d, plane)
        assert abs(float(jet[0])) <= 1e-10
        assert abs(float(jet[1])) <= 1e-10
        closed = second_derivative_closed_form(d, plane)
        assert 2.0 * float(jet[2]) == pytest.approx(closed, abs=1e-10)


# ---- invariances of the quotient ----


def test_sectional_curvature_basis_invariance(generic_triple):
    m = DeformedMetric(generic_triple, 0.2)
    plane, _, _ = sample_commuting_plane(903, 1)
    k0 = sectional_curvature(m, plane).k_value
    g = np.array([[2.0, 1.0], [0.5, 1.0]])
    x, y = g @ np.array([plane.x.data, plane.y.data])
    changed = TangentPlane(SpElement.from_array(x), SpElement.from_array(y))
    k1 = sectional_curvature(m, changed).k_value
    k2 = sectional_curvature(m, plane.orthonormalized()).k_value
    assert k1 == pytest.approx(k0, rel=1e-10)
    assert k2 == pytest.approx(k0, rel=1e-10)


def test_numerator_invariant_under_isotropy_when_compatible(t0, ref):
    # The reference deformation does not commute with the circle action,
    # so rotate plane and deformation together via the closed form instead:
    # with B = 0, C = I the block operator is rotation invariant.
    tri = type(ref)(np.diag([0.4, 0.9, 1.3]), np.zeros((3, 3)), np.eye(3))
    m = DeformedMetric(tri, 0.3)
    plane, _, _ = sample_commuting_plane(904, 2)
    k0 = sectional_curvature(m, plane).k_value
    rotated = TangentPlane(ad_h(0.77, plane.x), ad_h(0.77, plane.y))
    k1 = sectional_curvature(m, rotated).k_value
    assert k1 == pytest.approx(k0, rel=1e-11, abs=1e-13)


def test_denominator_positive_and_k_ratio(generic_triple):
    m = DeformedMetric(generic_triple, 0.1)
    plane, _, _ = sample_commuting_plane(905, 4)
    rep = sectional_curvature(m, plane)
    assert rep.s_value > 0
    assert rep.k_value == pytest.approx(rep.c_value / rep.s_value, rel=1e-15)


# ---- the rows primitives ----


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_row"])
def test_rows_primitives_do_not_depend_on_the_stack(shared):
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(2, 1000, 10))
    mat = rng.normal(size=(10, 10) if shared else (1000, 10, 10))

    def op(rows):
        return mat if shared else mat[rows]

    whole = _rows_matvec(mat, a)
    dots = _rows_dot(a, b)
    for n in (1, 2, 7, 256, 1000):
        for lo in {0, 1000 - n}:
            rows = slice(lo, lo + n)
            np.testing.assert_array_equal(
                bits(_rows_matvec(op(rows), a[rows])), bits(whole[rows]))
            np.testing.assert_array_equal(bits(_rows_dot(a[rows], b[rows])),
                                          bits(dots[rows]))
    every = slice(None, None, 2)
    np.testing.assert_array_equal(bits(_rows_matvec(op(every), a[every])),
                                  bits(whole[every]))
    np.testing.assert_array_equal(bits(_rows_dot(a[every], b[every])),
                                  bits(dots[every]))
    mat9 = np.ascontiguousarray(mat[..., 1:, 1:])
    np.testing.assert_array_equal(bits(_rows_matvec(mat9, a[:, 1:])),
                                  bits(_rows_matvec(mat9, a[:, 1:].copy())))
    for r in range(1000):
        assert bits(dots[r]) == bits(a[r] @ b[r]), r
        assert bits(_rows_dot(a[r, 1:], b[r, 1:])) == bits(a[r, 1:] @ b[r, 1:]), r
        np.testing.assert_array_equal(bits(whole[r]), bits(op(r) @ a[r]))


def test_rows_matvec_takes_its_operator_c_contiguous():
    """A Fortran-ordered copy of an operator runs another BLAS kernel."""
    rng = np.random.default_rng(18)
    a = rng.normal(size=(300, 10))
    for mat in (rng.normal(size=(10, 10)), rng.normal(size=(300, 10, 10))):
        fortran = np.ascontiguousarray(np.swapaxes(mat, -1, -2)).swapaxes(-1, -2)
        assert not fortran.flags.c_contiguous
        np.testing.assert_array_equal(bits(_rows_matvec(fortran, a)),
                                      bits(_rows_matvec(mat, a)))
    metric = DeformedMetric(reference_deformation(), -0.01)
    ring = _RowsRing(metric.operator_a().T, metric.operator_block6().T,
                     metric._inv_a.T, metric._inv_block6.T)
    assert ring._op.flags.c_contiguous and ring._inv.flags.c_contiguous


# ---- many planes at once ----


def _scan(metrics, x, y):
    """The rows scan under DeformedMetrics, each read as its one-metric ring."""
    return _sectional_curvature_rows([curvature._metric_ring(m) for m in metrics], x, y)


def _mixed_planes(seed, count):
    """Orthonormal planes: generic ones from random m vectors, then commuting."""
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(count):
        x, y = np.zeros(10), np.zeros(10)
        x[1:], y[1:] = rng.normal(size=(2, 9))
        planes.append(TangentPlane(SpElement.from_array(x),
                                   SpElement.from_array(y)).orthonormalized())
    planes += [sample_commuting_plane(seed, i)[0].orthonormalized()
               for i in range(count)]
    return planes, np.array([p.x.data for p in planes]), np.array([p.y.data for p in planes])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       t=st.sampled_from(_FRONTIER_GRID + (0.001, 0.01)),
       sign=st.sampled_from((-1.0, 1.0)))
def test_batched_curvature_matches_scalar(seed, t, sign):
    try:
        metric = DeformedMetric(reference_deformation(), sign * t)
    except ValueError:
        assume(False)
    planes, x, y = _mixed_planes(seed, 6)
    k = _scan([metric], x, y)[0]
    scalar = [sectional_curvature(metric, p).k_value for p in planes]
    np.testing.assert_allclose(k, scalar, rtol=0.0, atol=1e-14)


def test_batched_curvature_does_not_depend_on_chunk_size(monkeypatch):
    _, x, y = _mixed_planes(3, 40)
    for t in (-0.01, -0.2):
        metric = DeformedMetric(reference_deformation(), t)
        whole = bits(_scan([metric], x, y))
        for chunk in (1, 7):
            monkeypatch.setattr(curvature, "_ROWS_CHUNK", chunk)
            np.testing.assert_array_equal(
                bits(_scan([metric], x, y)), whole)
        monkeypatch.undo()


def test_scan_of_many_metrics_is_the_one_metric_scans(monkeypatch):
    """Row j of a scan under many metrics, which share each chunk's
    metric-free brackets, is the scan under metric j alone, to the bit."""
    _, x, y = _mixed_planes(3, 150)
    metrics = [DeformedMetric(reference_deformation(), t)
               for t in (-0.2, -0.01, 0.0, 0.01)]
    metrics += [random_admissible_metric(seed).as_metric() for seed in range(2)]
    alone = [bits(_scan([m], x, y)[0]) for m in metrics]
    for chunk in (1, 7, 256):
        monkeypatch.setattr(curvature, "_ROWS_CHUNK", chunk)
        k = _scan(metrics, x, y)
        assert k.shape == (len(metrics), len(x))
        for j, metric in enumerate(metrics):
            np.testing.assert_array_equal(bits(k[j]), alone[j])
            np.testing.assert_array_equal(
                bits(_scan([metric], x, y)[0]), alone[j])


def test_batched_curvature_rejects_degenerate_row():
    _, x, y = _mixed_planes(5, 4)
    metric = DeformedMetric(reference_deformation(), -0.01)
    for bad in (x[5], np.zeros(10)):
        y_bad = y.copy()
        y_bad[5] = bad
        with pytest.raises(ValueError, match="degenerate plane"):
            _scan([metric], x, y_bad)


# ---- one plane is the one-row case ----


@pytest.mark.parametrize("seed", range(10))
def test_one_plane_values_are_rows_of_any_stack(seed):
    metric = random_admissible_metric(seed).as_metric()
    planes, x, y = _mixed_planes(seed, 128)
    num = np.array([numerator(metric, p) for p in planes])
    den = np.array([denominator(metric, p) for p in planes])
    reports = np.array([sectional_curvature(metric, p) for p in planes])
    u_xy = np.array([u_tensor(metric, p.x, p.y).data for p in planes])
    u_xx = np.array([u_tensor(metric, p.x, p.x).data for p in planes])
    np.testing.assert_array_equal(bits(den), bits(reports[:, 1]))
    ring = curvature._metric_ring(metric)
    for n in (1, 7, 256):
        xs, ys = x[:n], y[:n]
        c, s = curvature._curvature_rows(ring, xs, ys)
        mx, my = ring.apply(xs), ring.apply(ys)
        np.testing.assert_array_equal(bits(num[:n]), bits(c))
        np.testing.assert_array_equal(bits(reports[:n]),
                                      bits(np.column_stack([c, s, c / s])))
        np.testing.assert_array_equal(
            bits(u_xy[:n]), bits(curvature._u(ring, xs, mx, ys, my)))
        np.testing.assert_array_equal(
            bits(u_xx[:n]), bits(curvature._u(ring, xs, mx, xs, mx)))


def test_sectional_curvature_rejects_a_degenerate_plane():
    metric = DeformedMetric(reference_deformation(), -0.01)
    plane = TangentPlane.__new__(TangentPlane)  # past TangentPlane's checks
    plane.x = plane.y = element(v=E1)
    for one_plane in (sectional_curvature, denominator):
        with pytest.raises(ValueError, match="degenerate plane"):
            one_plane(metric, plane)


# ---- jets of many planes at once ----


def _jet_pool(seed, count):
    return [random_deformation(np.random.default_rng([seed, 7, j]))
            for j in range(count)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       deformations=st.integers(min_value=1, max_value=4))
def test_batched_jets_match_scalar(seed, deformations):
    planes, x, y = _mixed_planes(seed, 5)
    pool = _jet_pool(seed, deformations)
    which = np.arange(len(planes)) % deformations
    jets = curvature._numerator_jet_rows(matrix9_stack(pool), which, x, y)
    for r, plane in enumerate(planes):
        scalar = numerator_jet(pool[which[r]], plane)
        assert np.all(np.abs(jets[:, r] - scalar)
                      <= 1e-12 * np.maximum(1.0, np.abs(scalar))), r


def test_batched_jets_do_not_depend_on_chunk_size(monkeypatch):
    _, x, y = _mixed_planes(3, 40)
    pool = [reference_deformation()] + _jet_pool(3, 6)
    which = np.arange(len(x)) % len(pool)
    whole = bits(curvature._numerator_jet_rows(matrix9_stack(pool), which, x, y))
    for chunk in (1, 7):
        monkeypatch.setattr(curvature, "_ROWS_CHUNK", chunk)
        monkeypatch.setattr(curvature, "_JET_CHUNK", chunk)
        np.testing.assert_array_equal(
            bits(curvature._numerator_jet_rows(matrix9_stack(pool), which, x, y)), whole)


def test_one_deformation_pool_is_shared_by_every_row(monkeypatch):
    _, x, y = _mixed_planes(4, 40)
    d = _jet_pool(4, 1)[0]
    shapes = []

    class Spy(curvature._JetRowsRing):
        __slots__ = ()

        def __init__(self, lam9, neumann):
            shapes.append((lam9.shape, neumann.shape))
            super().__init__(lam9, neumann)

    monkeypatch.setattr(curvature, "_JetRowsRing", Spy)
    one = curvature._numerator_jet_rows(d.matrix9[None], np.zeros(len(x), dtype=int), x, y)
    monkeypatch.undo()
    assert shapes == [((1, 9, 9), (5, 1, 9, 9))]
    two = curvature._numerator_jet_rows(matrix9_stack([d, d]), np.arange(len(x)) % 2, x, y)
    np.testing.assert_array_equal(bits(one), bits(two))


# ---- the rows Gram-Schmidt ----


def _plane_or_error(x, y):
    try:
        plane = TangentPlane(SpElement.from_array(x),
                             SpElement.from_array(y)).orthonormalized()
    except ValueError as exc:
        return str(exc)
    return plane


@pytest.mark.parametrize("case", ["dependent", "zero", "outside_m", "nan"])
def test_rows_gram_schmidt_raises_like_tangent_plane(case):
    rng = np.random.default_rng(19)
    x, y = np.zeros((2, 6, 10))
    x[:, 1:], y[:, 1:] = rng.normal(size=(2, 6, 9))
    if case == "dependent":
        y[3] = -2.0 * x[3]
    elif case == "zero":
        x[3] = 0.0
    elif case == "outside_m":
        y[3, 0] = 1e-3
    else:
        x[3, 5] = np.nan
    message = _plane_or_error(x[3], y[3])
    assert isinstance(message, str)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as exc:
        _orthonormal_rows(x, y)
    assert str(exc.value) == message
