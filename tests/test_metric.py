import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2curv import (
    DeformedMetric,
    E1,
    E2,
    E3,
    MetricDeformation,
    ad_h,
    bi_inner,
    random_admissible_metric,
    random_deformation,
    reference_deformation,
)
from sp2curv.metric import _require_positive

from conftest import element


def _min_eig(m):
    """The smallest eigenvalue of a DeformedMetric's two blocks."""
    return min(np.linalg.eigvalsh(m.operator_a())[0],
               np.linalg.eigvalsh(m.operator_block6())[0])


def test_shape_validation():
    eye = np.eye(3)
    with pytest.raises(ValueError):
        MetricDeformation(np.ones((2, 2)), np.zeros((3, 3)), eye)
    skew = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)
    with pytest.raises(ValueError):
        MetricDeformation(skew, np.zeros((3, 3)), eye)
    with pytest.raises(ValueError):
        MetricDeformation(eye, eye, eye)


def test_reference_deformation_blocks():
    ref = reference_deformation()
    np.testing.assert_array_equal(ref.A, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(ref.B, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(ref.C, [[1, 0, 1], [0, 0, 1], [1, 1, 0]])
    np.testing.assert_array_equal(ref.block6[:3, 3:], -ref.B)
    np.testing.assert_array_equal(ref.block6[3:, :3], ref.B)


def test_reference_deformation_is_one_read_only_object():
    ref = reference_deformation()
    assert reference_deformation() is ref
    assert not any(m.flags.writeable for m in (ref.A, ref.B, ref.C, ref.matrix9))


def test_apply_frozen_examples():
    ref = reference_deformation()
    # L acts by (u, v, w) -> (Au, Cv - Bw, Bv + Cw).
    out = ref.matrix9 @ element(w=E2).data[1:]
    np.testing.assert_allclose(out, element(v=-E1, w=E3).data[1:],
                               atol=1e-15)
    out = ref.matrix9 @ element(u=E1, v=E2).data[1:]
    np.testing.assert_allclose(out,
                               element(u=E2, v=(0, 0, 1), w=(1, 0, 0)).data[1:],
                               atol=1e-15)


def test_apply_rejects_h_component():
    m = DeformedMetric(reference_deformation(), 0.1)
    with pytest.raises(ValueError):
        m.apply(element(lam=1.0))
    with pytest.raises(ValueError):
        m.inverse_apply(element(lam=1.0))


def test_operator_is_self_adjoint(generic_triple):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = element(u=rng.normal(size=3), v=rng.normal(size=3),
                    w=rng.normal(size=3))
        y = element(u=rng.normal(size=3), v=rng.normal(size=3),
                    w=rng.normal(size=3))
        lhs = (generic_triple.matrix9 @ x.data[1:]) @ y.data[1:]
        rhs = x.data[1:] @ (generic_triple.matrix9 @ y.data[1:])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_deformed_metric_positivity_window():
    ref = reference_deformation()
    m = DeformedMetric(ref, 0.25)
    assert _min_eig(m) > 0
    with pytest.raises(ValueError):
        DeformedMetric(ref, 1.5)


def test_deformed_metric_identity_at_zero():
    m = DeformedMetric(reference_deformation(), 0.0)
    x = element(u=(1, 2, 3), v=(4, 5, 6), w=(7, 8, 9))
    np.testing.assert_array_equal(m.apply(x).data, x.data)
    assert _min_eig(m) == 1.0


def test_inverse_apply_round_trip(generic_triple):
    m = DeformedMetric(generic_triple, 0.3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = element(u=rng.normal(size=3), v=rng.normal(size=3),
                    w=rng.normal(size=3))
        back = m.inverse_apply(m.apply(x))
        np.testing.assert_allclose(back.data, x.data, atol=1e-12)


def test_metric_inner_frozen_value():
    m = DeformedMetric(reference_deformation(), 0.5)
    x = element(v=E1)
    # M_t x = x + t(Cv - Bw) slotwise: v += 0.5*C e1 = 0.5*(e1 + e3).
    assert bi_inner(x, m.apply(x)) == 1.5
    y = element(w=E2)
    # <x, M_t y> picks out the -tB e2 component against e1.
    assert bi_inner(x, m.apply(y)) == -0.5


def test_as_metric_reads_triple_directly():
    tri = MetricDeformation(np.diag([0.5, 1.0, 2.0]), np.zeros((3, 3)),
                            np.eye(3))
    m = tri.as_metric()
    np.testing.assert_allclose(m.operator_a(), tri.A, atol=1e-15)
    np.testing.assert_allclose(m.operator_block6(), tri.block6, atol=1e-15)
    assert _min_eig(m) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_deformation_shape_laws(seed):
    d = random_deformation(seed)
    np.testing.assert_array_equal(d.A, d.A.T)
    np.testing.assert_array_equal(d.C, d.C.T)
    np.testing.assert_array_equal(d.B, -d.B.T)
    assert np.abs(d.A).max() <= 1.0
    assert np.abs(d.B).max() <= 1.0
    assert np.abs(d.C).max() <= 1.0


def test_random_deformation_deterministic():
    a = random_deformation(123)
    b = random_deformation(123)
    np.testing.assert_array_equal(a.matrix9, b.matrix9)


def test_random_admissible_metric_is_positive_definite():
    for seed in range(25):
        tri = random_admissible_metric(seed)
        assert tri.is_positive_definite()
        # The coupling block is genuinely exercised, not a token epsilon.
        assert np.abs(tri.B).max() > 0.01


@pytest.mark.parametrize("block", range(3), ids=["A", "B", "C"])
def test_a_nan_entry_is_never_positive_definite(block):
    # The constructor lets a NaN through, and eigvalsh reads one triangle of
    # matrix9, so each of the nine positions of each block is tried.
    for i, j in np.ndindex(3, 3):
        triple = [2.0 * np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)]
        triple[block][i, j] = np.nan
        tri = MetricDeformation(*triple)
        assert not tri.is_positive_definite(), (i, j)


@pytest.mark.parametrize("block", range(3), ids=["A", "B", "C"])
def test_a_nan_entry_never_builds_a_metric(block):
    # Each of the 27 single NaN entries raises the positivity ValueError,
    # neither a metric holding NaN nor eigvalsh's LinAlgError.
    for i, j in np.ndindex(3, 3):
        triple = [np.eye(3), np.zeros((3, 3)), np.eye(3)]
        triple[block][i, j] = np.nan
        with pytest.raises(ValueError, match="not positive definite"):
            DeformedMetric(MetricDeformation(*triple), 0.1)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_a_time_that_is_not_finite_never_builds_a_metric(t):
    with pytest.raises(ValueError, match="not positive definite"):
        DeformedMetric(reference_deformation(), t)


def test_a_nan_smallest_eigenvalue_is_not_positive():
    with pytest.raises(ValueError, match="not positive definite"):
        _require_positive(0.1, np.array([1.0, np.nan]))


def test_metric_commutes_with_isotropy_rotation_when_b_zero():
    # With B = 0 and A arbitrary, block6 = diag(C, C) commutes with the
    # double-speed rotation, so apply and ad_h commute.
    tri = MetricDeformation(np.diag([0.3, 0.7, 1.9]), np.zeros((3, 3)),
                            np.array([[1.0, 0.2, 0.0],
                                      [0.2, 0.8, 0.1],
                                      [0.0, 0.1, 1.4]]))
    m = DeformedMetric(tri, 0.4)
    x = element(u=(1, 0, 2), v=(0, 1, 1), w=(2, 0, 1))
    lhs = m.apply(ad_h(0.67, x))
    rhs = ad_h(0.67, m.apply(x))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-14)
