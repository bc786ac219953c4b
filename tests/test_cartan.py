import math

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from sp2curv import (
    E1,
    E2,
    E3,
    CanonicalizationError,
    SpElement,
    ad_h,
    canonicalize,
    centralizer_in_m,
    classify_plane,
    is_commuting_pair,
    sample_cartan,
    sample_commuting_plane,
    special_orbit_distance,
)
from sp2curv.algebra import _ad_h_rows, _bracket_rows
from sp2curv.cartan import SPECIAL_ORBIT_TOL, _canonical_rows

from conftest import bits, element, near_orbit_plane

FAMILIES = ("F1", "F2", "F3", "F4")

PARAM_KEYS = {
    "F1": ("v", "w"),
    "F2": ("u", "w", "ell"),
    "F3": ("u", "p", "ell"),
    "F4": ("u", "p", "mu", "ell"),
}


def params_match(family, a, b, tol=1e-7):
    return all(np.allclose(np.asarray(a[k]), np.asarray(b[k]), atol=tol)
               for k in PARAM_KEYS[family])


def t0_pair():
    return element(v=E1), element(w=E2)


# ---- commutation and centralizers ----


def test_commutes_basics():
    x, y = t0_pair()
    assert is_commuting_pair(x, y)
    assert not is_commuting_pair(x, element(w=E1))


@pytest.mark.parametrize("family", FAMILIES)
def test_sampled_pairs_commute(family):
    for i in range(30):
        s = sample_cartan(family, np.random.default_rng([1, i]))
        assert is_commuting_pair(s.x, s.y)


def test_centralizer_dimensions():
    # A regular element despite every slot pairing orthogonally: its
    # centralizer in m is only its own line, so it spans no commuting plane.
    c = centralizer_in_m(element(u=E1, v=E2, w=E3))
    assert c.shape[0] == 1
    # A rank-one v element centralizes a four dimensional space.
    c = centralizer_in_m(element(v=E1))
    assert c.shape[0] == 4


def test_centralizer_rows_commute_and_are_orthonormal():
    x = element(v=E1)
    basis = centralizer_in_m(x)
    np.testing.assert_allclose(basis @ basis.T, np.eye(basis.shape[0]),
                               atol=1e-12)
    for row in basis:
        assert is_commuting_pair(x, SpElement.from_array(row))


def test_centralizer_matrix_is_the_rows_bracket_on_the_basis(monkeypatch):
    """The 10x9 matrix handed to the SVD, signed zeros included."""
    rng = np.random.default_rng(9)
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: seen.append(a) or svd(a))
    for _ in range(50):
        data = rng.normal(size=10) * (rng.random(10) < 0.6)
        data[rng.random(10) < 0.3] *= -1.0
        centralizer_in_m(SpElement.from_array(data))
        want = _bracket_rows(np.broadcast_to(data, (9, 10)), np.eye(10)[1:]).T
        np.testing.assert_array_equal(bits(seen.pop()), bits(want))


@pytest.mark.parametrize("family", FAMILIES)
def test_plane_members_have_plane_sized_centralizers(family):
    s = sample_cartan(family, np.random.default_rng([4, FAMILIES.index(family)]))
    assert centralizer_in_m(s.x).shape[0] >= 2
    assert centralizer_in_m(s.y).shape[0] >= 2


# ---- canonical forms ----


def test_t0_gets_identity_witness():
    x, y = t0_pair()
    cls = canonicalize(x, y)
    assert cls.family == "F1"
    assert (abs(cls.witness_angle) < 1e-12
            or abs(cls.witness_angle - math.pi) < 1e-12)
    np.testing.assert_allclose(cls.witness_matrix, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(cls.canonical_x.data, x.data, atol=1e-15)
    np.testing.assert_allclose(cls.canonical_y.data, y.data, atol=1e-15)


@pytest.mark.parametrize("mu", [0.7, -1.3])
def test_f4_canonical_input_identity(mu):
    x = element(u=E1, v=E2)
    y = element(u=E2, v=E1, w=mu * E1)
    cls = canonicalize(x, y)
    assert cls.family == "F4"
    assert cls.parameters["mu"] == pytest.approx(mu, abs=1e-10)
    np.testing.assert_allclose(cls.canonical_x.data, x.data, atol=1e-10)
    np.testing.assert_allclose(cls.canonical_y.data, y.data, atol=1e-10)


def test_f3_canonical_input_identity():
    x = element(u=E1, v=0.6 * E2)
    y = element(u=0.6 * E2, v=E1)
    cls = canonicalize(x, y)
    assert cls.family == "F3"
    assert cls.parameters["ell"] == pytest.approx(0.6, abs=1e-10)
    np.testing.assert_allclose(cls.canonical_x.data, x.data, atol=1e-9)
    np.testing.assert_allclose(cls.witness_matrix, np.eye(2), atol=1e-8)


def test_f2_with_and_without_w():
    cls = canonicalize(element(u=E1, w=0.8 * E2), element(v=E1))
    assert cls.family == "F2"
    assert cls.parameters["ell"] == pytest.approx(0.8, abs=1e-10)
    cls = canonicalize(element(u=E3), element(v=E3))
    assert cls.family == "F2"
    assert cls.parameters["ell"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_round_trip_recovers_family_and_parameters(family):
    for i in range(60):
        s = sample_cartan(family,
                          np.random.default_rng([2, FAMILIES.index(family), i]))
        cls = canonicalize(s.x, s.y)
        assert cls.family == family
        # Classify the ground-truth canonical pair: parameters must agree.
        rows = _canonical_rows(family, s.parameters)
        ref = canonicalize(SpElement.from_array(rows[0]),
                           SpElement.from_array(rows[1]))
        assert params_match(family, cls.parameters, ref.parameters)
        rx, ry = cls.reconstruct()
        scale = max(1.0, np.abs(s.x.data).max(), np.abs(s.y.data).max())
        assert np.abs(rx.data - s.x.data).max() <= 1e-8 * scale
        assert np.abs(ry.data - s.y.data).max() <= 1e-8 * scale


@pytest.mark.parametrize("family", FAMILIES)
def test_parameters_invariant_under_rotation(family):
    s = sample_cartan(family, np.random.default_rng([3, FAMILIES.index(family)]))
    base = canonicalize(s.x, s.y)
    for angle in (0.3, 1.1, 2.9):
        rot = canonicalize(ad_h(angle, s.x), ad_h(angle, s.y))
        assert rot.family == family
        assert params_match(family, rot.parameters, base.parameters)


# Draws of near_orbit_plane that the reduction rejected while it checked
# intermediate rows against an absolute residual tolerance ("row2 v",
# "row2 w"): (rng key, delta, draw indices).
@pytest.mark.parametrize("key, delta, indices", [
    ([77, 1], 1e-3, (58,)),
    ([77, 2], 1e-4, (1, 3)),
    ([77, 3], 1e-5, (0, 3)),
])
def test_near_orbit_planes_reduce_to_f4(key, delta, indices):
    rng = np.random.default_rng(key)
    draws = [near_orbit_plane(rng, delta) for _ in range(max(indices) + 1)]
    for x, y in (draws[i] for i in indices):
        cls = canonicalize(SpElement.from_array(x), SpElement.from_array(y))
        assert cls.family == "F4"
        rx, ry = cls.reconstruct()
        scale = max(1.0, np.abs([x, y]).max())
        assert np.abs([rx.data - x, ry.data - y]).max() <= 1e-8 * scale


def test_canonicalize_rejects_bad_input():
    x, _ = t0_pair()
    with pytest.raises(ValueError):
        canonicalize(x, element(w=E1))
    with pytest.raises(ValueError):
        canonicalize(x, element(v=2.0 * E1))
    with pytest.raises(ValueError):
        canonicalize(element(lam=1.0, v=E1), element(w=E2))
    with pytest.raises(ValueError):
        canonicalize(element(), x)
    # Commuting, but TangentPlane calls the pair dependent (1 - cos^2 ~ 1e-14).
    with pytest.raises(ValueError):
        canonicalize(x, element(v=E1, w=1e-7 * E2))


# Reductions per 100 near_orbit_plane draws with rng [77, k] at
# delta = 10^-(k + 2), k = 0..5: every one (100/100/95/22/2/16 while the
# guard on the F4 scale was absolute).
NEAR_ORBIT_FLOOR = (100, 100, 100, 100, 100, 100)


def test_near_orbit_reduction_floor():
    for k, floor in enumerate(NEAR_ORBIT_FLOOR):
        rng = np.random.default_rng([77, k])
        reduced = 0
        for _ in range(100):
            x, y = near_orbit_plane(rng, 10.0 ** -(k + 2))
            try:
                cls = canonicalize(SpElement.from_array(x),
                                   SpElement.from_array(y))
            except CanonicalizationError:
                continue
            rx, ry = cls.reconstruct()
            scale = max(1.0, np.abs([x, y]).max())
            assert np.abs([rx.data - x, ry.data - y]).max() <= 1e-8 * scale
            reduced += 1
        assert reduced >= floor, (k, reduced)


def _extreme_canonical_pairs():
    """F1, F2 with w = 0, F3 with |p| from 1e-9 to 1, and F4 with |p| from
    1e-9 to 1e4 and |mu| from 1e-10 to 1e8, both signs."""
    u, p_dir = [0.6, 0.0, 0.8], np.array([0.0, 1.0, 0.0])
    yield "F1", {"v": u, "w": p_dir}
    yield "F2", {"u": u, "w": [0.0] * 3}
    for p in 10.0 ** np.arange(-9, 5):
        if p <= 1.0:
            yield "F3", {"u": u, "p": p * p_dir}
        for mu in 10.0 ** np.arange(-10, 9):
            for sign in (1.0, -1.0):
                yield "F4", {"u": u, "p": p * p_dir, "mu": sign * mu}


@pytest.mark.filterwarnings("error")
def test_extreme_canonical_pairs_reconstruct_or_raise_a_reduction_error():
    # Exact, rotated and mixed: a guard only keeps the arithmetic defined
    # or the form canonical, so no ZeroDivisionError, no LinAlgError (a
    # ValueError) and no numpy warning; the reconstruction decides.
    rng = np.random.default_rng(31)
    named = set()
    for family, params in _extreme_canonical_pairs():
        rows = np.array(_canonical_rows(family, params), dtype=float)
        turned = np.array(_ad_h_rows(math.pi * rng.random(), rows.tolist()))
        for pair in (rows, turned, rng.normal(size=(2, 2)) @ turned):
            try:
                cls = canonicalize(*map(SpElement.from_array, pair))
            except CanonicalizationError:
                continue
            except ValueError as exc:  # TangentPlane's admission only
                assert str(exc).startswith("plane vectors"), exc
                continue
            rx, ry = cls.reconstruct()
            scale = max(1.0, np.abs(pair).max())
            err = np.abs([rx.data - pair[0], ry.data - pair[1]]).max()
            assert err <= 1e-8 * scale
            named.add(cls.family)
    assert named == set(FAMILIES)


# ---- the distinguished orbit ----


def test_t0_is_on_the_orbit():
    x, y = t0_pair()
    d, _ = special_orbit_distance(x, y)
    assert d < 1e-12


@pytest.mark.parametrize("angle", [0.37, 1.2, 2.8])
def test_rotated_copies_stay_on_orbit(angle):
    x, y = t0_pair()
    d, _ = special_orbit_distance(ad_h(angle, x), ad_h(angle, y))
    assert d <= SPECIAL_ORBIT_TOL


def test_recombined_copies_stay_on_orbit():
    x, y = t0_pair()
    g = np.array([[2.0, 1.0], [0.5, 1.0]])
    rows = g @ np.array([x.data, y.data])
    d, _ = special_orbit_distance(SpElement.from_array(rows[0]),
                                  SpElement.from_array(rows[1]))
    assert d <= SPECIAL_ORBIT_TOL


def test_generic_f1_plane_is_off_orbit():
    s = sample_cartan("F1", np.random.default_rng(77))
    d, _ = special_orbit_distance(s.x, s.y)
    assert d > 1e-3


def test_small_perturbation_is_resolved():
    x = element(v=E1 + 1e-4 * E3)
    y = element(w=E2)
    d, _ = special_orbit_distance(x, y)
    assert 1e-6 < d < 1e-2
    assert d > SPECIAL_ORBIT_TOL


def test_distance_agrees_with_principal_angles():
    # Independent oracle: minimize the chordal distance |sin(subspace_angles)|
    # over a fine rotation grid.  The returned angle is the exact minimizer,
    # so the distance is never above the grid's minimum, which misses the
    # true one by second order in its step.
    x0, y0 = t0_pair()
    for i in range(6):
        fam = ("F1", "F2", "F3", "F4")[i % 4]
        s = sample_cartan(fam, np.random.default_rng([9, i]))
        d, _ = special_orbit_distance(s.x, s.y)
        span = np.array([s.x.data, s.y.data])
        best = np.inf
        for ang in np.linspace(0.0, np.pi, 1201):
            rows = np.array([ad_h(ang, x0).data, ad_h(ang, y0).data])
            sines = np.sin(subspace_angles(span.T, rows.T))
            best = min(best, float(np.linalg.norm(sines)))
        assert best - 1e-4 <= d <= best + 1e-12


def test_near_orbit_distance_agrees_with_principal_angles():
    # Where membership is decided the two measures must agree tightly.
    x0, y0 = t0_pair()
    x = element(v=E1 + 1e-4 * E3)
    y = element(w=E2)
    d, _ = special_orbit_distance(x, y)
    span = np.array([x.data, y.data])
    best = np.inf
    for ang in np.linspace(0.0, np.pi, 1201):
        rows = np.array([ad_h(ang, x0).data, ad_h(ang, y0).data])
        best = min(best, float(np.linalg.norm(subspace_angles(span.T,
                                                              rows.T))))
    assert d == pytest.approx(best, rel=1e-6, abs=1e-10)


def test_orbit_angle_reconstructs_plane():
    # The returned angle must realize the claimed distance: rotating the
    # plane by the angle matches rotating t0 by its negative.
    x0, y0 = t0_pair()
    s = sample_cartan("F3", np.random.default_rng(31))
    d, angle = special_orbit_distance(s.x, s.y)
    span = np.array([s.x.data, s.y.data])
    rows = np.array([ad_h(-angle, x0).data, ad_h(-angle, y0).data])
    sines = np.sin(subspace_angles(span.T, rows.T))
    assert float(np.linalg.norm(sines)) == pytest.approx(d, rel=1e-9,
                                                         abs=1e-12)


def test_cancelling_plane_on_the_orbit_is_labelled_on_orbit():
    # The 2x2 t0 block's closed-form singular values cancel on this
    # adversarial plane and would read 6.9e-5, a false VIOLATION; the
    # residual's SVD reads its sines directly.
    plane = sample_commuting_plane(0, 1751, draw="adversarial")[0]
    label, special, d, _, _ = classify_plane(plane.orthonormalized())
    assert d <= SPECIAL_ORBIT_TOL
    assert special and label == "DEGENERATE_CUBIC"


# ---- sampler determinism ----


@pytest.mark.parametrize("family", FAMILIES)
def test_sampler_is_deterministic(family):
    a = sample_cartan(family, np.random.default_rng([42, 7]))
    b = sample_cartan(family, np.random.default_rng([42, 7]))
    np.testing.assert_array_equal(a.x.data, b.x.data)
    np.testing.assert_array_equal(a.y.data, b.y.data)
