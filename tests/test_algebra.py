import numpy as np
import pytest
from hypothesis import given, settings

from sp2curv import (
    E1,
    E2,
    E3,
    SpElement,
    ad_h,
    bi_inner,
    bi_inner_trace_form,
    bracket,
    bracket_oracle,
    norm,
)
from sp2curv.algebra import (
    _bracket_list,
    _bracket_rows,
    _norm,
    from_matrix,
    to_matrix,
)

from conftest import bits, coords, element


def test_element_layout_and_repr():
    x = element(lam=2.0, u=(1, 2, 3), v=(4, 5, 6), w=(7, 8, 9))
    np.testing.assert_array_equal(x.data, [2, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert repr(x) == ("SpElement(lam=2.0, u=[1.0, 2.0, 3.0], "
                       "v=[4.0, 5.0, 6.0], w=[7.0, 8.0, 9.0])")
    with pytest.raises(ValueError):
        x.data[0] = 0.0


def test_membership_predicates():
    assert element(v=E1).in_m()
    assert not element(lam=1.0).in_m()


# ---- frozen structure constants ----


def test_bracket_v_v_lands_in_u():
    out = bracket(element(v=E1), element(v=E2))
    np.testing.assert_allclose(out.data, element(u=E3).data, atol=1e-15)


def test_bracket_v_w_same_direction_spans_h():
    out = bracket(element(v=E1), element(w=E1))
    expected = np.zeros(10)
    expected[0] = 1.0
    np.testing.assert_allclose(out.data, expected, atol=1e-15)


def test_bracket_u_u_is_cross_product():
    out = bracket(element(u=E1), element(u=E2))
    np.testing.assert_allclose(out.data, element(u=E3).data, atol=1e-15)


def test_bracket_h_action_rotates_v_into_w():
    h = element(lam=2.0)
    x = element(u=(1, 1, 0), v=E1, w=E2)
    out = bracket(h, x)
    np.testing.assert_allclose(out.data,
                               element(v=(-2.0) * E2, w=2.0 * E1).data,
                               atol=1e-15)


def test_bracket_mixed_slots():
    # u acts on v and w by cross product from the left.
    out = bracket(element(u=E1), element(v=E2))
    np.testing.assert_allclose(out.data, element(v=E3).data, atol=1e-15)
    out = bracket(element(u=E1), element(w=E3))
    np.testing.assert_allclose(out.data, element(w=-E2).data, atol=1e-15)


# ---- the matrix oracle route ----


def test_matrix_round_trip_exact():
    x = element(lam=0.5, u=(1, -2, 3), v=(0.25, 0, -1), w=(4, 5, -6))
    back = from_matrix(to_matrix(x))
    np.testing.assert_array_equal(back.data, x.data)


def test_oracle_agrees_on_frozen_pair():
    x = element(lam=1.0, u=(1, 0, 2), v=(0, 1, 0), w=(3, 0, 0))
    y = element(lam=-2.0, u=(0, 1, 0), v=(1, 0, 1), w=(0, 0, 2))
    direct = bracket(x, y)
    oracle = bracket_oracle(x, y)
    np.testing.assert_allclose(direct.data, oracle.data, atol=1e-12)


def test_from_matrix_rejects_non_anti_hermitian():
    # With lam != 0 the off-diagonal real parts must be opposite; copying
    # b over c breaks that.
    m = to_matrix(element(lam=2.0, v=E1))
    bad = type(m)(m.a, m.b, m.b, m.d)
    with pytest.raises(ValueError):
        from_matrix(bad)


def test_batched_matrix_round_trip_and_rejection():
    # Eighths are exact under halving and summing, so the round trip is.
    rows = np.random.default_rng(3).integers(-64, 65, (6, 10)) / 8.0
    rows[4] = element(lam=2.0, v=E1).data
    m = to_matrix(rows)
    back = from_matrix(m)
    assert back.shape == rows.shape
    for row, got in zip(rows, back):
        np.testing.assert_array_equal(got, row)
    # The same corruption as above, in row 4 only.
    bad_c = type(m.c)(*(np.where(np.arange(6) == 4, b, c)
                        for b, c in zip(m.b, m.c)))
    with pytest.raises(ValueError):
        from_matrix(type(m)(m.a, m.b, bad_c, m.d))
    # Each row is held to its own scale: a large row beside a slightly
    # corrupted small one does not widen the small one's tolerance.
    m = to_matrix(np.stack([np.full(10, 1e6), element(lam=2.0).data]))
    bad_c = m.c._replace(w=m.c.w + np.array([0.0, 1e-6]))
    with pytest.raises(ValueError):
        from_matrix(type(m)(m.a, m.b, bad_c, m.d))


@settings(max_examples=150, deadline=None)
@given(coords, coords)
def test_oracle_equivalence(xa, ya):
    x, y = SpElement.from_array(xa), SpElement.from_array(ya)
    diff = bracket(x, y).data - bracket_oracle(x, y).data
    assert np.max(np.abs(diff)) <= 1e-12 * max(1.0, norm(x) * norm(y))


# ---- algebraic laws ----


@settings(max_examples=150, deadline=None)
@given(coords, coords)
def test_antisymmetry(xa, ya):
    x, y = SpElement.from_array(xa), SpElement.from_array(ya)
    np.testing.assert_allclose(bracket(x, y).data, -bracket(y, x).data,
                               atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(coords, coords, coords)
def test_jacobi_identity(xa, ya, za):
    x = SpElement.from_array(xa)
    y = SpElement.from_array(ya)
    z = SpElement.from_array(za)
    total = (bracket(x, bracket(y, z)).data
             + bracket(y, bracket(z, x)).data
             + bracket(z, bracket(x, y)).data)
    scale = max(1.0, norm(x) * norm(y) * norm(z))
    assert np.max(np.abs(total)) <= 1e-10 * scale


@settings(max_examples=150, deadline=None)
@given(coords, coords, coords)
def test_inner_product_ad_invariance(xa, ya, za):
    x = SpElement.from_array(xa)
    y = SpElement.from_array(ya)
    z = SpElement.from_array(za)
    lhs = bi_inner(bracket(x, y), z) + bi_inner(y, bracket(x, z))
    scale = max(1.0, norm(x) * norm(y) * norm(z))
    assert abs(lhs) <= 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(coords)
def test_inner_product_positive_definite(xa):
    x = SpElement.from_array(xa)
    assert bi_inner(x, x) >= 0.0
    assert abs(bi_inner(x, x) - norm(x) ** 2) <= 1e-12 * max(1.0, norm(x) ** 2)


@settings(max_examples=100, deadline=None)
@given(coords, coords)
def test_inner_product_matches_trace_form(xa, ya):
    x, y = SpElement.from_array(xa), SpElement.from_array(ya)
    tr = bi_inner_trace_form(x, y)
    assert abs(bi_inner(x, y) - 2.0 * tr) <= 1e-11 * max(1.0, abs(tr))


def test_inner_product_frozen_value():
    x = element(lam=1.0, u=(1, 2, 0), v=(0, 1, 0), w=(2, 0, 0))
    y = element(lam=3.0, u=(1, 0, 0), v=(0, 2, 0), w=(1, 0, 1))
    assert bi_inner(x, y) == 1.0 * 3.0 + 1.0 + 2.0 + 2.0


# ---- isotropy circle action ----


def test_ad_h_quarter_period_swaps_v_and_w():
    x = element(u=(1, 2, 3), v=E1, w=E2)
    out = ad_h(np.pi / 4.0, x)
    np.testing.assert_allclose(out.data, element(u=(1, 2, 3), v=E2, w=-E1).data,
                               atol=1e-15)


def test_ad_h_rejects_h_component():
    with pytest.raises(ValueError):
        ad_h(0.3, element(lam=1.0, v=E1))


@settings(max_examples=80, deadline=None)
@given(coords, coords)
def test_ad_h_is_bracket_automorphism_on_m(xa, ya):
    s = 0.83
    x = SpElement.from_array(np.concatenate([[0.0], xa[1:]]))
    y = SpElement.from_array(np.concatenate([[0.0], ya[1:]]))
    lhs = bracket(ad_h(s, x), ad_h(s, y))
    # The bracket of two m elements has both m and h parts; the action
    # rotates the m part and fixes h, so transport the full bracket.
    br = bracket(x, y).data
    rot = ad_h(s, SpElement.from_array(np.concatenate([[0.0], br[1:]]))).data
    scale = max(1.0, norm(x) * norm(y))
    assert abs(lhs.data[0] - br[0]) <= 1e-12 * scale
    assert np.max(np.abs(lhs.data[1:] - rot[1:])) <= 1e-12 * scale


def test_ad_h_preserves_inner_product():
    x = element(u=(1, 0, 2), v=(0, 3, 0), w=(1, 1, 1))
    y = element(u=(0, 1, 0), v=(2, 0, 1), w=(0, 2, 0))
    assert abs(bi_inner(ad_h(1.2, x), ad_h(1.2, y)) - bi_inner(x, y)) <= 1e-12


def test_batched_bracket_matches_scalar_bracket_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 256, 1000):
        a, b = rng.uniform(-1.0, 1.0, (2, 2 * n, 10))
        # A zero's sign shows in the products it meets and in their sums.
        zero = rng.random((2, 2 * n, 10)) < 0.3
        a[zero[0]] = np.copysign(0.0, a[zero[0]])
        b[zero[1]] = np.copysign(0.0, b[zero[1]])
        for p, q in ((a[:n], b[:n]), (a[::2], b[1::2])):  # contiguous, strided
            scalar = [_bracket_list(r, s) for r, s in zip(p.tolist(), q.tolist())]
            np.testing.assert_array_equal(bits(_bracket_rows(p, q)), bits(scalar))


def test_batched_bracket_returns_c_contiguous_rows():
    # The rows rings hand the bracket to per-row matmuls, whose bits
    # follow the layout of what they are given.
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1.0, 1.0, (2, 40, 10))
    out = _bracket_rows(a[::2], b[1::2])
    assert out.shape == (20, 10) and out.flags.c_contiguous


@pytest.mark.parametrize("size", [2, 3, 6, 9, 10])
def test_norm_helper_keeps_the_bits_of_np_linalg_norm(size):
    # cartan passes fresh vectors and slices of (2, 10) rows; a strided
    # view sums in another order unless it is made contiguous first.
    rng = np.random.default_rng(size)
    bad = []
    for _ in range(500):
        block = rng.normal(size=(2, 3 * size)) * 10.0 ** rng.integers(-6, 6)
        for v in (block[0, :size].copy(), block[1, size:2 * size],
                  block[0, ::3], block[:, 1][: min(size, 2)]):
            got, want = _norm(v), float(np.linalg.norm(v))
            if bits(got) != bits(want):
                bad.append((v.tolist(), got, want))
    assert bad == []

