"""The closed form and the Neumann powers against copies of their earlier form.

``_ref_closed_form`` below is the body of ``second_derivative_closed_form``
as it was written when it applied L to one plane through a one-element
``_apply_arr`` and bracketed on Python floats, and ``_ref_neumann`` the
loop that built the powers (-L)^0..4 of one deformation.  The closed form
is now ``curvature._closed_form_rows`` on (n, 10) rows, with
``second_derivative_closed_form`` its one-row case, and one
``curvature._neumann`` builds the powers of one L or of a stack; every
value keeps its bits.
"""

import numpy as np
import pytest
from conftest import bits, matrix9_stack

from sp2curv import SpElement, experiments
from sp2curv.algebra import _bracket_arr
from sp2curv.curvature import (
    _JET_CHUNK,
    TangentPlane,
    _closed_form_rows,
    _neumann,
    second_derivative_closed_form,
)
from sp2curv.metric import random_deformation, reference_deformation

DEFORMATIONS = 100


def _ref_apply(m9, a):
    out = np.empty(10)
    out[0] = a[0]
    out[1:10] = m9 @ a[1:10]
    return out


def _m_part(a):
    out = a.copy()
    out[0] = 0.0
    return out


def _ref_closed_form(d, x, y):
    lx = _ref_apply(d.matrix9, _m_part(x))
    ly = _ref_apply(d.matrix9, _m_part(y))
    diff = _bracket_arr(x, ly) - _bracket_arr(y, lx)
    return 0.5 * float(diff @ diff)


def _ref_neumann(d):
    neumann = [np.eye(9)]
    for _ in range(4):
        neumann.append(-d.matrix9 @ neumann[-1])
    return np.array(neumann)


def _lemma0_pool(seed):
    return [random_deformation(np.random.default_rng([seed, 2, j]))
            for j in range(DEFORMATIONS)]


def _sampled_rows(seed, samples, orthonormal=True):
    """The rows of sample_commuting_plane(seed, i) and the kinds drawn."""
    rows, kinds = [], set()
    for i in range(samples):
        plane, _, kind = experiments.sample_commuting_plane(seed, i)
        plane = plane.orthonormalized() if orthonormal else plane
        rows.append((plane.x.data, plane.y.data))
        kinds.add(kind)
    rows = np.array(rows)
    return rows[:, 0], rows[:, 1], kinds


@pytest.mark.parametrize("orthonormal", [True, False], ids=["ortho", "raw"])
@pytest.mark.parametrize("seed", range(10))
def test_closed_form_keeps_the_bits_of_the_one_plane_body(seed, orthonormal):
    """Plane i under the (i mod 100)-th deformation of lemma0's pool, and
    every plane under one shared L, as rows and one plane at a time."""
    x, y, kinds = _sampled_rows(seed, 160, orthonormal)
    assert kinds == {"uniform", "transverse", "centralizer", "on_orbit"}
    pool = _lemma0_pool(seed)
    which = np.arange(len(x)) % DEFORMATIONS
    ref = reference_deformation()
    for deformations, lam9 in (([pool[j] for j in which], matrix9_stack(pool)[which]),
                               ([ref] * len(x), ref.matrix9[None])):
        want = [_ref_closed_form(d, a, b) for d, a, b in zip(deformations, x, y)]
        alone = [second_derivative_closed_form(
            d, TangentPlane(SpElement.from_array(a), SpElement.from_array(b)))
            for d, a, b in zip(deformations, x, y)]
        assert all(type(v) is float for v in alone)
        np.testing.assert_array_equal(bits(_closed_form_rows(lam9, x, y)), bits(want))
        np.testing.assert_array_equal(bits(alone), bits(want))


def test_lemma0_takes_its_closed_forms_in_chunks_with_the_same_bits(monkeypatch):
    """run_lemma0_suite(0, 10000): every call sees at most _JET_CHUNK rows,
    each with its own pool member's L, and every value keeps its bits."""
    calls = []

    def spy(lam9, x, y):
        out = _closed_form_rows(lam9, x, y)
        calls.append((lam9, x.copy(), y.copy(), out))
        return out

    monkeypatch.setattr(experiments, "_closed_form_rows", spy)
    assert experiments.run_lemma0_suite(0, 10000).passed
    assert [len(c[0]) for c in calls] == [_JET_CHUNK] * 19 + [10000 - 19 * _JET_CHUNK]
    x, y, _ = _sampled_rows(0, 10000)
    pool = _lemma0_pool(0)
    which = np.arange(10000) % DEFORMATIONS
    np.testing.assert_array_equal(bits(np.concatenate([c[1] for c in calls])), bits(x))
    np.testing.assert_array_equal(bits(np.concatenate([c[2] for c in calls])), bits(y))
    np.testing.assert_array_equal(bits(np.concatenate([c[0] for c in calls])),
                                  bits(matrix9_stack(pool)[which]))
    want = [_ref_closed_form(pool[j], a, b) for j, a, b in zip(which, x, y)]
    np.testing.assert_array_equal(bits(np.concatenate([c[3] for c in calls])), bits(want))


def test_neumann_powers_keep_the_bits_of_the_loop():
    pool = [reference_deformation()] + [random_deformation(j) for j in range(200)]
    want = np.array([_ref_neumann(d) for d in pool])
    alone = np.array([_neumann(d.matrix9) for d in pool])
    stacked = _neumann(matrix9_stack(pool))
    assert alone.shape == (len(pool), 5, 9, 9) and stacked.shape == (5, len(pool), 9, 9)
    np.testing.assert_array_equal(bits(alone), bits(want))
    np.testing.assert_array_equal(bits(stacked.swapaxes(0, 1)), bits(want))
