"""The jets against a copy of their Jet-valued form.

``_RefJetRing`` below is the scalar jet ring as it was written when its
inner products returned ``Jet`` objects and the six-term sum ran through
``Jet.__add__``, ``__sub__`` and ``__rmul__``.  The jet rings now keep
every value a plain array; each coefficient of every jet must come out
with the same bits.
"""

import operator

import numpy as np
import pytest

from sp2curv import experiments
from sp2curv.algebra import _bracket_arr
from sp2curv.curvature import _numerator_jet_rows, _six_terms, numerator_jet
from sp2curv.metric import random_deformation, reference_deformation

from conftest import matrix9_stack

SEEDS = range(10)
PLANES = 160
_ORDER = 4


# ---- the reference ring ----


class _RefJet:
    __slots__ = ("c",)

    def __init__(self, coefficients):
        c = np.zeros(_ORDER + 1)
        coefficients = np.asarray(coefficients, dtype=float)
        c[: coefficients.shape[0]] = coefficients[: _ORDER + 1]
        self.c = c

    def __add__(self, other):
        return _RefJet(self.c + other.c)

    def __sub__(self, other):
        return _RefJet(self.c - other.c)

    def __mul__(self, other):
        return _RefJet(self.c * float(other))

    __rmul__ = __mul__


def _ref_cauchy(p, q, mul):
    out = []
    for k in range(min(_ORDER, len(p) + len(q) - 2) + 1):
        lo, hi = max(0, k - len(q) + 1), min(k, len(p) - 1)
        acc = mul(p[lo], q[k - lo])
        for i in range(lo + 1, hi + 1):
            acc = acc + mul(p[i], q[k - i])
        out.append(acc)
    return out


class _RefJetRing:
    def __init__(self, d):
        self.lam9 = d.matrix9
        self.neumann = [np.eye(9)]
        for _ in range(_ORDER):
            self.neumann.append(-self.lam9 @ self.neumann[-1])

    def br(self, p, q):
        return np.array(_ref_cauchy(p, q, _bracket_arr))

    def inner(self, p, q):
        return _RefJet(_ref_cauchy(p, q, operator.matmul))

    def apply(self, p):
        out = np.zeros((min(len(p) + 1, _ORDER + 1),) + p.shape[1:])
        out[: len(p)] = p[: len(out)]
        for k, a in enumerate(p[: len(out) - 1], 1):
            out[k, 1:] += self.lam9 @ a[1:]
        return out

    def solve(self, p):
        out = np.zeros((_ORDER + 1,) + p.shape[1:])
        out[: len(p), 0] += p[:, 0]
        for j, a in enumerate(p):
            for i, n in enumerate(self.neumann[: _ORDER + 1 - j]):
                out[i + j, 1:] += n @ a[1:]
        return out


def _ref_jet(d, x, y):
    return _six_terms(_RefJetRing(d), x[None], y[None]).c


# ---- the jets ----


def _bits(a):
    return np.asarray(a).view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_jets_keep_the_bits_of_jet_arithmetic(seed):
    """Every plane under the reference deformation, and plane i under the
    (i mod 20)-th random deformation, one jet at a time and as rows."""
    planes = [experiments.sample_commuting_plane(seed, i)[0].orthonormalized()
              for i in range(PLANES)]
    x = np.array([p.x.data for p in planes])
    y = np.array([p.y.data for p in planes])
    ref = reference_deformation()
    pool = [random_deformation(j) for j in range(20)]
    which = np.arange(PLANES) % len(pool)
    for deformations, rows in (
            ([ref] * PLANES,
             _numerator_jet_rows(ref.matrix9[None], np.zeros(PLANES, dtype=int), x, y)),
            ([pool[j] for j in which], _numerator_jet_rows(matrix9_stack(pool), which, x, y))):
        expected = np.array([_ref_jet(d, a, b)
                             for d, a, b in zip(deformations, x, y)])
        got = np.array([numerator_jet(d, p)
                        for d, p in zip(deformations, planes)])
        np.testing.assert_array_equal(_bits(got), _bits(expected))
        np.testing.assert_array_equal(_bits(rows.T), _bits(expected))
