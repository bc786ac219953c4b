"""The compact Lie algebra sp(2) in split coordinates.

An element is a vector (lam, u, v, w) with lam a real scalar and u, v, w
in R^3.  lam spans the isotropy line h of the circle subgroup; its
orthogonal complement m = {lam = 0} is the 9-dimensional tangent model of
the homogeneous space.  The bracket in these coordinates is

    lam'' = v.w' - v'.w
    u''   = u x u' + v x v' + w x w'
    v''   = u x v' - u' x v - lam w' + lam' w
    w''   = u x w' - u' x w + lam v' - lam' v

The lam-action terms in v'' and w'' are forced by the Jacobi identity and
confirmed by the quaternionic matrix model below.

Every element also has an independent matrix representation as a 2x2
quaternionic anti-Hermitian matrix

    (1/2) [[u + w,  v + lam],
           [v - lam, u - w]]

where a 3-vector stands for the pure-imaginary quaternion with those
components.  The commutator in that model is the oracle against which the
coordinate bracket is verified; it shares no code with the fast path.
The matrix side is four quaternion entries, with the Hamilton product
written out component by component; the coordinate side is the unrolled
bracket on flat arrays, and a batched bracket on (n, 10) arrays whose
structure constants are read off the unrolled one.  A quaternion
component is a float for one element, or an (n,) numpy column for n
elements converted at once, so one set of formulas serves both the
single and the batched oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "SpElement",
    "Quaternion",
    "QuatMatrix",
    "E1",
    "E2",
    "E3",
    "bracket",
    "bracket_oracle",
    "bi_inner",
    "bi_inner_trace_form",
    "norm",
    "ad_h",
    "to_matrix",
    "from_matrix",
]

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
for _e in (E1, E2, E3):
    _e.setflags(write=False)

_ANTI_HERMITIAN_TOL = 1e-8  # is_anti_hermitian's, relative to max(1, max|entry|)


class SpElement:
    """One element of sp(2), stored as a flat read-only float64 array.

    Layout: index 0 is lam, 1:4 is u, 4:7 is v, 7:10 is w.
    """

    __slots__ = ("data",)

    def __init__(self, lam, u, v, w):
        arr = np.empty(10)
        arr[0] = lam
        arr[1:4] = u
        arr[4:7] = v
        arr[7:10] = w
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def from_array(cls, arr) -> "SpElement":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (10,):
            raise ValueError(f"expected shape (10,), got {arr.shape}")
        out = object.__new__(cls)
        copy = arr.copy()
        copy.setflags(write=False)
        out.data = copy
        return out

    def in_m(self) -> bool:
        """True if the element lies in the tangent model m: |lam| is at
        most 1e-9 times the largest |coordinate|.  A zero lam passes
        whatever the other coordinates are, NaN or inf; a NaN or infinite
        lam never does."""
        lam = abs(self.data[0])
        return lam == 0.0 or (lam < math.inf
                              and lam <= 1e-9 * float(np.abs(self.data).max()))

    # Kept only for perfbench's known_recheck_defect, which goes with the
    # Wilking unit-scale defect (ROADMAP item 2).
    def __sub__(self, other: "SpElement") -> "SpElement":
        return SpElement.from_array(self.data - other.data)

    def __repr__(self) -> str:
        d = self.data.tolist()
        return f"SpElement(lam={d[0]!r}, u={d[1:4]!r}, v={d[4:7]!r}, w={d[7:10]!r})"


def _pair(rows) -> tuple:
    """from_array of both rows of a fresh (2, 10) array, or of two rows of
    10 floats, without the copies: the elements share its data, read-only."""
    rows = np.asarray(rows, dtype=float)
    rows.setflags(write=False)
    x, y = object.__new__(SpElement), object.__new__(SpElement)
    x.data, y.data = rows[0], rows[1]
    return x, y


# ---- coordinate bracket (fast path) ----


def _bracket_list(a, b) -> list:
    """Bracket of two elements given as 10 coordinates each, as a list.

    Unrolled on Python floats, which round as numpy's elementwise steps do.
    """
    la, ua1, ua2, ua3, va1, va2, va3, wa1, wa2, wa3 = a
    lb, ub1, ub2, ub3, vb1, vb2, vb3, wb1, wb2, wb3 = b
    return [
        va1 * wb1 + va2 * wb2 + va3 * wb3 - vb1 * wa1 - vb2 * wa2 - vb3 * wa3,
        # u x u' + v x v' + w x w'
        ua2 * ub3 - ua3 * ub2 + va2 * vb3 - va3 * vb2 + wa2 * wb3 - wa3 * wb2,
        ua3 * ub1 - ua1 * ub3 + va3 * vb1 - va1 * vb3 + wa3 * wb1 - wa1 * wb3,
        ua1 * ub2 - ua2 * ub1 + va1 * vb2 - va2 * vb1 + wa1 * wb2 - wa2 * wb1,
        # u x v' - u' x v - lam w' + lam' w
        ua2 * vb3 - ua3 * vb2 - ub2 * va3 + ub3 * va2 - la * wb1 + lb * wa1,
        ua3 * vb1 - ua1 * vb3 - ub3 * va1 + ub1 * va3 - la * wb2 + lb * wa2,
        ua1 * vb2 - ua2 * vb1 - ub1 * va2 + ub2 * va1 - la * wb3 + lb * wa3,
        # u x w' - u' x w + lam v' - lam' v
        ua2 * wb3 - ua3 * wb2 - ub2 * wa3 + ub3 * wa2 + la * vb1 - lb * va1,
        ua3 * wb1 - ua1 * wb3 - ub3 * wa1 + ub1 * wa3 + la * vb2 - lb * va2,
        ua1 * wb2 - ua2 * wb1 - ub1 * wa2 + ub2 * wa1 + la * vb3 - lb * va3,
    ]


def _bracket_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bracket on raw (10,) arrays."""
    return np.array(_bracket_list(a.tolist(), b.tolist()))


class _Traced:
    """A signed sum of products a_i b_j, kept in the order it is written."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms  # [(sign, i, j)], None for a missing factor

    def __mul__(self, other: "_Traced") -> "_Traced":
        (_, i, j), (_, k, m) = self.terms[0], other.terms[0]
        return _Traced([(1.0, k if i is None else i, m if j is None else j)])

    def __add__(self, other: "_Traced") -> "_Traced":
        return _Traced(self.terms + other.terms)

    def __sub__(self, other: "_Traced") -> "_Traced":
        return _Traced(self.terms + [(-s, i, j) for s, i, j in other.terms])


def _bracket_table():
    """The bracket's structure constants, read off the coordinate bracket.

    Running _bracket_list on traced coordinates records every output
    component as six signed products a_i b_j in the order the bracket
    adds them.  Returns (6, 10) arrays i, j and sign such that
    [a, b]_k = sign[0, k] a_{i[0, k]} b_{j[0, k]} + ... + sign[5, k] ...,
    summed from the left exactly as _bracket_list sums.
    """
    a = [_Traced([(1.0, i, None)]) for i in range(10)]
    b = [_Traced([(1.0, None, j)]) for j in range(10)]
    table = np.array([out.terms for out in _bracket_list(a, b)])  # (10, 6, 3)
    sign, i, j = table.transpose(2, 1, 0)
    return i.astype(int), j.astype(int), sign


_BR_I, _BR_J, _BR_SIGN = _bracket_table()
_BR_SIGNED_I = _BR_I + 10 * (_BR_SIGN < 0)  # rows of [a^T; -a^T]


def _bracket_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bracket of (n, 10) arrays, row by row, from the structure constants.

    Each row gets the bits _bracket_list gives it, whatever n is, as
    -a_i b_j rounds to -(a_i b_j): a's entries are gathered with their
    signs.  The products are gathered as (6, 10, n), so the sums run
    contiguously.
    """
    signed = np.empty((20,) + a.T.shape[1:])
    signed[:10] = a.T
    np.negative(a.T, out=signed[10:])
    p = signed[_BR_SIGNED_I]
    del signed  # before b's gather, so as not to raise the memory peak
    p *= b.T[_BR_J]
    for term in p[1:]:
        p[0] += term
    return np.ascontiguousarray(p[0].T)


def bracket(x: SpElement, y: SpElement) -> SpElement:
    """Lie bracket [x, y]."""
    return SpElement.from_array(_bracket_arr(x.data, y.data))


def bi_inner(x: SpElement, y: SpElement) -> float:
    """Bi-invariant inner product, weight 1 on each of the four factors."""
    return float(x.data @ y.data)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a 1-D array, bit for bit: the same dot of the
    same contiguous data, without the wrapper's call cost."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


def norm(x: SpElement) -> float:
    """Norm induced by the bi-invariant inner product."""
    return _norm(x.data)


def _ad_h_rows(angle: float, rows) -> list:
    """ad_h's rotation of rows of 10 floats, on floats: the roundings of
    numpy's elementwise steps (zeros and their signs included) without
    their call cost."""
    c = math.cos(2.0 * angle)
    s = math.sin(2.0 * angle)
    return [[lam, u1, u2, u3, c * v1 + s * w1, c * v2 + s * w2, c * v3 + s * w3,
             -s * v1 + c * w1, -s * v2 + c * w2, -s * v3 + c * w3]
            for lam, u1, u2, u3, v1, v2, v3, w1, w2, w3 in rows]


def _ad_h_arr(angle: float, a: np.ndarray) -> np.ndarray:
    """ad_h's rotation of a (..., 10) array, row by row, on floats."""
    return np.array(_ad_h_rows(angle, a.reshape(-1, 10).tolist())).reshape(a.shape)


def _cross(a, b) -> list:
    """np.cross of two 3-vectors of floats, term for term, as a list."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def ad_h(angle: float, x: SpElement) -> SpElement:
    """Isotropy circle action on m: u fixed, (v, w) rotated at double speed.

    Only defined on m; raises if x has a lam component.
    """
    if not x.in_m():
        raise ValueError("ad_h is only defined on m (lam must vanish)")
    return SpElement.from_array(_ad_h_arr(angle, x.data))


# ---- quaternionic matrix oracle (independent slow path) ----


class Quaternion(NamedTuple):
    """Quaternion with the orientation ij = k, jk = i, ki = j.

    Each component is a float, or an (n,) numpy column holding n
    quaternions; the arithmetic below is the same for both.
    """

    w: float
    x: float
    y: float
    z: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        w1, x1, y1, z1 = self
        w2, x2, y2, z2 = other
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)


class QuatMatrix(NamedTuple):
    """2x2 quaternionic matrix, entries row by row: a b / c d.

    With column components it holds n matrices, and every method acts
    row by row.
    """

    a: Quaternion
    b: Quaternion
    c: Quaternion
    d: Quaternion

    def __matmul__(self, other: "QuatMatrix") -> "QuatMatrix":
        return QuatMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __sub__(self, other: "QuatMatrix") -> "QuatMatrix":
        return QuatMatrix(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def commutator(self, other: "QuatMatrix") -> "QuatMatrix":
        return (self @ other) - (other @ self)

    def minus_re_trace(self):
        """-Re trace: a float, or a column for batched matrices."""
        return -(self.a.w + self.d.w)

    def is_anti_hermitian(self) -> bool:
        """True if every matrix held passes, each at its own scale."""
        scale = np.maximum(1.0, np.abs([comp for q in self for comp in q]).max(axis=0))
        bound = _ANTI_HERMITIAN_TOL * scale
        residual = self.c + self.b.conjugate()
        return bool(np.all([np.abs(comp) <= bound
                            for comp in (self.a.w, self.d.w, *residual)]))


def to_matrix(x) -> QuatMatrix:
    """Matrix form (1/2)[[u+w, v+lam], [v-lam, u-w]].

    ``x`` is one SpElement, or an (n, 10) array of n elements, for which
    every component of the result is an (n,) column.

    The placement of lam in the off-diagonal entries is the one orientation
    for which the matrix commutator reproduces the coordinate bracket
    (checked exhaustively by the oracle equivalence suite).
    """
    cols = np.asarray(x.data if isinstance(x, SpElement) else x, dtype=float).T
    if cols.ndim not in (1, 2) or cols.shape[0] != 10:
        raise ValueError(f"expected shape (n, 10), got {cols.T.shape}")
    lam, u, v, w = cols[0], cols[1:4], cols[4:7], cols[7:10]
    zero = np.zeros_like(lam)
    return QuatMatrix(
        Quaternion(zero, *((u + w) / 2.0)),
        Quaternion(lam / 2.0, *(v / 2.0)),
        Quaternion(-lam / 2.0, *(v / 2.0)),
        Quaternion(zero, *((u - w) / 2.0)),
    )


def from_matrix(m: QuatMatrix):
    """Inverse of to_matrix; rejects matrices that are not anti-Hermitian.

    Column matrices give back an (n, 10) array, and are rejected if any
    one of them fails.
    """
    if not m.is_anti_hermitian():
        raise ValueError("matrix is not anti-Hermitian within tolerance")
    lam = m.b.w - m.c.w
    v = (m.b.x + m.c.x, m.b.y + m.c.y, m.b.z + m.c.z)
    u = (m.a.x + m.d.x, m.a.y + m.d.y, m.a.z + m.d.z)
    w = (m.a.x - m.d.x, m.a.y - m.d.y, m.a.z - m.d.z)
    if np.ndim(lam):
        return np.column_stack((lam, *u, *v, *w))
    return SpElement(lam, u, v, w)


def bracket_oracle(x: SpElement, y: SpElement) -> SpElement:
    """Bracket evaluated in the matrix model: from_matrix([X, Y])."""
    return from_matrix(to_matrix(x).commutator(to_matrix(y)))


def bi_inner_trace_form(x: SpElement, y: SpElement) -> float:
    """-Re trace(XY) in the matrix model.

    Proportional to bi_inner with one global constant (the suite checks the
    ratio is exactly 2 on every factor).
    """
    return (to_matrix(x) @ to_matrix(y)).minus_re_trace()
