"""Sectional curvature of the deformed metrics at the base point.

For a plane spanned by X, Y in m and the metric M_t = I + tL, the
unnormalized curvature numerator is the six-term expression

    C(X,Y,t) = -3/4 <[X,Y]_m, [X,Y]_m>
               + 1/2 <[[Y,X]_m, Y]_m, X>
               + 1/2 <[[X,Y]_m, X]_m, Y>
               + <[[X,Y]_h, X], Y>
               + <U(X,Y), U(X,Y)> - <U(X,X), U(Y,Y)>

with every pairing taken in the metric <a,b> = <a, M_t b>_bi and

    U(X,Y) = 1/2 M_t^{-1} ([X, M_t Y] + [Y, M_t X])_m .

The sectional curvature is K = C / S with S = g(X,X) g(Y,Y) - g(X,Y)^2.

The formula is written once and evaluated in three rings.  At a fixed t
the values are (n, 10) arrays, one plane vector per row, and M_t^{-1} is
the exact block inverse; the rows share one metric (a fixed-t scan, or one
plane as a stack of one) or carry one metric each (the Wilking suite).
At t = 0 the values are degree-4 truncated power series (jets) in t:
M_t^{-1} enters through its Neumann series, so every coefficient through
t^4 is exact up to rounding, with no step-size error.  The jets of one
plane are (k, 10) arrays, and the jets of many planes, each under its own
deformation, are (k, n, 10) arrays; the two jet rings share their Cauchy
loops and differ only in their primitives.  In both rows rings an
operator acts on a row, and two rows pair, as one small stacked matmul
per row, so each row is computed as if it were alone.
For commuting pairs the second derivative collapses to the closed form
C''(0) = 1/2 |[X, LY] - [Y, LX]|^2, which the jet path must reproduce.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .algebra import SpElement, _bracket_arr, _bracket_list, _bracket_rows, _norm
from .metric import DeformedMetric, MetricDeformation

__all__ = [
    "TangentPlane",
    "CurvatureReport",
    "u_tensor",
    "numerator",
    "denominator",
    "sectional_curvature",
    "numerator_jet",
    "second_derivative_closed_form",
    "is_commuting_pair",
    "COMMUTING_REL_TOL",
]

# A pair counts as commuting when |[x,y]| <= tol * |x| * |y|.
COMMUTING_REL_TOL = 1e-9

_JET_ORDER = 4


class TangentPlane:
    """An ordered pair of independent elements of m spanning a 2-plane,
    checked here only: both in m, finite (a squared norm that overflows
    counts as infinite) and nonzero, and the Gram determinant of the
    unit-normalized pair above 1e-12.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: SpElement, y: SpElement):
        if not (x.in_m() and y.in_m()):
            raise ValueError("plane vectors must lie in m")
        nx = math.sqrt(x.data.dot(x.data))
        ny = math.sqrt(y.data.dot(y.data))
        if not (math.isfinite(nx) and math.isfinite(ny)):
            raise ValueError("plane vectors must be finite")
        if nx == 0.0 or ny == 0.0:
            raise ValueError("plane vectors must be nonzero")
        cosine = float(x.data.dot(y.data)) / (nx * ny)
        if 1.0 - cosine * cosine <= 1e-12:
            raise ValueError("plane vectors are linearly dependent")
        self.x = x
        self.y = y

    def orthonormalized(self) -> "TangentPlane":
        """Gram-Schmidt in the bi-invariant product, x direction first, not
        admitted again: its lam can reach |y.a|/|b| times in_m's bound."""
        a = self.x.data / math.sqrt(self.x.data.dot(self.x.data))
        b = self.y.data - self.y.data.dot(a) * a
        b = b / math.sqrt(b.dot(b))
        plane = object.__new__(TangentPlane)
        plane.x, plane.y = SpElement.from_array(a), SpElement.from_array(b)
        return plane

    def __repr__(self) -> str:
        return f"TangentPlane(x={self.x!r}, y={self.y!r})"


def _orthonormal_rows(x: np.ndarray, y: np.ndarray) -> tuple:
    """TangentPlane(x[r], y[r]).orthonormalized() for every row, to the bit,
    unchecked: the rows are admitted planes or the baseline's normal draws."""
    a = x / np.sqrt(_rows_dot(x, x))[:, None]
    b = y - _rows_dot(y, a)[:, None] * a
    return a, b / np.sqrt(_rows_dot(b, b))[:, None]


class CurvatureReport(NamedTuple):
    c_value: float
    s_value: float
    k_value: float


# ---- the six-term formula, written once ----


def _m_part(a: np.ndarray) -> np.ndarray:
    """The m part of (..., 10) values: a copy with the h slot zeroed."""
    out = a.copy()
    out[..., 0] = 0.0
    return out


def _u(ring, a, ma, b, mb):
    """U(a, b) = 1/2 M^{-1} ([a, M b] + [b, M a])_m, given ma = M a, mb = M b.

    U(a, a) skips doubling [a, M a] and halving it again, which is exact.
    """
    if b is a:
        return ring.solve(_m_part(ring.br(a, ma)))
    return 0.5 * ring.solve(_m_part(ring.br(a, mb) + ring.br(b, ma)))


def _plane_terms(br, x, y) -> tuple:
    """The metric-free brackets of C: [X,Y]_m, [[Y,X]_m, Y]_m,
    [[X,Y]_m, X]_m and [[X,Y]_h, X], under the bracket ``br``."""
    xy = br(x, y)
    xy_m = _m_part(xy)
    return xy_m, _m_part(br(-xy_m, y)), _m_part(br(xy_m, x)), br(xy - xy_m, x)


def _six_terms(ring, x, y, mx=None, my=None, plane=None):
    """C(X, Y, t) term by term as in the module docstring.

    ``ring`` supplies the bracket ``br``, ``apply`` (M), ``solve`` (M^{-1})
    and the bi-invariant ``inner``, so <a, b> = inner(a, apply(b)).  A
    caller that already holds M x and M y passes them as ``mx``, ``my``,
    and one that holds _plane_terms(ring.br, x, y) passes it as ``plane``.
    """
    apply, inner = ring.apply, ring.inner
    if mx is None:
        mx, my = apply(x), apply(y)
    xy_m, yxy_m, xyx_m, hxy_x = plane or _plane_terms(ring.br, x, y)
    u_xy = _u(ring, x, mx, y, my)
    u_xx = _u(ring, x, mx, x, mx)
    u_yy = _u(ring, y, my, y, my)
    return (-0.75 * inner(xy_m, apply(xy_m))
            + 0.5 * inner(yxy_m, mx)
            + 0.5 * inner(xyx_m, my)
            + inner(hxy_x, my)
            + inner(u_xy, apply(u_xy))
            - inner(u_xx, apply(u_yy)))


# ---- planes at a fixed t ----


def _rows_dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p[r] @ q[r] for every row r of two (..., d) stacks.

    Each row is one (1, d) @ (d, 1) product of its own, so it gets the
    bits of the scalar p[r] @ q[r], whatever the stack or its strides.
    """
    return (p[..., None, :] @ q[..., :, None])[..., 0, 0]


def _rows_matvec(mat: np.ndarray, a: np.ndarray) -> np.ndarray:
    """mat @ row for every row of an (n, d) array a.

    mat is one matrix for all rows, or an (n, d, d) stack of one per row.
    Each row is one matrix-vector product of its own, so its bits do not
    depend on n or on the strides of a.  They do depend on the layout of
    mat: a Fortran-ordered copy of the same matrix runs another BLAS
    kernel, so mat is taken C-contiguous.
    """
    return np.matmul(np.ascontiguousarray(mat), a[..., None])[..., 0]


def _block_operator(a3: np.ndarray, b6: np.ndarray) -> np.ndarray:
    """The 10x10 operator: identity on h, a3 on u and b6 on (v, w).

    Stacks of n blocks give an (n, 10, 10) stack of operators.
    """
    out = np.zeros(a3.shape[:-2] + (10, 10))
    out[..., 0, 0] = 1.0
    out[..., 1:4, 1:4] = a3
    out[..., 4:10, 4:10] = b6
    return out


class _RowsRing:
    """Values are (n, 10) arrays, one plane vector per row, at a fixed t.

    A metric M and its exact block inverse act on every row at once.  The
    blocks of M and M^{-1} are those of one metric for every row, or
    stacks holding one metric per row.  Operators and inner products are
    stacked matmuls, and numpy's matmul loop computes each item of a stack
    on its own; the bracket sums its six products in a fixed order.  So no
    row's value depends on how many rows are evaluated together.
    """

    __slots__ = ("_op", "_inv")
    br = staticmethod(_bracket_rows)
    inner = staticmethod(_rows_dot)

    def __init__(self, op_a: np.ndarray, op_b6: np.ndarray,
                 inv_a: np.ndarray, inv_b6: np.ndarray):
        self._op = _block_operator(op_a, op_b6)
        self._inv = _block_operator(inv_a, inv_b6)

    def apply(self, a: np.ndarray) -> np.ndarray:
        return _rows_matvec(self._op, a)

    def solve(self, a: np.ndarray) -> np.ndarray:
        return _rows_matvec(self._inv, a)


# Rows evaluated at once by _sectional_curvature_rows and by the jet and
# closed-form rows; no value depends on them.  Chosen by timed 10k-plane
# sweeps over 256, 512 and 1024 (CHANGES.md); 1024 raised lemma0's peak.
_ROWS_CHUNK = 256
_JET_CHUNK = 512


def _metric_ring(m: DeformedMetric) -> _RowsRing:
    """The rows ring of one metric, its blocks as stacks of one."""
    return _RowsRing(m.operator_a()[None], m.operator_block6()[None],
                     m._inv_a[None], m._inv_block6[None])


def _curvature_rows(ring: _RowsRing, x: np.ndarray, y: np.ndarray, plane=None):
    """C and S for the planes spanned by the rows of (n, 10) arrays x, y.

    S = g(x,x) g(y,y) - g(x,y)^2.  Raises ValueError if any S is
    nonpositive.  ``plane`` is as for _six_terms.
    """
    mx, my = ring.apply(x), ring.apply(y)
    xmy = _rows_dot(x, my)
    s = _rows_dot(x, mx) * _rows_dot(y, my) - xmy * xmy
    if np.any(s <= 0.0):
        raise ValueError("degenerate plane: nonpositive metric Gram determinant")
    return _six_terms(ring, x, y, mx, my, plane), s


def _sectional_curvature_rows(rings: list, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K = C / S under each one-metric ring (one row of the result each),
    for the planes spanned by the rows of (n, 10) arrays x, y.  The rings
    share the metric-free brackets of each chunk of rows."""
    k = np.empty((len(rings), len(x)))
    for lo in range(0, len(x), _ROWS_CHUNK):
        rows = slice(lo, lo + _ROWS_CHUNK)
        plane = _plane_terms(_bracket_rows, x[rows], y[rows])
        for j, ring in enumerate(rings):
            c, s = _curvature_rows(ring, x[rows], y[rows], plane)
            k[j, rows] = c / s
    return k


def u_tensor(m: DeformedMetric, x: SpElement, y: SpElement) -> SpElement:
    """U(X,Y) = 1/2 M^{-1} ([X, MY] + [Y, MX])_m, symmetric in (x, y)."""
    if not (x.in_m() and y.in_m()):
        raise ValueError("u_tensor arguments must lie in m")
    ring = _metric_ring(m)
    a, b = x.data[None], y.data[None]
    return SpElement.from_array(_u(ring, a, ring.apply(a), b, ring.apply(b))[0])


def numerator(m: DeformedMetric, plane: TangentPlane) -> float:
    """The six-term curvature numerator C(X, Y, t)."""
    x, y = plane.x.data[None], plane.y.data[None]
    return float(_six_terms(_metric_ring(m), x, y)[0])


def denominator(m: DeformedMetric, plane: TangentPlane) -> float:
    """S = g(X,X) g(Y,Y) - g(X,Y)^2, strictly positive on valid planes.

    It is sectional_curvature's S, and raises its ValueError.
    """
    return sectional_curvature(m, plane).s_value


def sectional_curvature(m: DeformedMetric, plane: TangentPlane) -> CurvatureReport:
    """K = C / S for the plane at the base point.

    Raises ValueError on a degenerate plane (S <= 0).
    """
    c, s = _curvature_rows(_metric_ring(m), plane.x.data[None],
                           plane.y.data[None])
    c, s = float(c[0]), float(s[0])
    return CurvatureReport(c_value=c, s_value=s, k_value=c / s)


# ---- jets of C at t = 0 ----


@functools.cache
def _cauchy_pairs(len_p: int, len_q: int) -> tuple:
    """The (i, k - i) of each coefficient k of _cauchy, lowest i first."""
    return tuple(tuple((i, k - i) for i in range(max(0, k - len_q + 1), min(k, len_p - 1) + 1))
                 for k in range(min(_JET_ORDER, len_p + len_q - 2) + 1))


def _cauchy(p, q, mul, add=operator.add) -> list:
    """Coefficients of the product of two jets, truncated after t^4.

    Coefficient k is mul(p[i], q[k - i]) summed from the lowest i up.
    """
    out = []
    for (i, j), *rest in _cauchy_pairs(len(p), len(q)):
        acc = mul(p[i], q[j])
        for i, j in rest:
            acc = add(acc, mul(p[i], q[j]))
        out.append(acc)
    return out


def _neumann(lam9: np.ndarray) -> np.ndarray:
    """(-L)^0..4, the Neumann coefficients of M_t^{-1}, for one L or a stack."""
    out = np.empty((_JET_ORDER + 1,) + lam9.shape)
    out[0] = np.eye(9)
    for i in range(_JET_ORDER):
        out[i + 1] = -lam9 @ out[i]
    return out


class _JetRing:
    """Values are (k, 10) arrays of coefficients of t^0 .. t^(k-1), k <= 5.

    Products are Cauchy products truncated after t^4.  M_t = I + tL
    shifts L p up one power, and M_t^{-1} is its Neumann series.  The
    loops are written over the leading (power) axis only.  Inner products
    are (5,) coefficient arrays.  One plane's jets are too small for
    numpy's per-call cost, so brackets and Cauchy sums run on Python
    floats, and the dots of one inner product, like the 9x9 actions of
    one apply or solve, are one stacked matmul, with the same bits.
    """

    __slots__ = ("lam9", "neumann")

    def __init__(self, d: MetricDeformation):
        self.lam9 = d.matrix9
        self.neumann = _neumann(self.lam9)

    def br(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.array(_cauchy(p.tolist(), q.tolist(), _bracket_list,
                                lambda a, b: list(map(operator.add, a, b))))

    def inner(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        # dots[i][j] = p_i . q_j, so mul(dots[i], j) = dots[i][j].
        dots = _rows_dot(p[:, None], q[None]).tolist()
        out = _cauchy(dots, range(len(q)), list.__getitem__)
        return np.array(out + [0.0] * (_JET_ORDER + 1 - len(out)))

    def apply(self, p: np.ndarray) -> np.ndarray:
        out = np.zeros((min(len(p) + 1, _JET_ORDER + 1),) + p.shape[1:])
        out[: len(p)] = p[: len(out)]
        out[1:, ..., 1:] += _rows_matvec(self.lam9, p[: len(out) - 1, ..., 1:])
        return out

    def solve(self, p: np.ndarray) -> np.ndarray:
        """The h slot passes through; (M_t^{-1} p)_k = sum_j (-L)^(k-j) p_j."""
        out = np.zeros((_JET_ORDER + 1,) + p.shape[1:])
        out[: len(p), ..., 0] += p[..., 0]
        acts = _rows_matvec(self.neumann[:, None], p[None, ..., 1:])
        for j in range(len(p)):
            out[j:, ..., 1:] += acts[: _JET_ORDER + 1 - j, j]
        return out


class _JetRowsRing(_JetRing):
    """Values are (k, n, 10) arrays: row r holds a jet of plane r.

    Each row carries its own L (``lam9`` is (n, 9, 9), ``neumann`` is
    (5, n, 9, 9)), or all rows share one (``lam9`` is (1, 9, 9) and
    ``neumann`` (5, 1, 9, 9)).  As in _RowsRing, every product is a
    stacked matmul and every Cauchy sum runs in a fixed order, so no row's
    value depends on how many rows are evaluated together.  Inner products
    are (5, n) coefficient arrays.
    """

    __slots__ = ()

    def __init__(self, lam9: np.ndarray, neumann: np.ndarray):
        self.lam9 = lam9
        self.neumann = neumann

    def br(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.array(_cauchy(p, q, _bracket_rows))

    def inner(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        coefficients = _cauchy(p, q, _rows_dot)
        out = np.zeros((_JET_ORDER + 1,) + coefficients[0].shape)
        out[: len(coefficients)] = coefficients
        return out

    def solve(self, p: np.ndarray) -> np.ndarray:
        """As _JetRing.solve, one (n, 9) action at a time: all of them at
        once would hold (5, k, n, 9) values and raise the memory peak."""
        out = np.zeros((_JET_ORDER + 1,) + p.shape[1:])
        out[: len(p), ..., 0] += p[..., 0]
        for j, a in enumerate(p):
            for i, n in enumerate(self.neumann[: _JET_ORDER + 1 - j]):
                out[i + j, ..., 1:] += _rows_matvec(n, a[..., 1:])
        return out


def _numerator_jet_rows(lam9: np.ndarray, which: np.ndarray, x: np.ndarray,
                        y: np.ndarray) -> np.ndarray:
    """Degree-4 jets of C for the planes spanned by the rows of x, y.

    Row r is taken under the deformation L = lam9[which[r]] of an (m, 9, 9)
    stack.  Returns the (5, n) coefficients; the Neumann powers of each L
    are computed once, as numerator_jet computes them.  A stack of one is
    shared by every row, not copied to each.
    """
    neumann = _neumann(lam9)
    out = np.empty((_JET_ORDER + 1, len(x)))
    for lo in range(0, len(x), _JET_CHUNK):
        rows = slice(lo, lo + _JET_CHUNK)
        pick = slice(None) if len(lam9) == 1 else which[rows]
        ring = _JetRowsRing(lam9[pick], neumann[:, pick])
        out[:, rows] = _six_terms(ring, x[None, rows], y[None, rows])
    return out


def numerator_jet(d: MetricDeformation, plane: TangentPlane) -> np.ndarray:
    """Degree-4 jet of C(X, Y, t) at t = 0 for the deformation d.

    Returns the read-only (5,) coefficients c0..c4, exact up to rounding;
    the k-th derivative of C at 0 is k! * c_k.
    """
    jet = _six_terms(_JetRing(d), plane.x.data[None], plane.y.data[None])
    jet.setflags(write=False)
    return jet


def is_commuting_pair(x: SpElement, y: SpElement) -> bool:
    """True when |[x, y]| <= COMMUTING_REL_TOL * |x| * |y|."""
    br = _bracket_arr(x.data, y.data)
    scale = math.sqrt((x.data @ x.data) * (y.data @ y.data))
    return _norm(br) <= COMMUTING_REL_TOL * scale


def _closed_form_rows(lam9: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C''(0) = 1/2 |[X, LY] - [Y, LX]|^2 of commuting rows x, y; lam9 is (1 or n, 9, 9)."""
    lxy = np.zeros((2,) + x.shape)
    lxy[..., 1:] = _rows_matvec(lam9, np.stack((x, y))[..., 1:])
    diff = _bracket_rows(x, lxy[1]) - _bracket_rows(y, lxy[0])
    return 0.5 * _rows_dot(diff, diff)


def second_derivative_closed_form(d: MetricDeformation, plane: TangentPlane) -> float:
    """C''(0) = 1/2 |[X, LY] - [Y, LX]|^2: _closed_form_rows of one commuting pair."""
    if not is_commuting_pair(plane.x, plane.y):
        raise ValueError("closed form requires a commuting pair")
    return float(_closed_form_rows(d.matrix9[None], plane.x.data[None], plane.y.data[None])[0])
