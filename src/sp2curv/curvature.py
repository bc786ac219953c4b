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

The formula is written once and evaluated in four rings.  At a fixed t the
values are (10,) arrays and M_t^{-1} is the exact block inverse.  For many
planes they are (n, 10) arrays, one plane vector per row; the rows share
one metric (a fixed-t scan) or carry one metric each (the Wilking suite).
At t = 0 the values are degree-4 truncated power series (jets) in t:
M_t^{-1} enters through its Neumann series, so every coefficient through
t^4 is exact up to rounding, with no step-size error.  Jets of many
planes, each under its own deformation, are (k, n, 10) arrays.  In both
rows rings an operator acts on a row, and two rows pair, as one small
stacked matmul per row, so each row is computed as if it were alone.
For commuting pairs the second derivative collapses to the closed form
C''(0) = 1/2 |[X, LY] - [Y, LX]|^2, which the jet path must reproduce.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .algebra import SpElement, _ad_h_arr, _bracket_arr, _bracket_rows
from .metric import DeformedMetric, MetricDeformation

__all__ = [
    "TangentPlane",
    "Jet",
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
    """An ordered pair of independent elements of m spanning a 2-plane.

    Independence requires the Gram determinant of the unit-normalized pair
    to exceed 1e-12.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: SpElement, y: SpElement):
        if not (x.in_m(tol=1e-9) and y.in_m(tol=1e-9)):
            raise ValueError("plane vectors must lie in m")
        nx = math.sqrt(x.data @ x.data)
        ny = math.sqrt(y.data @ y.data)
        if nx == 0.0 or ny == 0.0:
            raise ValueError("plane vectors must be nonzero")
        cosine = float(x.data @ y.data) / (nx * ny)
        if 1.0 - cosine * cosine <= 1e-12:
            raise ValueError("plane vectors are linearly dependent")
        self.x = x
        self.y = y

    def rows(self) -> np.ndarray:
        return np.array([self.x.data, self.y.data])

    def orthonormalized(self) -> "TangentPlane":
        """Gram-Schmidt in the bi-invariant product, x direction first."""
        a = self.x.data / math.sqrt(self.x.data @ self.x.data)
        b = self.y.data - (self.y.data @ a) * a
        b = b / math.sqrt(b @ b)
        return TangentPlane(SpElement.from_array(a), SpElement.from_array(b))

    def basis_changed(self, g) -> "TangentPlane":
        """Recombine the basis by an invertible 2x2 matrix g (rows act)."""
        g = np.asarray(g, dtype=float)
        new = g @ self.rows()
        return TangentPlane(
            SpElement.from_array(new[0]), SpElement.from_array(new[1])
        )

    def rotated(self, angle: float) -> "TangentPlane":
        x, y = _ad_h_arr(angle, self.rows())
        return TangentPlane(SpElement.from_array(x), SpElement.from_array(y))

    def __repr__(self) -> str:
        return f"TangentPlane(x={self.x!r}, y={self.y!r})"


def _check_plane_rows(x: np.ndarray, y: np.ndarray) -> None:
    """TangentPlane's checks on every row of (n, 10) arrays x, y.

    Each comparison is the one TangentPlane makes, so a NaN passes or
    fails as it does there.
    """
    def in_m(a):
        # SpElement.in_m(tol=1e-9); np.fmax skips a NaN as max() does.
        return np.abs(a[:, 0]) <= 1e-9 * np.fmax(1.0, np.abs(a).max(axis=1))

    if not np.all(in_m(x) & in_m(y)):
        raise ValueError("plane vectors must lie in m")
    nx = np.sqrt(_rows_dot(x, x))
    ny = np.sqrt(_rows_dot(y, y))
    if np.any((nx == 0.0) | (ny == 0.0)):
        raise ValueError("plane vectors must be nonzero")
    cosine = _rows_dot(x, y) / (nx * ny)
    if np.any(1.0 - cosine * cosine <= 1e-12):
        raise ValueError("plane vectors are linearly dependent")


def _orthonormal_rows(x: np.ndarray, y: np.ndarray) -> tuple:
    """TangentPlane(x[r], y[r]).orthonormalized() for every row, to the bit.

    The rows taken and the rows given pass TangentPlane's checks, which
    raise its ValueError.
    """
    _check_plane_rows(x, y)
    a = x / np.sqrt(_rows_dot(x, x))[:, None]
    b = y - _rows_dot(y, a)[:, None] * a
    b = b / np.sqrt(_rows_dot(b, b))[:, None]
    _check_plane_rows(a, b)
    return a, b


class CurvatureReport(NamedTuple):
    c_value: float
    s_value: float
    k_value: float


class Jet:
    """Degree-4 truncated power series in the deformation parameter."""

    __slots__ = ("c",)

    def __init__(self, coefficients):
        c = np.zeros(_JET_ORDER + 1)
        coefficients = np.asarray(coefficients, dtype=float)
        c[: coefficients.shape[0]] = coefficients[: _JET_ORDER + 1]
        c.setflags(write=False)
        self.c = c

    @classmethod
    def constant(cls, value: float) -> "Jet":
        return cls([value])

    @classmethod
    def variable(cls) -> "Jet":
        """The jet of t itself."""
        return cls([0.0, 1.0])

    def __getitem__(self, k: int) -> float:
        return float(self.c[k])

    def derivative(self, k: int) -> float:
        """k-th derivative at 0, i.e. k! times the k-th coefficient."""
        return math.factorial(k) * float(self.c[k])

    def evaluate(self, t: float) -> float:
        return float(np.polyval(self.c[::-1], t))

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.c + other.c)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.c - other.c)

    def __neg__(self) -> "Jet":
        return Jet(-self.c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            out = np.zeros(_JET_ORDER + 1)
            for k in range(_JET_ORDER + 1):
                out[k] = float(self.c[: k + 1] @ other.c[k::-1])
            return Jet(out)
        return Jet(self.c * float(other))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        """Truncated series inverse; requires |c0| > 1e-12."""
        if abs(self.c[0]) <= 1e-12:
            raise ZeroDivisionError("jet has (numerically) vanishing constant term")
        out = np.zeros(_JET_ORDER + 1)
        out[0] = 1.0 / self.c[0]
        for k in range(1, _JET_ORDER + 1):
            out[k] = -float(self.c[1 : k + 1] @ out[k - 1 :: -1]) / self.c[0]
        return Jet(out)

    def __repr__(self) -> str:
        return f"Jet({self.c.tolist()!r})"


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


def _six_terms(ring, x, y, mx=None, my=None):
    """C(X, Y, t) term by term as in the module docstring.

    ``ring`` supplies the bracket ``br``, ``apply`` (M), ``solve`` (M^{-1})
    and the bi-invariant ``inner``, so <a, b> = inner(a, apply(b)).  A
    caller that already holds M x and M y passes them as ``mx``, ``my``.
    """
    br, apply, inner = ring.br, ring.apply, ring.inner
    if mx is None:
        mx, my = apply(x), apply(y)
    xy = br(x, y)
    xy_m = _m_part(xy)
    u_xy = _u(ring, x, mx, y, my)
    u_xx = _u(ring, x, mx, x, mx)
    u_yy = _u(ring, y, my, y, my)
    return (-0.75 * inner(xy_m, apply(xy_m))
            + 0.5 * inner(_m_part(br(-xy_m, y)), mx)
            + 0.5 * inner(_m_part(br(xy_m, x)), my)
            + inner(br(xy - xy_m, x), my)
            + inner(u_xy, apply(u_xy))
            - inner(u_xx, apply(u_yy)))


# ---- exact evaluation at a fixed t ----


class _FixedRing:
    """Values are (10,) arrays, with M_t and its block inverse exact."""

    __slots__ = ("apply", "solve")
    br = staticmethod(_bracket_arr)
    inner = staticmethod(operator.matmul)

    def __init__(self, m: DeformedMetric):
        self.apply = m._apply_arr
        self.solve = m._solve_arr


# ---- many planes at one fixed t ----


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


# Rows evaluated at once by _sectional_curvature_rows and by
# _numerator_jet_rows; neither changes a value.  With stacked matmuls a
# 10k-plane fixed-t scan took 36-47 ms in chunks of 256, 38-59 ms at 512
# and 33-62 ms at 1024 (fastest and median of nine, two sweeps), so 256
# stays.  The jets of 10k planes took 161-166 ms at 256 and 150-154 ms
# at 1024.
_ROWS_CHUNK = 256
_JET_CHUNK = 1024


def _curvature_rows(ring: _RowsRing, x: np.ndarray, y: np.ndarray):
    """C and S for the planes spanned by the rows of (n, 10) arrays x, y.

    Raises ValueError, like sectional_curvature, if any S is nonpositive.
    """
    mx, my = ring.apply(x), ring.apply(y)
    xmy = _rows_dot(x, my)
    s = _rows_dot(x, mx) * _rows_dot(y, my) - xmy * xmy
    if np.any(s <= 0.0):
        raise ValueError("degenerate plane: nonpositive metric Gram determinant")
    return _six_terms(ring, x, y, mx, my), s


def _sectional_curvature_rows(m: DeformedMetric, x: np.ndarray,
                              y: np.ndarray) -> np.ndarray:
    """K = C / S for the planes spanned by the rows of (n, 10) arrays x, y."""
    ring = _RowsRing(m.operator_a(), m.operator_block6(), m._inv_a,
                     m._inv_block6)
    k = np.empty(len(x))
    for lo in range(0, len(x), _ROWS_CHUNK):
        rows = slice(lo, lo + _ROWS_CHUNK)
        c, s = _curvature_rows(ring, x[rows], y[rows])
        k[rows] = c / s
    return k


def u_tensor(m: DeformedMetric, x: SpElement, y: SpElement) -> SpElement:
    """U(X,Y) = 1/2 M^{-1} ([X, MY] + [Y, MX])_m, symmetric in (x, y)."""
    if not (x.in_m(tol=1e-9) and y.in_m(tol=1e-9)):
        raise ValueError("u_tensor arguments must lie in m")
    ring = _FixedRing(m)
    return SpElement.from_array(
        _u(ring, x.data, ring.apply(x.data), y.data, ring.apply(y.data))
    )


def numerator(m: DeformedMetric, plane: TangentPlane) -> float:
    """The six-term curvature numerator C(X, Y, t)."""
    return float(_six_terms(_FixedRing(m), plane.x.data, plane.y.data))


def denominator(m: DeformedMetric, plane: TangentPlane) -> float:
    """S = g(X,X) g(Y,Y) - g(X,Y)^2, strictly positive on valid planes."""
    x = plane.x.data
    y = plane.y.data
    mx = m._apply_arr(x)
    my = m._apply_arr(y)
    return float((x @ mx) * (y @ my) - (x @ my) ** 2)


def sectional_curvature(m: DeformedMetric, plane: TangentPlane) -> CurvatureReport:
    """K = C / S for the plane at the base point."""
    c = numerator(m, plane)
    s = denominator(m, plane)
    if s <= 0.0:
        raise ValueError("degenerate plane: nonpositive metric Gram determinant")
    return CurvatureReport(c_value=c, s_value=s, k_value=c / s)


# ---- jets of C at t = 0 ----


def _cauchy(p, q, mul) -> list:
    """Coefficients of the product of two jets, truncated after t^4.

    Coefficient k is mul(p[i], q[k - i]) summed from the lowest i up.
    """
    out = []
    for k in range(min(_JET_ORDER, len(p) + len(q) - 2) + 1):
        lo, hi = max(0, k - len(q) + 1), min(k, len(p) - 1)
        acc = mul(p[lo], q[k - lo])
        for i in range(lo + 1, hi + 1):
            acc = acc + mul(p[i], q[k - i])
        out.append(acc)
    return out


class _JetRing:
    """Values are (k, 10) arrays of coefficients of t^0 .. t^(k-1), k <= 5.

    Products are Cauchy products truncated after t^4.  M_t = I + tL
    shifts L p up one power, and M_t^{-1} is its Neumann series.  The
    loops are written over the leading (power) axis only; ``_br``,
    ``_dot`` and ``_act`` (a 9x9 coefficient matrix acting on the m part
    of one coefficient) are the primitives.
    """

    __slots__ = ("lam9", "neumann")
    _br = staticmethod(_bracket_arr)
    _dot = staticmethod(operator.matmul)
    _wrap = Jet

    @staticmethod
    def _act(mat: np.ndarray, a: np.ndarray) -> np.ndarray:
        return mat @ a[1:]

    def __init__(self, d: MetricDeformation):
        self.lam9 = d.matrix9
        # (-L)^i for i = 0..4, the Neumann coefficients of M_t^{-1}.
        self.neumann = [np.eye(9)]
        for _ in range(_JET_ORDER):
            self.neumann.append(-self.lam9 @ self.neumann[-1])

    def br(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.array(_cauchy(p, q, self._br))

    def inner(self, p: np.ndarray, q: np.ndarray):
        return self._wrap(_cauchy(p, q, self._dot))

    def apply(self, p: np.ndarray) -> np.ndarray:
        out = np.zeros((min(len(p) + 1, _JET_ORDER + 1),) + p.shape[1:])
        out[: len(p)] = p[: len(out)]
        for k, a in enumerate(p[: len(out) - 1], 1):
            out[k, ..., 1:] += self._act(self.lam9, a)
        return out

    def solve(self, p: np.ndarray) -> np.ndarray:
        """The h slot passes through; (M_t^{-1} p)_k = sum_j (-L)^(k-j) p_j."""
        out = np.zeros((_JET_ORDER + 1,) + p.shape[1:])
        out[: len(p), ..., 0] += p[..., 0]
        for j, a in enumerate(p):
            for i, n in enumerate(self.neumann[: _JET_ORDER + 1 - j]):
                out[i + j, ..., 1:] += self._act(n, a)
        return out


def _pad_rows(coefficients: list) -> np.ndarray:
    out = np.zeros((_JET_ORDER + 1,) + coefficients[0].shape)
    out[: len(coefficients)] = coefficients
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
    _br = staticmethod(_bracket_rows)
    _dot = staticmethod(_rows_dot)
    _wrap = staticmethod(_pad_rows)

    @staticmethod
    def _act(mat: np.ndarray, a: np.ndarray) -> np.ndarray:
        return _rows_matvec(mat, a[:, 1:])

    def __init__(self, lam9: np.ndarray, neumann: np.ndarray):
        self.lam9 = lam9
        self.neumann = neumann


def _numerator_jet_rows(pool: list, which: np.ndarray, x: np.ndarray,
                        y: np.ndarray) -> np.ndarray:
    """Degree-4 jets of C for the planes spanned by the rows of x, y.

    Row r is taken under the deformation pool[which[r]].  Returns the
    (5, n) coefficients; the Neumann powers of each pool deformation are
    computed once, as numerator_jet computes them.  A pool of one is
    shared by every row, not copied to each.
    """
    lam9 = np.array([d.matrix9 for d in pool])
    neumann = np.empty((_JET_ORDER + 1,) + lam9.shape)
    for j, d in enumerate(pool):
        neumann[:, j] = _JetRing(d).neumann
    out = np.empty((_JET_ORDER + 1, len(x)))
    for lo in range(0, len(x), _JET_CHUNK):
        rows = slice(lo, lo + _JET_CHUNK)
        pick = slice(None) if len(pool) == 1 else which[rows]
        ring = _JetRowsRing(lam9[pick], neumann[:, pick])
        out[:, rows] = _six_terms(ring, x[None, rows], y[None, rows])
    return out


def numerator_jet(d: MetricDeformation, plane: TangentPlane) -> Jet:
    """Degree-4 jet of C(X, Y, t) at t = 0 for the deformation d.

    Coefficients c0..c4 are exact up to rounding; the k-th derivative of C
    at 0 is k! * c_k.
    """
    return _six_terms(_JetRing(d), plane.x.data[None], plane.y.data[None])


def is_commuting_pair(x: SpElement, y: SpElement, rel_tol: float = COMMUTING_REL_TOL) -> bool:
    """True when |[x, y]| <= rel_tol * |x| * |y|."""
    br = _bracket_arr(x.data, y.data)
    scale = float(np.sqrt((x.data @ x.data) * (y.data @ y.data)))
    return float(np.sqrt(br @ br)) <= rel_tol * scale


def second_derivative_closed_form(d: MetricDeformation, plane: TangentPlane) -> float:
    """C''(0) = 1/2 |[X, LY] - [Y, LX]|^2, valid only for commuting pairs."""
    if not is_commuting_pair(plane.x, plane.y):
        raise ValueError("closed form requires a commuting pair")
    lx = d._apply_arr(_m_part(plane.x.data))
    ly = d._apply_arr(_m_part(plane.y.data))
    diff = _bracket_arr(plane.x.data, ly) - _bracket_arr(plane.y.data, lx)
    return 0.5 * float(diff @ diff)
