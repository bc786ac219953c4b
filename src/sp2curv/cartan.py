"""Classification of Cartan subalgebras of m up to isotropy and basis change.

Every 2-plane in m spanned by a commuting pair is equivalent, under the
isotropy circle and an invertible recombination of its basis, to exactly
one of four canonical families:

    F1:  X = (0, 0, v, 0),   Y = (0, 0, 0, w),      |v| = |w| = 1, v.w = 0
    F2:  X = (0, u, 0, w),   Y = (0, 0, u, 0),      |u| = 1, u.w = 0
    F3:  X = (0, u, p, 0),   Y = (0, p, u, 0),      |u| = 1, p _|_ u, 0 < |p| <= 1
    F4:  X = (0, u, p, 0),   Y = (0, p, u, mu u),   |u| = 1, p _|_ u, mu != 0

The reduction is constructive: it returns the canonical pair together with
a witness (an angle and a 2x2 matrix) that maps the canonical pair back to
the input pair.  One pass over the orthonormalized pair finds the family,
the parameters and the angle; the matrix is then fitted to the input by
least squares, and the check of that reconstruction is the only verdict.
The guards on the way protect parameter reads and rank and branch
decisions only, not the shape of intermediate rows.  The case split is driven
by the rank of the u-parts and, when that rank is 2, by the in-plane
quadratic det[v(Z) | w(Z)] over elements Z of the plane: identically zero
for F3, a pair of distinct root directions for F4.  Orderings and signs
are fixed by rotation-invariant data only, so any basis of any rotation of
a plane reduces to the same canonical pair.

The distance of a plane from the rotation orbit of t0 is chordal (the
Grassmannian's projection metric, |sin of the principal angles|): its
square is 2 minus a quadratic form in (cos 2s, sin 2s), so the top
eigenvector of a 2x2 form gives the exact minimizing angle s, and one SVD
of the residual there gives the sines, precise near zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import (_BR_I, _BR_J, _BR_SIGN, SpElement, _ad_h_arr, _ad_h_rows,
                      _cross, _norm, _pair)
from .curvature import TangentPlane, _rows_dot, is_commuting_pair
from .metric import as_generator

__all__ = [
    "centralizer_in_m",
    "CanonicalizationError",
    "CartanClassification",
    "canonicalize",
    "special_orbit_distance",
    "PlaneSample",
    "sample_cartan",
    "SPECIAL_ORBIT_TOL",
]

SPECIAL_ORBIT_TOL = 1e-8

_RANK_TOL = 1e-8
_RESIDUAL_TOL = 1e-7

# Term t of [a, e_m]_k, e_1..e_9 the basis of m, is a_{_BR_I[t, k]} times
# entry (t, k, m): e_m[j] * sign, so a zero keeps the sign it has there.
_M_BASIS_BRACKET = (_BR_J[..., None] == np.arange(1, 10)) * _BR_SIGN[..., None]


def centralizer_in_m(x: SpElement, tol: float = _RANK_TOL) -> np.ndarray:
    """Orthonormal basis, as (dim, 10) rows, of {y in m : [x, y] = 0}.

    The bracket with x is a linear map from m (9 coordinates) into the full
    algebra (10 coordinates); the centralizer is its nullspace, read off
    from the singular values below tol times the largest one.
    """
    terms = x.data[_BR_I][..., None] * _M_BASIS_BRACKET
    matrix = terms[0]
    for term in terms[1:]:
        matrix += term
    _, svals, vt = np.linalg.svd(matrix)
    svals = svals.tolist()
    cutoff = tol * (svals[0] if svals[0] > 0.0 else 1.0)
    null9 = vt[sum(s > cutoff for s in svals):]
    out = np.zeros((null9.shape[0], 10))
    out[:, 1:] = null9
    return out


class CanonicalizationError(RuntimeError):
    """A guard of the reduction, named in the message, met a degenerate
    configuration, or the witness does not reconstruct the input."""


class CartanClassification(NamedTuple):
    """Canonical form of a commuting plane plus the transformation back:
    the isotropy rotation by witness_angle of each row of
    witness_matrix @ [canonical_x; canonical_y] reconstructs the input pair."""

    family: str
    parameters: dict
    canonical_x: SpElement
    canonical_y: SpElement
    witness_angle: float
    witness_matrix: np.ndarray

    def reconstruct(self) -> tuple:
        rows = self.witness_matrix @ np.array(
            [self.canonical_x.data, self.canonical_y.data])
        return _pair(_ad_h_rows(self.witness_angle, rows.tolist()))


class _Reduction:
    """Working rows, from the orthonormalized input, and the accumulated
    isotropy angle; mixes act on the rows only (the witness is fitted)."""

    __slots__ = ("rows", "theta")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.theta = 0.0

    def rotate(self, angle: float) -> None:
        if angle != 0.0:
            self.rows = _ad_h_arr(angle, self.rows)
            self.theta += angle

    def mix(self, a) -> None:
        self.rows = a @ self.rows

    # Accessors for the three vector slots of each row.
    def us(self) -> np.ndarray:
        return self.rows[:, 1:4]

    def vs(self) -> np.ndarray:
        return self.rows[:, 4:7]

    def ws(self) -> np.ndarray:
        return self.rows[:, 7:10]


def _first_nonzero_sign(vec: np.ndarray, tol: float = 1e-8) -> float:
    for c in vec:
        if abs(c) > tol:
            return 1.0 if c > 0.0 else -1.0
    return 1.0


def _normalize_direction(vec: np.ndarray) -> np.ndarray:
    n = _norm(vec)
    _check(n > 1e-12, "zero direction")
    out = vec / n
    return out * _first_nonzero_sign(out)


def _lex_descending(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a should come before b (componentwise descending order)."""
    for pa, pb in zip(a, b):
        if abs(pa - pb) > 1e-9:
            return pa > pb
    return True


def _quadratic_roots(qa: float, qb: float, qc: float) -> np.ndarray:
    """Root directions of qa a^2 + qb ab + qc b^2 as rows of a (2, 2) array.

    Requires the associated symmetric form to be indefinite, which is what
    two distinct real root directions mean.
    """
    m = np.array([[qa, 0.5 * qb], [0.5 * qb, qc]])
    scale = float(np.abs(m).max())
    evals, evecs = np.linalg.eigh(m)
    _check(evals[0] < -1e-10 * scale and evals[1] > 1e-10 * scale,
           "quadratic is not indefinite")
    r_plus = math.sqrt(evals[1]) * evecs[:, 0] + math.sqrt(-evals[0]) * evecs[:, 1]
    r_minus = math.sqrt(evals[1]) * evecs[:, 0] - math.sqrt(-evals[0]) * evecs[:, 1]
    return np.array([r_plus / _norm(r_plus), r_minus / _norm(r_minus)])


def _aligned_direction(row: np.ndarray) -> np.ndarray:
    """Common direction of the v and w parts of an aligned element."""
    v = row[4:7]
    w = row[7:10]
    pick = v if v @ v >= w @ w else w
    return _normalize_direction(pick)


def _pq_needs_flip(p: float, q: float) -> bool:
    """Sign convention for an aligned element against its direction.

    Flipping the element when (p, q) points left keeps the killing rotation
    inside (-pi/4, pi/4], so already-canonical input is not rotated at all.
    """
    return p < -1e-12 or (abs(p) <= 1e-12 and q < 0.0)


def _check(cond: bool, label: str) -> None:
    if not cond:
        raise CanonicalizationError(f"reduction failed: {label}")


def _orient(red: _Reduction, u_dir: np.ndarray, second: np.ndarray) -> tuple:
    """Sign u and the second direction by their first nonzero entries: u
    by negating both (the pair's negation), the other by a quarter turn
    (with row two negated, which the fitted witness absorbs)."""
    if _first_nonzero_sign(u_dir) < 0.0:
        u_dir, second = -u_dir, -second
    if _first_nonzero_sign(second) < 0.0:
        second = -second
        red.rotate(0.5 * math.pi)
    return u_dir, second


def _turn_onto_v(red: _Reduction, row: np.ndarray) -> None:
    """Turn the rows so that the aligned element +-row, signed by
    _pq_needs_flip, lies on the v slot along its direction."""
    direction = _aligned_direction(row)
    p = float(row[4:7] @ direction)
    q = float(row[7:10] @ direction)
    _check(math.hypot(p, q) > 1e-10, "first aligned element vanishes")
    if _pq_needs_flip(p, q):
        p, q = -p, -q
    red.rotate(0.5 * math.atan2(q, p))


def _reduce_case1(red: _Reduction) -> tuple:
    """u-parts vanish: the plane is a recombined rotation of an F1 pair.

    Elements with aligned v and w parts form exactly two directions in the
    plane, the zeros of the vector quadratic v(Z) x w(Z); once ordered by
    their common R^3 direction they give the F1 pair's v and w, and the
    first one turns onto the v slot.
    """
    (v1, v2), (w1, w2) = red.vs().tolist(), red.ws().tolist()
    mixed = [a + b for a, b in zip(_cross(v1, w2), _cross(v2, w1))]
    coeffs = np.array([_cross(v1, w1), mixed, _cross(v2, w2)])
    u_svd, svals, _ = np.linalg.svd(coeffs)
    _check(svals[0] > 1e-10, "vanishing alignment quadratic")
    roots = _quadratic_roots(*u_svd[:, 0])

    aligned = roots @ red.rows
    dirs = [_aligned_direction(r) for r in aligned]
    first = 0 if _lex_descending(dirs[0], dirs[1]) else 1
    m1, m2 = dirs[first], dirs[1 - first]
    _check(abs(m1 @ m2) <= _RESIDUAL_TOL, "aligned directions not orthogonal")
    _turn_onto_v(red, aligned[first])
    return "F1", {"v": m1, "w": m2}


def _reduce_case2(red: _Reduction) -> tuple:
    """u-parts have rank one: the plane recombines onto an F2 pair."""
    red.mix(np.linalg.svd(red.us())[0].T)
    n1 = _norm(red.us()[0])
    _check(n1 > 1e-10, "first u-part vanishes")
    red.mix(np.diag([1.0 / n1, 1.0]))
    u_dir = red.us()[0] / _norm(red.us()[0])

    # With the u-parts split off, the commuting constraints force the whole
    # second row onto the u direction.
    p = float(red.vs()[1] @ u_dir)
    q = float(red.ws()[1] @ u_dir)
    _check(math.hypot(p, q) > 1e-10, "second row vanishes")
    if _pq_needs_flip(p, q):
        p, q = -p, -q
    red.rotate(0.5 * math.atan2(q, p))

    # The first row's w part, off u, is the parameter; its v part along u
    # is a multiple of the second row, which the fitted witness absorbs.
    w_vec = red.ws()[0].copy()
    w_vec -= (w_vec @ u_dir) * u_dir
    u_dir, w_vec = _orient(red, u_dir, w_vec)
    if _norm(w_vec) <= _RANK_TOL:
        w_vec = np.zeros(3)

    return "F2", {"u": u_dir, "w": w_vec, "ell": _norm(w_vec)}


def _null_direction_2(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Unit (alpha, beta) with alpha c1 + beta c2 = 0 for parallel c1, c2."""
    n1 = float(c1 @ c1)
    n2 = float(c2 @ c2)
    _check(max(n1, n2) > 1e-20, "degenerate parallel pair")
    if n1 >= n2:
        out = np.array([-float(c1 @ c2) / n1, 1.0])
    else:
        out = np.array([1.0, -float(c1 @ c2) / n2])
    return out / _norm(out)


def _reduce_case3_f3(red: _Reduction) -> tuple:
    """Rank-two u-parts, identically degenerate in-plane quadratic: F3.

    A single rotation empties every w slot; the constraints then make the
    two swap-symmetric combinations E+ = (0, c, c, 0), E- = (0, d, -d, 0)
    exact null directions, and those diagonalize the pair onto the F3 form.
    """
    vs, ws = red.vs(), red.ws()
    b_sum = float(np.sum(vs * ws))
    a_minus_c = float(np.sum(vs * vs) - np.sum(ws * ws))
    red.rotate(0.25 * math.atan2(2.0 * b_sum, a_minus_c))

    us, vs = red.us(), red.vs()
    # E+ solves alpha (u1 - v1) + beta (u2 - v2) = 0, E- the + version.
    plus = _null_direction_2(us[0] - vs[0], us[1] - vs[1])
    minus = _null_direction_2(us[0] + vs[0], us[1] + vs[1])
    e_plus = plus @ red.rows
    e_minus = minus @ red.rows
    c_vec = 0.5 * (e_plus[1:4] + e_plus[4:7])
    d_vec = 0.5 * (e_minus[1:4] - e_minus[4:7])
    c_norm = _norm(c_vec)
    d_norm = _norm(d_vec)
    _check(min(c_norm, d_norm) > 1e-8, "degenerate swap eigenvectors")
    p_dir = c_vec / c_norm
    q_dir = d_vec / d_norm

    pq = float(p_dir @ q_dir)
    if pq < -1e-10 or (abs(pq) <= 1e-10 and _first_nonzero_sign(q_dir) < 0.0):
        q_dir = -q_dir

    u_dir = (p_dir + q_dir) / _norm(p_dir + q_dir)
    u_perp = (p_dir - q_dir) / _norm(p_dir + q_dir)
    u_dir, u_perp = _orient(red, u_dir, u_perp)
    _check(abs(float(u_dir @ u_perp)) <= _RESIDUAL_TOL, "F3 directions not orthogonal")
    ell = _norm(u_perp)
    _check(1e-8 < ell <= 1.0 + 1e-9, "F3 length out of range")

    return "F3", {"u": u_dir, "p": u_perp, "ell": ell}


def _reduce_case3_f4(red: _Reduction, roots: np.ndarray) -> tuple:
    """Rank-two u-parts with two aligned root directions: F4.

    The two aligned elements are ordered by the rotation-invariant ratio
    |(v, w)| / |u|; the first rotates and rescales onto (0, u, p, 0), the
    second is then forced onto (0, p, u, mu u).
    """
    aligned = roots @ red.rows
    ratios = []
    for row in aligned:
        nu = _norm(row[1:4])
        _check(nu > 1e-10, "aligned element with zero u-part")
        vw = math.hypot(_norm(row[4:7]), _norm(row[7:10]))
        ratios.append(vw / nu)
    if abs(ratios[0] - ratios[1]) <= 1e-9 * (ratios[0] + ratios[1]):
        dirs = [_aligned_direction(r) for r in aligned]
        swap = not _lex_descending(dirs[0], dirs[1])
    else:
        swap = ratios[0] > ratios[1]
    red.mix(roots[::-1] if swap else roots)
    # The first row keeps its sign: mu is even in it, and _orient signs u, p.
    _turn_onto_v(red, red.rows[0])

    nu = _norm(red.us()[0])
    _check(nu > 1e-10, "first element u-part")
    red.mix(np.diag([1.0 / nu, 1.0]))
    u_dir = red.us()[0] / _norm(red.us()[0])
    p_vec = red.vs()[0].copy()
    p_vec -= (p_vec @ u_dir) * u_dir
    p_norm = _norm(p_vec)
    _check(p_norm > 1e-8, "F4 p vanishes")

    sigma = float(red.us()[1] @ p_vec) / (p_norm * p_norm)
    _check(abs(sigma) > 1e-10, "second element scale")
    red.mix(np.diag([1.0, 1.0 / sigma]))
    mu = float(red.ws()[1] @ u_dir)
    _check(abs(mu) > 1e-8, "mu vanishes")
    u_dir, p_vec = _orient(red, u_dir, p_vec)

    return "F4", {"u": u_dir, "p": p_vec, "mu": mu,
                  "ell": _norm(p_vec)}


def _reduce_case3(red: _Reduction) -> tuple:
    """Rank-two u-parts: decide F3 against F4 by the in-plane quadratic."""
    _, svals, vt = np.linalg.svd(red.us())
    _check(svals[1] > _RANK_TOL, "u-parts lost rank two")
    b1, b2 = vt[0], vt[1]

    def plane_coords(vec):
        return np.array([float(vec @ b1), float(vec @ b2)])

    def det2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    vp = [plane_coords(v) for v in red.vs()]
    wp = [plane_coords(w) for w in red.ws()]
    qa = det2(vp[0], wp[0])
    qb = det2(vp[0], wp[1]) + det2(vp[1], wp[0])
    qc = det2(vp[1], wp[1])
    if max(abs(qa), abs(qb), abs(qc)) <= _RANK_TOL:
        return _reduce_case3_f3(red)
    roots = _quadratic_roots(qa, qb, qc)
    return _reduce_case3_f4(red, roots)


def canonicalize(x: SpElement, y: SpElement) -> CartanClassification:
    """Reduce a commuting pair to its canonical family.

    Raises TangentPlane's ValueError outside its domain (in m, nonzero,
    independent), ValueError for a pair that does not commute, and
    CanonicalizationError when a guard meets a degenerate configuration or
    the witness matrix, fitted by least squares against the canonical rows
    turned by the witness angle, does not reconstruct the input to 1e-8
    times its scale.
    """
    ortho = TangentPlane(x, y).orthonormalized()
    if not is_commuting_pair(x, y):
        raise ValueError("the pair does not commute")
    raw = np.array([x.data, y.data])
    scale = max(1.0, float(np.abs(raw).max()))

    red = _Reduction(np.array([ortho.x.data, ortho.y.data]))
    u_svals = np.linalg.svd(red.us(), compute_uv=False)
    urank = int(np.sum(u_svals > _RANK_TOL))
    family, params = (_reduce_case1, _reduce_case2, _reduce_case3)[urank](red)

    canonical = _canonical_rows(family, params)
    angle = -red.theta % math.pi
    turned = np.array(_ad_h_rows(angle, canonical))
    result = CartanClassification(
        family=family,
        parameters=params,
        canonical_x=SpElement.from_array(canonical[0]),
        canonical_y=SpElement.from_array(canonical[1]),
        witness_angle=angle,
        witness_matrix=np.linalg.lstsq(turned.T, raw.T, rcond=None)[0].T,
    )
    rx, ry = result.reconstruct()
    err = max(float(np.abs(rx.data - x.data).max()),
              float(np.abs(ry.data - y.data).max()))
    if not err <= 1e-8 * scale:
        raise CanonicalizationError(f"witness reconstruction error {err:.3e}")
    return result


# ---- the special orbit ----


def _orbit_distance_rows(x: np.ndarray, y: np.ndarray) -> tuple:
    """(distances, angles) for the planes spanned by the rows of x and y.

    Row r is computed as if it were alone: the dot products, the batched
    eigh and the batched SVD treat each small matrix of the stack on its
    own, so no value depends on the number of rows.
    """
    # Ufuncs, methods and preallocated arrays, not numpy's Python-level
    # wrappers (np.stack, np.sum, ...), which cost more than one row's work.
    norm_x = np.sqrt(_rows_dot(x, x))
    if (norm_x <= 1e-12).any():
        raise ValueError("zero element cannot span a plane")
    rows = np.empty((len(x), 2, 10))
    a = np.divide(x, norm_x[:, None], out=rows[:, 0])
    b = y - _rows_dot(y, a)[:, None] * a
    norm_b = np.sqrt(_rows_dot(b, b))
    if (norm_b <= 1e-12).any():
        raise ValueError("elements are linearly dependent")
    np.divide(b, norm_b[:, None], out=rows[:, 1])
    v = rows[:, :, 4:7]
    w = rows[:, :, 7:10]
    # M(s) = cos(2s) A + sin(2s) B, entries indexed by (t0 row, plane row);
    # pair[r] holds A and B of plane r, flattened.
    pair = np.empty((len(x), 4, 2))
    pair[:, 0], pair[:, 1], pair[:, 2] = v[..., 0], w[..., 1], w[..., 0]
    np.negative(v[..., 1], out=pair[:, 3])
    pair = pair.reshape(-1, 2, 4)
    form = np.add.reduce(pair[:, :, None] * pair[:, None], axis=-1)
    top = np.linalg.eigh(form)[1][:, :, 1]
    angles = np.array([0.5 * math.atan2(s, c) % math.pi for c, s in top.tolist()])

    # The residual against t0 is the turned plane with its t0 slots
    # (columns 4 and 8) zeroed.  Its singular values are the sines of the
    # principal angles, precise near zero.
    cos = np.cos(2.0 * angles)[:, None, None]
    sin = np.sin(2.0 * angles)[:, None, None]
    residual = rows.copy()
    residual[..., 4:7] = cos * v + sin * w
    residual[..., 7:10] = -sin * v + cos * w
    residual[..., 4:9:4] = 0.0
    sines = np.linalg.svd(residual, compute_uv=False)
    return np.sqrt(np.add.reduce(sines * sines, -1)), angles


def special_orbit_distance(x: SpElement, y: SpElement) -> tuple:
    """(distance, angle): the chordal distance of span(x, y) from the
    rotation orbit of t0 = span((0,0,e1,0), (0,0,0,e2)) and the angle
    that attains it; the one-row case of the dichotomy suite's batched
    orbit distance, with the same bits."""
    distances, angles = _orbit_distance_rows(x.data[None], y.data[None])
    return float(distances[0]), float(angles[0])


# ---- sampling ----


class PlaneSample(NamedTuple):
    """A commuting plane with the ground truth it was built from."""

    x: SpElement
    y: SpElement
    family: str
    parameters: dict
    angle: float
    gl2: np.ndarray


def _random_unit(rng: np.random.Generator, to=None) -> list:
    """A random unit 3-vector, orthogonal to the unit vector to if given.

    The projection and the division run on floats; the dots stay BLAS's."""
    while True:
        vec = rng.normal(size=3)
        a, b, c = vec.tolist()
        if to is not None:
            dot = float(vec.dot(np.array(to)))
            a, b, c = a - dot * to[0], b - dot * to[1], c - dot * to[2]
            vec = np.array([a, b, c])
        n = math.sqrt(vec.dot(vec))
        if n > 1e-3:
            return [a / n, b / n, c / n]


def _scaled_unit(rng: np.random.Generator, low: float, high: float, to) -> list:
    """rng.uniform(low, high) times _random_unit(rng, to), drawn in that order."""
    scale = low + (high - low) * rng.random()
    a, b, c = _random_unit(rng, to)
    return [scale * a, scale * b, scale * c]


def _random_gl2(rng: np.random.Generator) -> np.ndarray:
    # Rejection keeps the recombination honestly invertible either way.
    while True:
        g = rng.normal(size=(2, 2))
        (a, b), (c, d) = g.tolist()
        if 0.2 <= abs(a * d - b * c) <= 5.0:
            return g


def _canonical_rows(family: str, params: dict) -> list:
    """The canonical pair of a family F1-F4 with these parameters, as two
    rows of 10 coordinates."""
    zero = (0.0, 0.0, 0.0)
    if family == "F1":
        return [[0.0, *zero, *params["v"], *zero], [0.0, *zero, *zero, *params["w"]]]
    if family == "F2":
        u = params["u"]
        return [[0.0, *u, *zero, *params["w"]], [0.0, *zero, *u, *zero]]
    u, p = params["u"], params["p"]
    mu_u = [params["mu"] * a for a in u] if family == "F4" else zero
    return [[0.0, *u, *p, *zero], [0.0, *p, *u, *mu_u]]


def sample_cartan(family: str, rng) -> PlaneSample:
    """Draw a random commuting plane of the given family.

    Canonical parameters are drawn from bounded ranges, then hidden behind
    a random rotation and a random invertible recombination.
    """
    if family not in ("F1", "F2", "F3", "F4"):
        raise ValueError(f"unknown family {family!r}")
    rng = as_generator(rng)
    u = _random_unit(rng)
    if family == "F1":
        params = {"v": u, "w": _random_unit(rng, u)}
    elif family == "F2":
        zero = rng.random() < 0.15
        params = {"u": u, "w": [0.0] * 3 if zero else _scaled_unit(rng, 0.2, 2.0, u)}
    else:
        params = {"u": u, "p": _scaled_unit(rng, 0.25 if family == "F3" else 0.3, 1.0, u)}
    if family == "F4":
        # rng.integers(2) is the draw rng.choice([-1.0, 1.0]) makes.
        params["mu"] = (-1.0, 1.0)[rng.integers(2)] * (0.2 + (2.0 - 0.2) * rng.random())

    angle = math.pi * rng.random()  # rng.uniform(0, pi): 0.0 + pi r is pi r
    gl2 = _random_gl2(rng)
    # The rotation runs on floats; gl2 @ rows stays BLAS's, whose fused
    # multiply-adds no float expression reproduces.
    rows = gl2.dot(np.array(_ad_h_rows(angle, _canonical_rows(family, params))))
    params = {k: v if k == "mu" else np.array(v) for k, v in params.items()}
    return PlaneSample(*_pair(rows), family, params, angle, gl2)
