"""The samplers against a copy of their numpy-per-call form.

The ``_ref_*`` functions below are the samplers as they were written
before they dropped numpy's per-call overhead on 3-vectors and 3x3
blocks: ``np.linalg.norm``, ``np.cross``, ``rng.choice``, one
``rng.uniform`` call per parameter, the per-row ``ad_h`` rotation and
the nine single brackets of the centralizer.  Every sample must come
out with the same bits and leave its generator in the same state, so
that no draw of any suite moves.
"""

import itertools
import math

import numpy as np
import pytest

from sp2curv import experiments, metric
from sp2curv.algebra import E1, E2, SpElement, _bracket_arr
from sp2curv.cartan import sample_cartan
from sp2curv.curvature import TangentPlane

SEEDS = range(10)
FAMILIES = ("F1", "F2", "F3", "F4")
_default_rng = np.random.default_rng


# ---- the reference samplers ----


def _ref_ad_h(angle, a):
    c = math.cos(2.0 * angle)
    s = math.sin(2.0 * angle)
    out = a.copy()
    out[4:7] = c * a[4:7] + s * a[7:10]
    out[7:10] = -s * a[4:7] + c * a[7:10]
    return out


def _ref_random_unit(rng):
    while True:
        vec = rng.normal(size=3)
        n = float(np.linalg.norm(vec))
        if n > 1e-3:
            return vec / n


def _ref_random_unit_orthogonal(rng, to):
    while True:
        vec = rng.normal(size=3)
        vec -= (vec @ to) * to
        n = float(np.linalg.norm(vec))
        if n > 1e-3:
            return vec / n


def _ref_random_gl2(rng):
    while True:
        g = rng.normal(size=(2, 2))
        det = abs(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
        if 0.2 <= det <= 5.0:
            return g


def _ref_canonical_rows(family, params):
    rows = np.zeros((2, 10))
    if family == "F1":
        rows[0, 4:7] = params["v"]
        rows[1, 7:10] = params["w"]
    elif family == "F2":
        rows[0, 1:4] = params["u"]
        rows[0, 7:10] = params["w"]
        rows[1, 4:7] = params["u"]
    else:
        rows[0, 1:4] = params["u"]
        rows[0, 4:7] = params["p"]
        rows[1, 1:4] = params["p"]
        rows[1, 4:7] = params["u"]
        if family == "F4":
            rows[1, 7:10] = params["mu"] * params["u"]
    return rows


def _ref_sample_cartan(family, rng):
    """(x, y, parameters, angle, gl2)."""
    if family == "F1":
        v = _ref_random_unit(rng)
        params = {"v": v, "w": _ref_random_unit_orthogonal(rng, v)}
    elif family == "F2":
        u = _ref_random_unit(rng)
        if rng.uniform() < 0.15:
            w = np.zeros(3)
        else:
            w = rng.uniform(0.2, 2.0) * _ref_random_unit_orthogonal(rng, u)
        params = {"u": u, "w": w}
    elif family == "F3":
        u = _ref_random_unit(rng)
        params = {"u": u,
                  "p": rng.uniform(0.25, 1.0) * _ref_random_unit_orthogonal(rng, u)}
    else:
        u = _ref_random_unit(rng)
        params = {
            "u": u,
            "p": rng.uniform(0.3, 1.0) * _ref_random_unit_orthogonal(rng, u),
            "mu": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)),
        }
    angle = float(rng.uniform(0.0, math.pi))
    gl2 = _ref_random_gl2(rng)
    rows = np.array([_ref_ad_h(angle, r)
                     for r in _ref_canonical_rows(family, params)])
    rows = gl2 @ rows
    return rows[0], rows[1], params, angle, gl2


def _ref_unit(v):
    return v / np.linalg.norm(v)


def _ref_transverse(rng):
    delta = 10.0 ** rng.uniform(np.log10(1e-3), np.log10(1e-1))
    d1 = _ref_unit(np.cross(E1, rng.normal(size=3)))
    v = _ref_unit(E1 + delta * d1)
    d2 = np.cross(E2, rng.normal(size=3))
    d2 = _ref_unit(d2 - np.dot(d2, v) * v)
    w = _ref_unit(E2 - np.dot(E2, v) * v + delta * d2)
    x, y = np.zeros(10), np.zeros(10)
    x[4:7] = v
    y[7:10] = w
    return x, y


def _ref_centralizer_in_m(x, tol=1e-8):
    cols = np.empty((10, 9))
    basis = np.zeros(10)
    for i in range(9):
        basis[:] = 0.0
        basis[i + 1] = 1.0
        cols[:, i] = _bracket_arr(x, basis)
    _, svals, vt = np.linalg.svd(cols)
    cutoff = tol * (svals[0] if svals[0] > 0.0 else 1.0)
    rank = int(np.sum(svals > cutoff))
    out = np.zeros((vt.shape[0] - rank, 10))
    out[:, 1:] = vt[rank:]
    return out


def _ref_centralizer(rng):
    delta = 10.0 ** rng.uniform(np.log10(1e-3), np.log10(1e-1))
    while True:
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        if np.linalg.norm(r - np.dot(r, E1) * E1) >= 0.2:
            break
    x = np.zeros(10)
    x[4:7] = _ref_unit(E1 + delta * r)
    basis = _ref_centralizer_in_m(x)
    target = np.zeros(10)
    target[7:10] = E2
    y = basis.T @ (basis @ target)
    y -= np.dot(y, x) * x / float(np.dot(x, x))
    return x, _ref_unit(y)


def _ref_on_orbit(rng):
    t0 = np.zeros((2, 10))
    t0[0, 4:7] = E1
    t0[1, 7:10] = E2
    angle = rng.uniform(0.0, np.pi)
    rows = np.vstack([_ref_ad_h(angle, t0[0]), _ref_ad_h(angle, t0[1])])
    while True:
        g = rng.uniform(-1.0, 1.0, (2, 2))
        if abs(np.linalg.det(g)) > 0.2:
            break
    mixed = g @ rows
    return mixed[0], mixed[1]


_REF_KINDS = {"transverse": _ref_transverse, "centralizer": _ref_centralizer,
              "on_orbit": _ref_on_orbit}


def _ref_sample_commuting_plane(seed, index, draw=None):
    """(x, y, family, kind, rng)."""
    rng = _default_rng([seed, 1, index])
    if draw in FAMILIES:
        x, y = _ref_sample_cartan(draw, rng)[:2]
        return x, y, draw, "uniform", rng
    if draw == "adversarial" or index % 5 == 4:
        kind = ("transverse", "centralizer", "on_orbit")[(index // 5) % 3]
        return (*_REF_KINDS[kind](rng), "F1", kind, rng)
    family = FAMILIES[index % 5]
    x, y = _ref_sample_cartan(family, rng)[:2]
    return x, y, family, "uniform", rng


_UPPER = np.triu_indices(3, k=1)


def _ref_symmetric(rng, off, lo, hi):
    m = np.zeros((3, 3))
    m[_UPPER] = rng.uniform(-off, off, 3)
    m = m + m.T
    np.fill_diagonal(m, rng.uniform(lo, hi, 3))
    return m


def _ref_antisymmetric(rng, off):
    m = np.zeros((3, 3))
    m[_UPPER] = rng.uniform(-off, off, 3)
    return m - m.T


def _ref_block6(a, b, c):
    return np.block([[c, -b], [b, c]])


def _ref_admissible(rng):
    """(A, B, C, attempts)."""
    for attempt in range(1, 1001):
        a = _ref_symmetric(rng, 0.4, 0.3, 1.7)
        c = _ref_symmetric(rng, 0.4, 0.3, 1.7)
        b = _ref_antisymmetric(rng, 0.6)
        if (np.linalg.eigvalsh(a)[0] > 1e-9
                and np.linalg.eigvalsh(_ref_block6(a, b, c))[0] > 1e-9):
            return a, b, c, attempt
    raise RuntimeError("no positive metric")


def _ref_deformation(rng):
    a = _ref_symmetric(rng, 1.0, -1.0, 1.0)
    b = _ref_antisymmetric(rng, 1.0)
    return a, b, _ref_symmetric(rng, 1.0, -1.0, 1.0)


# ---- comparisons ----


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _same_state(rng, ref_rng):
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _same_triple(triple, a, b, c):
    for got, want in ((triple.A, a), (triple.B, b), (triple.C, c)):
        _same_bits(got, want)
    m9 = np.zeros((9, 9))
    m9[:3, :3] = a
    m9[3:, 3:] = _ref_block6(a, b, c)
    _same_bits(triple.matrix9, m9)


@pytest.fixture
def handed_out(monkeypatch):
    """The generators np.random.default_rng hands out, in order."""
    made = []

    def recording(*args, **kwargs):
        made.append(_default_rng(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_cartan_keeps_its_bits_and_stream(seed, family):
    for index in range(25):
        rng, ref_rng = (_default_rng([seed, 9, index]) for _ in range(2))
        got = sample_cartan(family, rng)
        x, y, params, angle, gl2 = _ref_sample_cartan(family, ref_rng)
        _same_state(rng, ref_rng)
        _same_bits([got.x.data, got.y.data], [x, y])
        assert got.parameters.keys() == params.keys()
        for key, value in params.items():
            _same_bits(got.parameters[key], value)
        _same_bits([got.angle], [angle])
        _same_bits(got.gl2, gl2)


@pytest.mark.parametrize("kind", sorted(_REF_KINDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_adversarial_samplers_keep_their_bits_and_stream(seed, kind):
    sampler = getattr(experiments, f"_adversarial_{kind}")
    for index in range(25):
        rng, ref_rng = (_default_rng([seed, 1, index]) for _ in range(2))
        x, y = sampler(rng)
        want = _REF_KINDS[kind](ref_rng)
        _same_state(rng, ref_rng)
        _same_bits([x.data, y.data], want)


@pytest.mark.parametrize("kwargs, n", [({}, 60), ({"draw": "adversarial"}, 30),
                                       ({"draw": "F4"}, 10)],
                         ids=["mix", "adversarial_only", "family"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_commuting_plane_keeps_its_bits_and_stream(seed, kwargs, n,
                                                          handed_out):
    for index in range(n):
        plane, family, kind = experiments.sample_commuting_plane(seed, index,
                                                                 **kwargs)
        x, y, ref_family, ref_kind, ref_rng = _ref_sample_commuting_plane(
            seed, index, **kwargs)
        _same_state(handed_out[-1], ref_rng)
        assert (family, kind) == (ref_family, ref_kind)
        _same_bits([plane.x.data, plane.y.data], [x, y])


# Per seed, an index whose metric takes three or more attempts.
SLOW_METRIC = {0: 88, 1: 25, 2: 77, 3: 0, 4: 69, 5: 24, 6: 20, 7: 23, 8: 10,
               9: 35}


@pytest.mark.parametrize("seed", SEEDS)
def test_random_admissible_metric_keeps_its_bits_and_stream(seed):
    for index in [*range(40), SLOW_METRIC[seed]]:
        rng, ref_rng = (_default_rng([seed, 3, index]) for _ in range(2))
        triple = metric.random_admissible_metric(rng)
        *want, attempts = _ref_admissible(ref_rng)
        _same_state(rng, ref_rng)
        _same_triple(triple, *want)
    assert attempts >= 3


@pytest.mark.parametrize("seed", SEEDS)
def test_random_deformation_keeps_its_bits_and_stream(seed):
    for index in range(25):
        rng, ref_rng = (_default_rng([seed, 2, index]) for _ in range(2))
        triple = metric.random_deformation(rng)
        want = _ref_deformation(ref_rng)
        _same_state(rng, ref_rng)
        _same_triple(triple, *want)


def test_uniform_is_rng_uniform():
    rng, ref_rng = _default_rng(7), _default_rng(7)
    for low, high, size in ((0.0, math.pi, None), (-1.0, 1.0, (2, 2)),
                            (0.3, 1.7, 15), (-3.0, -1.0, None)):
        for _ in range(200):
            _same_bits(metric._uniform(rng, low, high, size),
                       ref_rng.uniform(low, high, size))
    _same_state(rng, ref_rng)


# ---- MetricDeformation's validation against its three-check form ----


def _ref_validation(A, B, C):
    """The message MetricDeformation's checks raised, or None."""
    A, B, C = (np.array(m, dtype=float) for m in (A, B, C))
    for name, m in (("A", A), ("B", B), ("C", C)):
        if m.shape != (3, 3):
            return f"{name} must be 3x3, got {m.shape}"
    scale = 1.0 + max(np.abs(A).max(), np.abs(B).max(), np.abs(C).max())
    if np.abs(A - A.T).max() > 1e-10 * scale:
        return "A must be symmetric"
    if np.abs(C - C.T).max() > 1e-10 * scale:
        return "C must be symmetric"
    if np.abs(B + B.T).max() > 1e-10 * scale:
        return "B must be antisymmetric"
    return None


_A = [[0.7, 0.2, -0.1], [0.2, -0.3, 0.4], [-0.1, 0.4, 1.1]]
_B = [[0.0, 0.5, -0.2], [-0.5, 0.0, 0.3], [0.2, -0.3, 0.0]]
_C = [[-0.4, 0.1, 0.6], [0.1, 0.9, -0.2], [0.6, -0.2, 0.2]]
_NAN, _INF = float("nan"), float("inf")


def _case(**entries):
    """The generic triple with entries set, e.g. A=[((0, 1), 0.3)]."""
    blocks = {"A": np.array(_A), "B": np.array(_B), "C": np.array(_C)}
    for name, changes in entries.items():
        for (i, j), value in changes:
            blocks[name][i, j] = value
    return blocks["A"], blocks["B"], blocks["C"]


_SKEW = [((0, 1), 0.2 + 1e-6)]  # off by more than 1e-10 times the scale
_NUDGE = [((0, 1), 0.2 + 1e-11)]  # within it
VALIDATION_CASES = {
    "valid": _case(),
    "within_tolerance": _case(A=_NUDGE, C=[((0, 1), 0.1 + 1e-11)]),
    "A": _case(A=_SKEW),
    "C": _case(C=[((2, 1), -0.2 - 1e-6)]),
    "B": _case(B=[((1, 2), 0.3 + 1e-6)]),
    "B_diagonal": _case(B=[((1, 1), 1e-6)]),
    "A_and_C": _case(A=_SKEW, C=[((0, 2), 0.7)]),
    "C_and_B": _case(C=[((0, 2), 0.7)], B=[((0, 1), 0.6)]),
    "A_and_B": _case(A=_SKEW, B=[((0, 1), 0.6)]),
    "all": _case(A=_SKEW, C=[((0, 2), 0.7)], B=[((0, 1), 0.6)]),
    "nan_in_A_hides_all": _case(A=[((1, 1), _NAN)], C=[((0, 2), 0.7)],
                                B=[((0, 1), 0.6)]),
    "nan_in_A_off_diagonal": _case(A=[((2, 0), _NAN)], B=[((0, 1), 0.6)]),
    "nan_in_C_skips_C": _case(C=[((0, 1), _NAN), ((0, 2), 0.7)],
                              B=[((0, 1), 0.6)]),
    "nan_in_B_skips_B": _case(B=[((0, 1), _NAN)], C=[((0, 2), 0.7)]),
    "nan_in_B_and_C_keeps_A": _case(A=_SKEW, B=[((0, 1), _NAN)],
                                    C=[((1, 1), _NAN)]),
    "nan_in_B_only": _case(B=[((2, 0), _NAN)]),
    "inf_on_A_diagonal": _case(A=[((0, 0), _INF)], C=[((0, 2), 0.7)]),
    "inf_in_C_pair": _case(C=[((0, 1), _INF), ((1, 0), _INF)]),
    "inf_in_B": _case(B=[((0, 1), -_INF)]),
    "A_shape": (np.ones((2, 2)), _B, _C),
    "B_shape": (_A, np.zeros((3, 4)), _C),
    "C_shape_and_A_skew": (_case(A=_SKEW)[0], _B, np.zeros(3)),
}


@pytest.mark.filterwarnings("ignore:invalid value")  # inf - inf, as before
@pytest.mark.parametrize("triple", VALIDATION_CASES.values(),
                         ids=VALIDATION_CASES.keys())
def test_metric_deformation_validation_matches_the_three_checks(triple):
    want = _ref_validation(*triple)
    try:
        got = metric.MetricDeformation(*triple)
    except ValueError as exc:
        assert str(exc) == want
        return
    assert want is None
    a, b, c = (np.array(m, dtype=float) for m in triple)
    _same_triple(got, a, b, c)


# ---- the plane checks against their numpy-scalar form ----

_SPECIAL = [0.0, -0.0, 1e-12, -1e-10, 0.5, _NAN, _INF, -_INF]


def _ref_in_m(data):
    lam = abs(data[0])
    return lam == 0.0 or (np.isfinite(lam) and lam <= 1e-9 * float(np.abs(data).max()))


def _ref_plane_error(x, y):
    """The message TangentPlane's checks raised, or None."""
    if not (_ref_in_m(x) and _ref_in_m(y)):
        return "plane vectors must lie in m"
    nx, ny = float(np.sqrt(x @ x)), float(np.sqrt(y @ y))
    if not (np.isfinite(nx) and np.isfinite(ny)):
        return "plane vectors must be finite"
    if nx == 0.0 or ny == 0.0:
        return "plane vectors must be nonzero"
    cosine = float(x @ y) / (nx * ny)
    if 1.0 - cosine * cosine <= 1e-12:
        return "plane vectors are linearly dependent"
    return None


@pytest.mark.filterwarnings("ignore:invalid value")
def test_in_m_matches_its_scaled_form():
    for lam, other in itertools.product(_SPECIAL, repeat=2):
        data = np.zeros(10)
        data[0], data[5] = lam, other
        assert SpElement.from_array(data).in_m() == _ref_in_m(data)


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
def test_tangent_plane_checks_match_their_numpy_form():
    for lam, v, w in itertools.product(_SPECIAL, repeat=3):
        x, y = np.zeros(10), np.zeros(10)
        x[0], x[4], y[7] = lam, 1.0, 1.0
        x[5], y[8] = v, w
        want = _ref_plane_error(x, y)
        try:
            TangentPlane(SpElement.from_array(x), SpElement.from_array(y))
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert want is None
