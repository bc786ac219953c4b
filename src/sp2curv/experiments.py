"""Verification experiments for the curvature claims.

Each driver in this module is a seeded, deterministic experiment that
returns a plain report object.  The four main suites are:

* ``run_oracle_suite``   -- bracket and inner product against the
  quaternionic matrix model.
* ``run_lemma0_suite``   -- vanishing of the zeroth and first jet
  coefficients on commuting planes, for arbitrary deformation triples.
* ``verify_lemma1``      -- the dichotomy: away from the distinguished
  orbit the quadratic jet coefficient is positive, on the orbit the
  cubic coefficient takes over with magnitude one.
* ``verify_theorem1``    -- positivity of sectional curvature on
  commuting planes at small deformation times of the measured sign.
* ``verify_wilking``     -- for every admissible homogeneous metric, a
  certified plane with nonpositive curvature numerator.

Determinism: every sample draws from ``default_rng([seed, stream, i])``
so results are independent of iteration order and process count.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import NamedTuple

import numpy as np

from .algebra import (
    E1,
    E2,
    SpElement,
    _ad_h_rows,
    _bracket_list,
    _bracket_rows,
    _cross,
    _norm,
    _pair,
    from_matrix,
    to_matrix,
)
from .cartan import (
    SPECIAL_ORBIT_TOL,
    _orbit_distance_rows,
    centralizer_in_m,
    sample_cartan,
    special_orbit_distance,
)
from .curvature import (
    TangentPlane,
    _JET_CHUNK,
    _RowsRing,
    _closed_form_rows,
    _curvature_rows,
    _metric_ring,
    _numerator_jet_rows,
    _orthonormal_rows,
    _rows_dot,
    _sectional_curvature_rows,
    _six_terms,
    is_commuting_pair,
    numerator_jet,
    sectional_curvature,
)
from .metric import (
    DeformedMetric,
    MetricDeformation,
    _EIG_FLOOR,
    _metric_blocks,
    _metric_ops,
    _require_positive,
    _uniform,
    random_admissible_metric,
    random_deformation,
    reference_deformation,
)

__all__ = [
    "C2_TOL",
    "C3_UNIT_TOL",
    "Lemma0Report",
    "Lemma1Verdict",
    "Lemma1Report",
    "OracleReport",
    "Theorem1Report",
    "WilkingCertificate",
    "WilkingReport",
    "classify_plane",
    "run_lemma0_suite",
    "measure_sigma",
    "run_baseline_suite",
    "run_oracle_suite",
    "sample_commuting_plane",
    "special_plane",
    "verify_lemma1",
    "verify_theorem1",
    "verify_wilking",
    "verify_wilking_inequalities",
    "wilking_pair",
]

# Classification thresholds for the jet coefficients of orthonormalized
# planes.  c2 below C2_TOL counts as vanishing; on the distinguished
# orbit the cubic coefficient must be a unit within C3_UNIT_TOL.
C2_TOL = 1e-10
C3_UNIT_TOL = 1e-8

_GENERIC = "GENERIC_POSITIVE"
_DEGENERATE = "DEGENERATE_CUBIC"
_VIOLATION = "VIOLATION"
_LABELS = (_VIOLATION, _GENERIC, _DEGENERATE)  # indexed by _dichotomy_codes

_FAMILIES = ("F1", "F2", "F3", "F4")

# Adversarial samples keep their distance to the distinguished orbit
# either exactly zero or above this floor.  The dichotomy thresholds
# (C2_TOL for the quadratic coefficient, SPECIAL_ORBIT_TOL for the
# orbit test) leave a resolution gap for distances between 1e-8 and
# roughly 2e-4 where c2 is positive but smaller than C2_TOL; samples
# inside that gap would be misread as violations by any finite
# tolerance.  The floor keeps the perturbation honestly transverse.
_ADVERSARIAL_MIN_SCALE = 1e-3
_ADVERSARIAL_MAX_SCALE = 1e-1
_TRANSVERSE_FLOOR = 0.2
_LOG_SCALES = (float(np.log10(_ADVERSARIAL_MIN_SCALE)),
               float(np.log10(_ADVERSARIAL_MAX_SCALE)))

# The rows (0, 0, e1, 0) and (0, 0, 0, e2) of the distinguished plane.
_T0 = np.zeros((2, 10))
_T0[0, 4:7] = E1
_T0[1, 7:10] = E2
_E1, _E2 = E1.tolist(), E2.tolist()


def special_plane() -> TangentPlane:
    """The distinguished commuting plane spanned by (0,0,e1,0), (0,0,0,e2)."""
    return TangentPlane(SpElement.from_array(_T0[0]), SpElement.from_array(_T0[1]))


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------


# Pairs drawn and converted to the matrix model at once.  With the column
# bracket, 512 and 1024 beat 256 alone (1,250 pairs: 3.0 and 2.7 against
# 3.6 ms, fastest of 25 on a 2-core x86 box) but not in 20 s `fixed` runs,
# and peak at 0.84 and 1.55 against 0.44 MiB (tracemalloc), so 256 stays.
_ORACLE_CHUNK = 256


class OracleReport(NamedTuple):
    samples: int
    max_bracket_error: float
    inner_ratio: float
    inner_ratio_spread: float
    elapsed_seconds: float
    passed: bool


def run_oracle_suite(seed: int, samples: int = 10000, *, tol: float = 1e-12,
                     bracket_fn=None) -> OracleReport:
    """Cross-check the structure constants against the matrix model.

    Random pairs of full algebra elements (h-components included) are
    pushed through both the component bracket and the quaternionic
    commutator oracle; the largest componentwise discrepancy is
    reported.  The ad-invariant inner product is compared against the
    negative real trace form, which it must match up to one global
    constant.  The batched bracket of the curvature scans is checked
    against the same commutator, and its error counts in
    ``max_bracket_error`` too.  The bracket under test, ``bracket``'s
    body ``_bracket_list``, runs once per chunk on coordinate columns,
    each entry rounding as its pair's Python floats would.  An injected
    ``bracket_fn`` replaces it; it is called once per pair with two
    ``SpElement``s and its result's ``.data`` is read, so tests can
    inject a corrupted bracket and watch the suite fail.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    start = time.perf_counter()

    # The proportionality constant, factor by factor: unit vectors in
    # each of the lambda, u, v, w slots must give the same ratio.
    eye = np.eye(10)
    mat = to_matrix(eye)
    ratios = (_rows_dot(eye, eye) / (mat @ mat).minus_re_trace()).tolist()

    # One generator, and the matrix model on columns of _ORACLE_CHUNK
    # pairs: the suite has to clear its 1 s budget at 1e4 samples, which
    # neither per-index generators nor a per-pair oracle allow.  The
    # generator's stream does not depend on how its draws are split, so
    # the chunk size changes no sample.
    rng = np.random.default_rng([seed, 0])
    max_err = 0.0
    for lo in range(0, samples, _ORACLE_CHUNK):
        pairs = rng.uniform(-1.0, 1.0, (min(_ORACLE_CHUNK, samples - lo), 2, 10))
        # Convert each element once; the product xy feeds both the
        # commutator and the trace form.
        xs, ys = pairs[:, 0], pairs[:, 1]
        mx = to_matrix(xs)
        my = to_matrix(ys)
        xy = mx @ my
        diff = from_matrix(xy - (my @ mx), tol=1e-8)
        # The batched bracket of the curvature scans meets the same
        # commutator, all pairs of the chunk at once.
        rows_err = np.max(np.abs(diff - _bracket_rows(xs, ys)))
        # The bracket under test (a scalar component broadcasts into its
        # columns), and the inner products the trace form resolves.
        if bracket_fn is None:
            under_test = np.empty((10, len(xs)))
            for row, component in zip(under_test, _bracket_list(xs.T, ys.T)):
                row[...] = component
            diff -= under_test.T
        else:
            diff -= [bracket_fn(SpElement.from_array(a), SpElement.from_array(b)).data
                     for a, b in zip(xs, ys)]
        traces = xy.minus_re_trace()
        keep = np.abs(traces) > 1e-1
        ratios.extend((_rows_dot(xs, ys)[keep] / traces[keep]).tolist())
        # np.maximum keeps a NaN, which the builtin max would drop.
        max_err = float(np.maximum(max_err, np.maximum(
            rows_err, np.max(np.abs(diff)))))

    ratios = np.asarray(ratios)
    ratio = float(np.median(ratios))
    spread = float((ratios.max() - ratios.min()) / abs(ratio))
    elapsed = time.perf_counter() - start
    passed = max_err <= tol and spread < 1e-12
    return OracleReport(samples, max_err, ratio, spread, elapsed, passed)


# ---------------------------------------------------------------------------
# commuting plane sampler
# ---------------------------------------------------------------------------


def _unit(vec: list) -> list:
    """vec / |vec| on floats, the norm a BLAS dot as np.linalg.norm takes it."""
    n = _norm(np.array(vec))
    return [a / n for a in vec]


def _adversarial_transverse(rng) -> tuple[SpElement, SpElement]:
    """A commuting plane a controlled small distance off the orbit.

    Both spanning directions of the distinguished plane are tilted by a
    perturbation orthogonal to the original axis, with magnitude
    log-uniform in [1e-3, 1e-1].  Transversality keeps the orbit
    distance comparable to the tilt, so the plane lands safely on the
    generic side of the dichotomy.
    """
    delta = 10.0 ** _uniform(rng, *_LOG_SCALES)
    d1 = _unit(_cross(_E1, rng.normal(size=3).tolist()))
    v = _unit([e + delta * a for e, a in zip(_E1, d1)])
    d2 = _cross(_E2, rng.normal(size=3).tolist())
    v_arr = np.array(v)
    dot = float(np.array(d2).dot(v_arr))
    d2 = _unit([a - dot * b for a, b in zip(d2, v)])
    dot = float(E2.dot(v_arr))
    w = _unit([e - dot * a + delta * b for e, a, b in zip(_E2, v, d2)])
    return _pair([[0.0] * 4 + v + [0.0] * 3, [0.0] * 7 + w])


def _adversarial_centralizer(rng) -> tuple[SpElement, SpElement]:
    """Perturb one spanning vector, re-complete through its centralizer.

    The first vector is nudged inside its stratum, the second is the
    projection of the original partner onto the centralizer of the
    perturbed vector, so the pair commutes exactly.  The perturbation
    direction keeps a minimum transverse component; purely parallel
    nudges would leave the plane in the no-man's-land between the orbit
    tolerance and the c2 threshold.
    """
    delta = 10.0 ** _uniform(rng, *_LOG_SCALES)
    while True:
        r = _unit(rng.normal(size=3).tolist())
        dot = float(np.array(r).dot(E1))
        if _norm(np.array([a - dot * e for a, e in zip(r, _E1)])) >= _TRANSVERSE_FLOOR:
            break
    x_row = [0.0] * 4 + _unit([e + delta * a for e, a in zip(_E1, r)]) + [0.0] * 3
    x = SpElement.from_array(x_row)
    basis = centralizer_in_m(x)
    y = basis.T.dot(basis.dot(_T0[1]))
    dot, nn = float(y.dot(x.data)), float(x.data.dot(x.data))
    y = _unit([a - dot * b / nn for a, b in zip(y.tolist(), x_row)])
    return x, SpElement.from_array(y)


def _adversarial_on_orbit(rng) -> tuple[SpElement, SpElement]:
    """An exact point of the distinguished orbit, in disguised basis."""
    rows = np.array(_ad_h_rows(_uniform(rng, 0.0, np.pi), _T0.tolist()))
    while True:
        g = _uniform(rng, -1.0, 1.0, (2, 2))
        if abs(np.linalg.det(g)) > 0.2:
            break
    return _pair(g.dot(rows))


# The adversarial kinds in the order the default mix cycles them.
_ADVERSARIAL = (("transverse", _adversarial_transverse),
                ("centralizer", _adversarial_centralizer),
                ("on_orbit", _adversarial_on_orbit))


def sample_commuting_plane(seed: int, index: int, *,
                           family: str | None = None,
                           adversarial_only: bool = False):
    """Draw one commuting plane, returning (plane, family, kind).

    The default mix cycles the four canonical families and, every fifth
    draw, an adversarial sample near the distinguished orbit.  ``kind``
    is ``uniform``, ``transverse``, ``centralizer`` or ``on_orbit``.
    Passing ``family`` restricts to that family; ``adversarial_only``
    draws only orbit-adjacent planes.  The two exclude each other.
    """
    if family is not None and adversarial_only:
        raise ValueError("family and adversarial_only exclude each other")
    rng = np.random.default_rng([seed, 1, index])
    if family is None and (adversarial_only or index % 5 == 4):
        kind, draw = _ADVERSARIAL[(index // 5) % 3]
        return TangentPlane(*draw(rng)), "F1", kind
    s = sample_cartan(family or _FAMILIES[index % 5], rng)
    return TangentPlane(s.x, s.y), s.family, "uniform"


# ---------------------------------------------------------------------------
# jet vanishing on commuting planes (all deformations)
# ---------------------------------------------------------------------------


class Lemma0Report(NamedTuple):
    samples: int
    deformations: int
    max_abs_c0: float
    max_abs_c1: float
    min_c2: float
    max_closed_form_gap: float
    elapsed_seconds: float
    passed: bool


def run_lemma0_suite(seed: int, samples: int = 10000, *,
                     deformations: int = 100,
                     tol: float = 1e-10) -> Lemma0Report:
    """Jet structure of the numerator on commuting planes.

    For every sampled commuting plane and a rotating pool of arbitrary
    deformation triples: the constant and linear jet coefficients must
    vanish, the quadratic coefficient must be nonnegative and must
    match its closed form, half the squared norm of [X, LY] - [Y, LX].
    """
    if samples < 1 or deformations < 1:
        raise ValueError("samples and deformations must be positive")
    start = time.perf_counter()
    lam9 = np.array([random_deformation(np.random.default_rng([seed, 2, j])).matrix9
                     for j in range(deformations)])
    x, y = np.empty((2, samples, 10))
    for i in range(samples):
        plane, _, _ = sample_commuting_plane(seed, i)
        plane = plane.orthonormalized()
        x[i], y[i] = plane.x.data, plane.y.data
    which = np.arange(samples) % deformations
    closed = np.empty(samples)
    for lo in range(0, samples, _JET_CHUNK):
        rows = slice(lo, lo + _JET_CHUNK)
        closed[rows] = _closed_form_rows(lam9[which[rows]], x[rows], y[rows])
    jet = _numerator_jet_rows(lam9, which, x, y)
    # np.max/np.min propagate NaN, so a NaN jet or closed form fails.
    max_c0, max_c1 = np.max(np.abs(jet[:2]), axis=1).tolist()
    min_c2 = float(np.min(jet[2]))
    max_gap = float(np.max(np.abs(2.0 * jet[2] - closed)))
    elapsed = time.perf_counter() - start
    passed = (max_c0 <= tol and max_c1 <= tol and min_c2 >= -tol
              and max_gap <= tol)
    return Lemma0Report(samples, deformations, max_c0, max_c1,
                        min_c2, max_gap, elapsed, passed)


# ---------------------------------------------------------------------------
# the dichotomy
# ---------------------------------------------------------------------------


class Lemma1Verdict(NamedTuple):
    """Classification record for one sampled commuting plane.

    ``x`` and ``y`` are the plane orthonormalized once; the jet and the
    distance are taken on them orthonormalized again, as classify_plane does.
    """

    plane_id: int
    family: str
    kind: str
    special_orbit: bool
    orbit_distance: float
    c2: float
    c3: float
    classification: str
    x: tuple
    y: tuple


class Lemma1Report(NamedTuple):
    samples: int
    verdicts: list
    family_counts: dict
    classification_counts: dict
    kind_counts: dict
    violations: list
    min_generic_c2: float
    max_special_abs_c2: float
    max_special_c3_defect: float
    # How close a plane came to SPECIAL_ORBIT_TOL from either side, over
    # the GENERIC_POSITIVE verdicts and over the verdicts on the orbit, as
    # chordal distances (special_orbit_distance); NaN when that set is empty.
    min_generic_orbit_distance: float
    max_special_orbit_distance: float
    elapsed_seconds: float
    passed: bool


def _dichotomy_codes(distance, c2, c3, c2_tol: float, orbit_tol: float):
    """Indices into _LABELS of the dichotomy labels, elementwise.

    Each branch asks for its own side of the orbit threshold, so a NaN
    distance or coefficient falls through to VIOLATION.
    """
    generic = (distance > orbit_tol) & (c2 > c2_tol)
    degenerate = ((distance <= orbit_tol) & (abs(c2) <= c2_tol)
                  & (abs(c3) > c2_tol))
    return generic + 2 * degenerate


def classify_plane(plane: TangentPlane, *,
                   deformation: MetricDeformation | None = None,
                   c2_tol: float = C2_TOL,
                   orbit_tol: float = SPECIAL_ORBIT_TOL):
    """Dichotomy test for one commuting plane.

    Returns ``(classification, special, distance, c2, c3)`` computed on
    the orthonormalized plane with the reference deformation (or the
    one supplied).  Generic planes must show c2 > 0; planes on the
    distinguished orbit must instead have vanishing c2 and a cubic
    coefficient of magnitude one.  Anything else is a violation.
    """
    if not is_commuting_pair(plane.x, plane.y):
        raise ValueError("classify_plane requires a commuting plane")
    if deformation is None:
        deformation = reference_deformation()
    ortho = plane.orthonormalized()
    distance, _ = special_orbit_distance(ortho.x, ortho.y)
    jet = numerator_jet(deformation, ortho)
    c2, c3 = float(jet[2]), float(jet[3])
    label = _LABELS[_dichotomy_codes(distance, c2, c3, c2_tol, orbit_tol)]
    return label, distance <= orbit_tol, distance, c2, c3


def verify_lemma1(seed: int, n_samples: int = 10000, *,
                  deformation: MetricDeformation | None = None,
                  family: str | None = None,
                  adversarial_only: bool = False,
                  c2_tol: float = C2_TOL) -> Lemma1Report:
    """Run the dichotomy over a mixed sample of commuting planes.

    Every plane must come out GENERIC_POSITIVE or DEGENERATE_CUBIC;
    each DEGENERATE_CUBIC verdict must carry a cubic coefficient of
    magnitude one within C3_UNIT_TOL.  Violations are collected with
    full reproduction data.

    Planes are drawn, checked and orthonormalized one by one, as
    classify_plane takes them; their jets and orbit distances are then
    taken as (n, 10) rows and labelled by classify_plane's rule.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    start = time.perf_counter()
    if deformation is None:
        deformation = reference_deformation()
    # spans[i, 0] is the plane a verdict records, spans[i, 1] the one measured.
    spans = np.empty((n_samples, 2, 2, 10))
    families, kinds = [], []
    for i in range(n_samples):
        plane, fam, kind = sample_commuting_plane(
            seed, i, family=family, adversarial_only=adversarial_only)
        plane = plane.orthonormalized()
        if not is_commuting_pair(plane.x, plane.y):
            raise ValueError("classify_plane requires a commuting plane")
        spans[i, 0] = plane.x.data, plane.y.data
        plane = plane.orthonormalized()
        spans[i, 1] = plane.x.data, plane.y.data
        families.append(fam)
        kinds.append(kind)
    x, y = spans[:, 1, 0], spans[:, 1, 1]
    _, _, c2, c3, _ = _numerator_jet_rows(
        deformation.matrix9[None], np.zeros(n_samples, dtype=int), x, y)
    distance, _ = _orbit_distance_rows(x, y)
    codes = _dichotomy_codes(distance, c2, c3, c2_tol, SPECIAL_ORBIT_TOL)
    special = distance <= SPECIAL_ORBIT_TOL

    verdicts = [Lemma1Verdict(i, *fields) for i, fields in enumerate(zip(
        families, kinds, special.tolist(), distance.tolist(), c2.tolist(),
        c3.tolist(), [_LABELS[k] for k in codes.tolist()],
        map(tuple, spans[:, 0, 0].tolist()), map(tuple, spans[:, 0, 1].tolist())))]
    violations = [v for v in verdicts if v.classification == _VIOLATION]
    generic, degenerate = codes == 1, codes == 2
    # np.min/np.max propagate NaN; initial gives the empty-set value.
    min_generic_c2 = float(np.min(c2[generic], initial=np.inf))
    max_special_c2 = float(np.max(np.abs(c2[degenerate]), initial=0.0))
    max_c3_defect = float(np.max(np.abs(np.abs(c3[degenerate]) - 1.0),
                                 initial=0.0))
    elapsed = time.perf_counter() - start
    passed = (not violations and max_c3_defect <= C3_UNIT_TOL
              and max_special_c2 <= c2_tol)
    return Lemma1Report(
        samples=n_samples, verdicts=verdicts,
        family_counts=dict(Counter(families)),
        classification_counts=dict(Counter(v.classification for v in verdicts)),
        kind_counts=dict(Counter(kinds)),
        violations=violations,
        min_generic_c2=min_generic_c2,
        max_special_abs_c2=max_special_c2,
        max_special_c3_defect=max_c3_defect,
        min_generic_orbit_distance=(float(np.min(distance[generic]))
                                    if generic.any() else np.nan),
        max_special_orbit_distance=(float(np.max(distance[special]))
                                    if special.any() else np.nan),
        elapsed_seconds=elapsed, passed=passed)


# ---------------------------------------------------------------------------
# positivity at small deformation times
# ---------------------------------------------------------------------------


class Theorem1Scan(NamedTuple):
    """One scan; ``x`` and ``y`` span the orthonormalized argmin plane."""

    t: float
    min_k: float
    argmin_plane: int
    min_k_over_t2: float
    min_k_over_t3: float
    positive: bool
    x: tuple
    y: tuple


class Theorem1Report(NamedTuple):
    samples: int
    sigma: int
    cubic_coefficient: float
    scans: list
    opposite_sign_t: float
    opposite_sign_k: float
    frontier_t: float
    frontier: list
    elapsed_seconds: float
    passed: bool


def measure_sigma(deformation: MetricDeformation | None = None):
    """Deformation sign that makes the distinguished cubic positive.

    The numerator jet on the distinguished plane is pure cubic with
    coefficient of magnitude one; sigma is the sign that turns it
    positive for small t of that sign.
    """
    if deformation is None:
        deformation = reference_deformation()
    jet = numerator_jet(deformation, special_plane())
    c2, c3 = float(jet[2]), float(jet[3])
    if abs(c2) > C2_TOL or abs(abs(c3) - 1.0) > C3_UNIT_TOL:
        raise ArithmeticError(
            f"distinguished plane jet is not pure unit cubic: c2={c2!r}, "
            f"c3={c3!r}")
    return (1 if c3 > 0 else -1), c3


_FRONTIER_GRID = tuple(0.5 * 0.8 ** k for k in range(14))


def verify_theorem1(seed: int, n_samples: int = 10000,
                    t_values=(0.001, 0.01), *,
                    deformation: MetricDeformation | None = None,
                    pos_tol: float = 0.0) -> Theorem1Report:
    """Scan sectional curvature over commuting planes at small times.

    For each requested magnitude |t| the scan runs at t = sigma * |t|
    and requires the minimum curvature to be positive (t = 0 is allowed
    and must give a zero minimum instead).  The report includes the
    scaled margins min k/t^2 and min k/t^3, a negative-curvature
    witness at the opposite sign, and the empirical positivity frontier
    on a geometric grid of larger times.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if deformation is None:
        deformation = reference_deformation()
    start = time.perf_counter()
    sigma, c3 = measure_sigma(deformation)
    # The requested and the frontier grid's metrics, stacked, before any
    # sampling: a requested t that is not positive definite raises.
    requested = [sigma * abs(float(t)) for t in t_values]
    grid = [sigma * mag for mag in sorted(_FRONTIER_GRID)]
    op_a, op_b6, min_eig = _metric_ops(deformation.A, deformation.block6,
                                       np.array(requested + grid)[:, None, None])
    for t, eig in zip(requested, min_eig):
        _require_positive(t, eig)
    scanned = np.flatnonzero(~(min_eig <= _EIG_FLOOR))
    inv_a, inv_b6 = np.linalg.inv(op_a[scanned]), np.linalg.inv(op_b6[scanned])
    rings = [_RowsRing(op_a[j][None], op_b6[j][None], inv_a[i][None], inv_b6[i][None])
             for i, j in enumerate(scanned.tolist())]

    planes = [sample_commuting_plane(seed, i)[0] for i in range(n_samples)]
    x, y = _orthonormal_rows(np.array([p.x.data for p in planes]),
                             np.array([p.y.data for p in planes]))

    # One scan under all metrics.  np.argmin returns the first NaN if there
    # is one, so a NaN curvature makes a scan's minimum NaN and fails it.
    k = _sectional_curvature_rows(rings, x, y)
    argmins = np.argmin(k, axis=1).tolist()
    mins = iter(zip(k[range(len(k)), argmins].tolist(), argmins))

    scans = []
    ok = True
    for t, (min_k, argmin) in zip(requested, mins):
        if t == 0.0:
            positive = abs(min_k) <= 1e-12
            over_t2 = over_t3 = 0.0
        else:
            positive = min_k > pos_tol
            over_t2 = min_k / t ** 2
            over_t3 = min_k / abs(t) ** 3
        ok = ok and positive
        scans.append(Theorem1Scan(t, min_k, argmin, over_t2, over_t3,
                                  positive, tuple(x[argmin].tolist()),
                                  tuple(y[argmin].tolist())))

    # Flipping the deformation sign must produce visible negative
    # curvature on the distinguished plane itself.
    t_opp = -sigma * max(abs(float(t)) for t in t_values) if t_values else -sigma * 0.01
    if t_opp == 0.0:
        t_opp = -sigma * 0.01
    k_opp = sectional_curvature(DeformedMetric(deformation, t_opp),
                                special_plane()).k_value
    ok = ok and k_opp < 0.0

    # Empirical frontier: largest grid time at which the whole sample
    # stays positive.  No supremum claim, just the measured extent.
    frontier = []
    frontier_t = 0.0
    for t, eig in zip(grid, min_eig[len(requested):].tolist()):
        min_k = float("nan") if eig <= _EIG_FLOOR else next(mins)[0]
        frontier.append((t, min_k, min_k > 0.0))
        if min_k > 0.0:
            frontier_t = t
    elapsed = time.perf_counter() - start
    return Theorem1Report(
        samples=n_samples, sigma=sigma, cubic_coefficient=c3, scans=scans,
        opposite_sign_t=t_opp, opposite_sign_k=float(k_opp),
        frontier_t=frontier_t, frontier=frontier,
        elapsed_seconds=elapsed, passed=ok)


# ---------------------------------------------------------------------------
# nonpositively curved planes for every homogeneous metric
# ---------------------------------------------------------------------------


class WilkingCertificate(NamedTuple):
    """A zero-curvature-numerator certificate for one metric.

    ``x`` is an eigenvector of the metric for its smallest eigenvalue,
    ``z`` commutes with x, and ``y`` is the metric inverse applied to
    z.  The numerator on span(x, y) is then forced nonpositive by the
    eigenvalue bounds, so the plane witnesses k <= 0.
    """

    x: tuple
    z: tuple
    y: tuple
    k_value: float
    numerator_value: float
    smallest_eigenvalue: float
    case_tag: str


_WILKING_CASES = ("u_eigenvector", "vw_aligned", "vw_generic")


def _signed_rows(v: np.ndarray) -> np.ndarray:
    """Each row scaled to unit length, with its largest entry positive."""
    v = v / np.sqrt(_rows_dot(v, v))[:, None]
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], 1)
    return np.where(pivot > 0, v, -v)


def _wilking_rows(op_a: np.ndarray, op_b6: np.ndarray, ring: _RowsRing):
    """The certified nonpositive plane of every metric in a stack.

    op_a and op_b6 are the (n, 3, 3) and (n, 6, 6) metric blocks, and
    ring holds the same metrics.  Returns x, z and y as (n, 10) rows, and
    k, the numerator, the smallest eigenvalue and the _WILKING_CASES index
    as (n,) arrays; each row gets the bits it gets alone.  The smallest
    eigenvalue lives either on the u-block or on the paired (v, w)-block.
    In the first case the eigenvector u* is copied into the v slot to
    produce a commuting partner; in the second, a rotation in the (v, w)
    pair either aligns the eigenvector with a single direction (dependent
    case) or empties its v.w overlap so a pure-v companion commutes.
    """
    eig_a, vec_a = np.linalg.eigh(op_a)
    eig_b, vec_b = np.linalg.eigh(op_b6)
    on_u = eig_a[:, 0] <= eig_b[:, 0]
    on_vw = ~on_u
    x = np.zeros((len(on_u), 10))
    z = np.zeros_like(x)
    x[on_u, 1:4] = z[on_u, 4:7] = _signed_rows(vec_a[on_u, :, 0])
    x[on_vw, 4:10] = _signed_rows(vec_b[on_vw, :, 0])
    svals = np.linalg.svd(x[on_vw, 4:10].reshape(-1, 2, 3), compute_uv=False)
    aligned = np.zeros_like(on_u)
    aligned[on_vw] = svals[:, 1] <= 1e-8 * svals[:, 0]
    vt = np.linalg.svd(x[aligned, 4:10].reshape(-1, 2, 3))[2]
    z[aligned, 1:4] = _signed_rows(vt[:, 0])
    # Rotating (v, w) by ad_h(s) empties the v.w overlap; the unit v part
    # of the rotated x, rotated back by ad_h(-s), commutes with x.
    generic = on_vw & ~aligned
    v, w = x[generic, 4:7], x[generic, 7:10]
    angle = 0.25 * np.arctan2(2.0 * _rows_dot(v, w),
                              _rows_dot(v, v) - _rows_dot(w, w))
    cos, sin = np.cos(2.0 * angle)[:, None], np.sin(2.0 * angle)[:, None]
    r = cos * v + sin * w
    r = r / np.sqrt(_rows_dot(r, r))[:, None]
    z[generic, 4:7], z[generic, 7:10] = cos * r, sin * r
    y = ring.solve(z)
    c, s = _curvature_rows(ring, x, y)
    return (x, z, y, c / s, c, np.minimum(eig_a[:, 0], eig_b[:, 0]),
            np.where(on_u, 0, np.where(aligned, 1, 2)))


def _wilking_recheck(ring: _RowsRing, x, z, y, lam, c, k, tol: float):
    """Every step of the nonpositivity estimate, as (n, 10) residuals and bounds.

    A certificate passes where no residual exceeds its bound; a NaN
    fails.  The steps: [x, z] = 0; M y = z; x is an eigenvector for lam;
    w = [x, y] stays inside m; [x, My] + [y, Mx] = -lam w; the numerator
    c collapses to three terms in w; the eigenvalue bounds squeeze those
    terms below zero; and k <= 1e-10.
    """
    def norm(a):
        return np.sqrt(_rows_dot(a, a))

    mx, my, w = ring.apply(x), ring.apply(y), _bracket_rows(x, y)
    w_w, w_mw = _rows_dot(w, w), _rows_dot(w, ring.apply(w))
    w_minv_w = _rows_dot(w, ring.solve(w))
    three_term = -0.75 * w_mw + 0.5 * lam * w_w + 0.25 * lam ** 2 * w_minv_w
    resid = _bracket_rows(x, my) + _bracket_rows(y, mx) + lam[:, None] * w
    scale = tol * np.maximum(w_w, 1.0)
    steps = [
        (norm(_bracket_rows(x, z)), 1e-10),
        (norm(my - z), tol * np.maximum(norm(z), 1.0)),
        (norm(mx - lam[:, None] * x), tol * norm(x)),
        (np.abs(w[:, 0]), tol * np.maximum(norm(w), 1.0)),
        (np.max(np.abs(resid), axis=1), tol * np.maximum(norm(w) * np.abs(lam), 1.0)),
        (np.abs(c - three_term), scale),
        (lam * w_w - w_mw, scale),
        (w_minv_w - w_w / lam, scale),
        (three_term, scale),
        (k, 1e-10),
    ]
    return tuple(np.column_stack(np.broadcast_arrays(*side)) for side in zip(*steps))


def _certificates(rows: tuple) -> list:
    """The WilkingCertificate of every row, each array read as lists once."""
    return [WilkingCertificate(tuple(x), tuple(z), tuple(y), k, c, lam, _WILKING_CASES[case])
            for x, z, y, k, c, lam, case in zip(*(r.tolist() for r in rows))]


def wilking_pair(metric: DeformedMetric) -> WilkingCertificate:
    """Construct the certified nonpositive plane for one metric.

    It is the metric's row of verify_wilking, to the bit.
    """
    return _certificates(_wilking_rows(metric.operator_a()[None],
                                       metric.operator_block6()[None],
                                       _metric_ring(metric)))[0]


def verify_wilking_inequalities(metric: DeformedMetric,
                                cert: WilkingCertificate, *,
                                tol: float = 1e-9) -> bool:
    """Recheck every step of the nonpositivity estimate numerically.

    The chain: w = [x, y] stays inside m; the metric satisfies
    [x, My] + [y, Mx] = -lam [x, y]; the numerator collapses to three
    terms in w; the eigenvalue bounds squeeze those terms below zero.
    It is verify_wilking's recheck on a stack of one.
    """
    ring = _metric_ring(metric)
    x, z, y = (np.array([v], dtype=float) for v in (cert.x, cert.z, cert.y))
    residuals, bounds = _wilking_recheck(
        ring, x, z, y, np.array([cert.smallest_eigenvalue]),
        _six_terms(ring, x, y), np.array([cert.k_value]), tol)
    return bool(np.all(residuals <= bounds))


class WilkingReport(NamedTuple):
    """``recheck_headroom`` is the largest ratio of a recheck residual to
    its bound over the passing certificates (NaN if none passes)."""

    metrics: int
    max_k_value: float
    max_commutator_residual: float
    recheck_headroom: float
    case_counts: dict
    certificates: list
    failures: list
    elapsed_seconds: float
    passed: bool


def _wilking_verdicts(triples: list, tol: float):
    """The rows of the triples read as metrics, the recheck's residuals
    and bounds at 1e-9, and the (n,) pass mask."""
    op_a, op_b6, inv_a, inv_b6 = _metric_blocks(
        np.array([t.A for t in triples]) - np.eye(3),
        np.array([t.block6 for t in triples]) - np.eye(6), 1.0)
    ring = _RowsRing(op_a, op_b6, inv_a, inv_b6)
    rows = _wilking_rows(op_a, op_b6, ring)
    x, z, y, k, c, lam, _ = rows
    residuals, bounds = _wilking_recheck(ring, x, z, y, lam, c, k, 1e-9)
    ok = (k <= tol) & (residuals[:, 0] <= tol) & np.all(residuals <= bounds, axis=1)
    return rows, residuals, bounds, ok


def verify_wilking(seed: int, n_metrics: int = 1000, *,
                   tol: float = 1e-10) -> WilkingReport:
    """Certify a nonpositive plane for a population of random metrics.

    Metrics are rejection-sampled with off-diagonal blocks comparable
    in size to the diagonal ones, so the antisymmetric coupling is
    genuinely exercised.  Every certificate must recheck at 1e-9.  The
    metrics are certified and rechecked as one stack.
    """
    if n_metrics < 1:
        raise ValueError("n_metrics must be positive")
    start = time.perf_counter()
    triples = [random_admissible_metric(np.random.default_rng([seed, 3, i]))
               for i in range(n_metrics)]
    rows, residuals, bounds, ok = _wilking_verdicts(triples, tol)
    certificates = _certificates(rows)
    elapsed = time.perf_counter() - start
    # np.max keeps a NaN, which the builtin max drops.
    return WilkingReport(
        metrics=n_metrics, max_k_value=float(np.max(rows[3])),
        max_commutator_residual=float(np.max(residuals[:, 0])),
        recheck_headroom=float(np.max(residuals[ok] / bounds[ok]))
        if ok.any() else float("nan"),
        case_counts=dict(Counter(c.case_tag for c in certificates)),
        certificates=certificates,
        failures=[(i, certificates[i]) for i in np.flatnonzero(~ok).tolist()],
        elapsed_seconds=elapsed, passed=bool(ok.all()))


# ---------------------------------------------------------------------------
# flat baseline
# ---------------------------------------------------------------------------


class BaselineReport(NamedTuple):
    samples: int
    min_k: float
    max_commuting_k: float
    elapsed_seconds: float
    passed: bool


def run_baseline_suite(seed: int, samples: int = 10000, *,
                       tol: float = 1e-12) -> BaselineReport:
    """Undeformed metric sanity: K >= 0 always, K = 0 on commuting planes.

    Draws a mixed population of random planes and commuting planes at
    t = 0 and checks the classical curvature signs of the normal
    homogeneous metric.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    start = time.perf_counter()
    metric = DeformedMetric(reference_deformation(), 0.0)
    x = np.zeros((samples, 10))
    y = np.zeros((samples, 10))
    for i in range(samples):
        if i % 2 == 0:
            rng = np.random.default_rng([seed, 4, i])
            x[i, 1:] = rng.normal(size=9)
            y[i, 1:] = rng.normal(size=9)
        else:
            plane, _, _ = sample_commuting_plane(seed, i)
            x[i], y[i] = plane.x.data, plane.y.data
    k = _sectional_curvature_rows([_metric_ring(metric)], *_orthonormal_rows(x, y))[0]
    # np.min and np.max keep a NaN, which the builtin min and max drop.
    min_k = float(np.min(k))
    max_comm = float(np.max(np.abs(k[1::2]), initial=0.0))
    elapsed = time.perf_counter() - start
    passed = min_k >= -tol and max_comm <= tol
    return BaselineReport(samples, min_k, max_comm, elapsed, passed)
