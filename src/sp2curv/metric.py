"""The circle-invariant metric family on the tangent model m.

A metric operator on m = R^3_u + R^3_v + R^3_w is determined by a triple
(A, B, C) with A, C symmetric and B antisymmetric, acting as

    (0, u, v, w)  ->  (0, A u, C v - B w, B v + C w).

Equivariance under the double-speed circle action forces exactly this block
shape, and self-adjointness with respect to the bi-invariant product holds
for every such triple.  The same data shape serves two roles:

* a deformation L (no positivity required; the reference deformation's A has
  eigenvalue -1), giving the metric family M_t = I + t L, and
* a general admissible metric M itself (A and the 6x6 block (C -B; B C)
  positive definite), used through `as_metric`, i.e. t = 1 with L = M - I.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .algebra import SpElement

__all__ = [
    "MetricDeformation",
    "DeformedMetric",
    "reference_deformation",
    "random_admissible_metric",
    "random_deformation",
    "as_generator",
]

_EIG_FLOOR = 1e-9  # smallest eigenvalue a positive definite block may have
_SHAPE_TOL = 1e-10
# matrix9 as flat indices into the rows of the stack (A; C; B; -B; 0).
_A, _C, _B, _NEG_B = np.arange(36).reshape(4, 3, 3)
_Z = np.full((3, 3), 36)
_M9_GATHER = np.block([[_A, _Z, _Z], [_Z, _C, _NEG_B], [_Z, _B, _C]])
# Flat indices of the blocks A, C and B of matrix9, then of their mirror
# images across its diagonal, which hold A.T, C.T and -B.T.
_BLOCKS = np.add.outer([0, 30, 57], [0, 1, 2, 9, 10, 11, 18, 19, 20])
_CHECKS = np.stack((_BLOCKS, _BLOCKS % 9 * 9 + _BLOCKS // 9))
_ZERO_ROW = np.zeros((1, 3))


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a seed sequence list, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _uniform(rng: np.random.Generator, low, high, size=None):
    """rng.uniform(low, high, size): the same draws, bits and state, as
    numpy computes them (low + (high - low) u), at rng.random's cost."""
    return low + (high - low) * rng.random(size)


class MetricDeformation:
    """Block triple (A, B, C): A, C symmetric, B antisymmetric."""

    __slots__ = ("A", "B", "C", "matrix9", "_has_nan")

    def __init__(self, A, B, C):
        A, B, C = (np.array(m, dtype=float) for m in (A, B, C))
        for name, m in (("A", A), ("B", B), ("C", C)):
            if m.shape != (3, 3):
                raise ValueError(f"{name} must be 3x3, got {m.shape}")
        m9 = np.concatenate((A, C, B, -B, _ZERO_ROW)).ravel()[_M9_GATHER]
        # The largest |entry| of A, C, B and of A - A.T, C - C.T, B + B.T
        # (a NaN if any), read off the blocks of m9 and their mirrors.
        vals = m9.ravel()[_CHECKS]
        np.subtract(vals[0], vals[1], out=vals[1])
        size, gap = np.maximum.reduce(np.abs(vals, out=vals), axis=2).tolist()
        scale = 1.0 + max(size[0], size[2], size[1])
        for name, err, kind in zip("ACB", gap, ("", "", "anti")):
            if err > _SHAPE_TOL * scale:
                raise ValueError(f"{name} must be {kind}symmetric")
        for m in (A, B, C, m9):
            m.setflags(write=False)
        self.A = A
        self.B = B
        self.C = C
        self.matrix9 = m9
        self._has_nan = math.isnan(sum(size))

    @property
    def block6(self) -> np.ndarray:
        """The symmetric 6x6 block (C -B; B C) acting on (v, w)."""
        return self.matrix9[3:9, 3:9]

    def is_positive_definite(self, threshold: float = _EIG_FLOOR) -> bool:
        """Positivity of M: block-diagonal matrix9's smallest eigenvalue.
        eigvalsh reads one triangle only, so a NaN entry rules M out first."""
        return not self._has_nan and bool(np.linalg.eigvalsh(self.matrix9)[0] > threshold)

    def as_metric(self) -> "DeformedMetric":
        """Read the triple as the metric M itself: t = 1 with L = M - I."""
        eye = np.eye(3)
        return DeformedMetric(
            MetricDeformation(self.A - eye, self.B, self.C - eye), 1.0
        )

    def __repr__(self) -> str:
        return (
            f"MetricDeformation(A={self.A.tolist()!r}, "
            f"B={self.B.tolist()!r}, C={self.C.tolist()!r})"
        )


@functools.cache  # one shared object: its arrays are read-only
def reference_deformation() -> MetricDeformation:
    """The fixed deformation driving the commuting-plane positivity results."""
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    c = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return MetricDeformation(a, b, c)


class DeformedMetric:
    """The metric M_t = I + t L on m, with t allowed either sign.

    Positive definiteness (both blocks, smallest eigenvalue above 1e-9) is
    validated at construction; the block inverses are precomputed, so apply
    and inverse_apply are single matrix-vector products.
    """

    __slots__ = (
        "deformation",
        "t",
        "_op_a",
        "_op_block6",
        "_inv_a",
        "_inv_block6",
    )

    def __init__(self, deformation: MetricDeformation, t: float):
        self.deformation = deformation
        self.t = float(t)
        # eigvalsh reads one triangle only and fails to converge on a NaN,
        # so a NaN entry or a time that is not finite is ruled out first.
        if deformation._has_nan or not math.isfinite(self.t):
            _require_positive(self.t, math.nan)
        blocks = _metric_blocks(deformation.A, deformation.block6, self.t)
        self._op_a, self._op_block6, self._inv_a, self._inv_block6 = blocks
        for m in blocks:
            m.setflags(write=False)

    def operator_a(self) -> np.ndarray:
        """The 3x3 block I + tA acting on the u factor."""
        return self._op_a

    def operator_block6(self) -> np.ndarray:
        """The symmetric 6x6 block acting on the (v, w) factor."""
        return self._op_block6

    def apply(self, x: SpElement) -> SpElement:
        """M_t x for x in m."""
        return _block_act(self._op_a, self._op_block6, x)

    def inverse_apply(self, x: SpElement) -> SpElement:
        """Solve M_t y = x for y in m."""
        return _block_act(self._inv_a, self._inv_block6, x)

    def __repr__(self) -> str:
        return f"DeformedMetric(t={self.t!r}, deformation={self.deformation!r})"


def _block_act(a3: np.ndarray, b6: np.ndarray, x: SpElement) -> SpElement:
    """The operator that is the identity on h, a3 on u and b6 on (v, w),
    applied to x in m."""
    if not x.in_m(tol=1e-9):
        raise ValueError("the metric is only defined on m")
    out = np.empty(10)
    out[0] = x.data[0]
    out[1:4] = a3 @ x.data[1:4]
    out[4:10] = b6 @ x.data[4:10]
    return SpElement.from_array(out)


def _metric_ops(a: np.ndarray, block6: np.ndarray, t):
    """I + t a, I + t block6 and each smallest eigenvalue, for one metric or
    for stacks of blocks or of (n, 1, 1) times, each with its lone bits."""
    op_a = np.eye(3) + t * a
    op_b6 = np.eye(6) + t * block6
    return op_a, op_b6, np.minimum(np.linalg.eigvalsh(op_a)[..., 0],
                                   np.linalg.eigvalsh(op_b6)[..., 0])


def _require_positive(t, min_eig) -> None:
    """Raises ValueError unless every smallest eigenvalue is above 1e-9."""
    if not np.all(min_eig > _EIG_FLOOR):
        raise ValueError(
            f"I + tL is not positive definite at t={t!r} "
            f"(smallest eigenvalue {float(np.min(min_eig)):.3e})"
        )


def _metric_blocks(a: np.ndarray, block6: np.ndarray, t: float):
    """_metric_ops' blocks and their inverses, if all are positive definite."""
    op_a, op_b6, min_eig = _metric_ops(a, block6, t)
    _require_positive(t, min_eig)
    return op_a, op_b6, np.linalg.inv(op_a), np.linalg.inv(op_b6)


def random_deformation(seed) -> MetricDeformation:
    """Unconstrained random triple with entries uniform in [-1, 1].

    No positivity is imposed; this is the sampler for deformation sweeps.
    """
    return _random_triple(as_generator(seed), *_DEFORMATION_BOUNDS, 6)


def random_admissible_metric(seed, max_attempts: int = 1000) -> MetricDeformation:
    """Random metric operator triple, rejection-sampled to positivity.

    Diagonals of A and C are uniform in [0.3, 1.7], their off-diagonals in
    [-0.4, 0.4]; B entries are uniform in [-0.6, 0.6], the same scale as the
    C off-diagonals, so the antisymmetric coupling is routinely comparable
    to the symmetric one.  Rejects until both metric blocks pass the
    positivity validator.  Deterministic per seed.
    """
    rng = as_generator(seed)
    for _ in range(max_attempts):
        triple = _random_triple(rng, *_ADMISSIBLE_BOUNDS, 12)
        if triple.is_positive_definite():
            return triple
    raise RuntimeError("rejection sampling failed to find a positive metric")


# Bounds of the 15 uniform draws of one triple: the upper triangle and
# then the diagonal of A, the same of C, and B's upper triangle, which a
# deformation draws between A and C and a metric after C.
_DEFORMATION_BOUNDS = np.full((2, 15), [[-1.0], [1.0]])
_ADMISSIBLE_BOUNDS = np.repeat([[-0.4, 0.3, -0.4, 0.3, -0.6],
                                [0.4, 1.7, 0.4, 1.7, 0.6]], 3, axis=1)


def _random_triple(rng, low, high, b_at: int) -> MetricDeformation:
    """The triple of the 15 draws between low and high, B's three at b_at,
    with the bits of m + m.T and m - m.T of zero-filled upper triangles:
    x + 0.0 is x (no draw with low < 0 < high is -0.0); 0.0 - x is kept."""
    d = _uniform(rng, low, high, 15).tolist()
    b01, b02, b12 = d[b_at:b_at + 3]
    del d[b_at:b_at + 3]

    def symmetric(x01, x02, x12, d0, d1, d2):
        return [[d0, x01, x02], [x01, d1, x12], [x02, x12, d2]]

    return MetricDeformation(
        symmetric(*d[:6]),
        [[0.0, b01, b02], [0.0 - b01, 0.0, b12], [0.0 - b02, 0.0 - b12, 0.0]],
        symmetric(*d[6:]))
