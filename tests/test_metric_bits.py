"""The admissible-metric sampler against a copy of its earlier form.

``_ref_triple`` below is ``MetricDeformation``'s constructor as it was
written when it filled matrix9 block by block and read its symmetry gaps
through ``ndarray.max``, and ``_ref_is_positive_definite`` the check that
took one ``eigvalsh`` of A and one of block6.  The constructor now gathers
matrix9 and its gaps at once, and the check takes one ``eigvalsh`` of the
block-diagonal matrix9; every draw, bit and accept/reject decision stays.
"""

import numpy as np
import pytest
from conftest import bits

from sp2curv import MetricDeformation, random_admissible_metric, random_deformation
from sp2curv.metric import _ADMISSIBLE_BOUNDS

_BLOCKS = np.add.outer([0, 30, 57], [0, 1, 2, 9, 10, 11, 18, 19, 20])
_MIRRORS = _BLOCKS % 9 * 9 + _BLOCKS // 9


def _ref_triple(A, B, C):
    """(A, B, C, matrix9) as the earlier constructor built and checked them."""
    A, B, C = (np.array(m, dtype=float) for m in (A, B, C))
    for name, m in (("A", A), ("B", B), ("C", C)):
        if m.shape != (3, 3):
            raise ValueError(f"{name} must be 3x3, got {m.shape}")
    m9 = np.zeros((9, 9))
    m9[0:3, 0:3] = A
    m9[3:6, 3:6] = m9[6:9, 6:9] = C
    m9[3:6, 6:9] = -B
    m9[6:9, 3:6] = B
    blocks = m9.ravel()[_BLOCKS]
    size = np.abs(blocks).max(axis=1).tolist()
    gap = np.abs(blocks - m9.ravel()[_MIRRORS]).max(axis=1).tolist()
    scale = 1.0 + max(size[0], size[2], size[1])
    for name, err, kind in zip("ACB", gap, ("", "", "anti")):
        if err > 1e-10 * scale:
            raise ValueError(f"{name} must be {kind}symmetric")
    return A, B, C, m9


def _ref_is_positive_definite(A, m9, threshold=1e-9):
    if np.linalg.eigvalsh(A)[0] <= threshold:
        return False
    return np.linalg.eigvalsh(m9[3:9, 3:9])[0] > threshold


def _ref_admissible(rng):
    """(A, B, C) of the first draw that passes, as the earlier sampler drew."""
    low, high = _ADMISSIBLE_BOUNDS
    while True:
        d = (low + (high - low) * rng.random(15)).tolist()
        b01, b02, b12 = d[12:15]
        a, c = d[:6], d[6:12]
        A, B, C, m9 = _ref_triple(
            [[a[3], a[0], a[1]], [a[0], a[4], a[2]], [a[1], a[2], a[5]]],
            [[0.0, b01, b02], [0.0 - b01, 0.0, b12], [0.0 - b02, 0.0 - b12, 0.0]],
            [[c[3], c[0], c[1]], [c[0], c[4], c[2]], [c[1], c[2], c[5]]])
        if _ref_is_positive_definite(A, m9):
            return A, B, C


@pytest.mark.parametrize("seed", range(40))
def test_admissible_draws_keep_their_bits_and_attempts(seed):
    """1000 metrics a seed on verify_wilking's streams: the same A, B, C
    after the same number of attempts (the generators end in one state)."""
    got, want, ends = [], [], []
    for i in range(1000):
        rng, ref_rng = (np.random.default_rng([seed, 3, i]) for _ in range(2))
        tri = random_admissible_metric(rng)
        got.append((tri.A, tri.B, tri.C))
        want.append(_ref_admissible(ref_rng))
        ends.append(rng.bit_generator.state == ref_rng.bit_generator.state)
    assert all(ends)
    np.testing.assert_array_equal(bits(np.array(got)), bits(np.array(want)))


def test_matrix9_keeps_the_bits_of_the_block_fill():
    rng = np.random.default_rng(8)
    for _ in range(200):
        tri = random_deformation(rng)
        np.testing.assert_array_equal(
            bits(tri.matrix9), bits(_ref_triple(tri.A, tri.B, tri.C)[3]))


@pytest.fixture(scope="module")
def drawn_triples():
    """Random deformations (mostly indefinite) and admissible metrics."""
    return ([random_deformation(seed) for seed in range(3000)]
            + [random_admissible_metric(seed) for seed in range(200)])


@pytest.mark.parametrize("threshold", [1e-9, 0.0, -0.5, -1.0, -2.0])
def test_positivity_decisions_are_kept(drawn_triples, threshold):
    """The drawn triples, and diagonal triples whose smallest eigenvalue
    sits on the threshold."""
    triples = list(drawn_triples)
    for a, c in ((threshold, 1.0), (1.0, threshold), (threshold, threshold)):
        for eps in (0.0, 1e-17, -1e-17):
            triples.append(MetricDeformation(np.diag([a + eps, 1.0, 2.0]),
                                             np.zeros((3, 3)),
                                             np.diag([2.0, c + eps, 1.0])))
    decisions = [tri.is_positive_definite(threshold) for tri in triples]
    assert decisions == [_ref_is_positive_definite(tri.A, tri.matrix9, threshold)
                         for tri in triples]
    if threshold == -2.0:
        assert sum(decisions) > 100


_SYM = np.eye(3) + 0.1
_ANTI = np.array([[0.0, 0.3, -0.2], [-0.3, 0.0, 0.5], [0.2, -0.5, 0.0]])


@pytest.mark.parametrize("args, message", [
    ((np.eye(2), _ANTI, _SYM), "A must be 3x3, got (2, 2)"),
    ((_SYM, np.zeros(3), _SYM), "B must be 3x3, got (3,)"),
    ((_SYM, _ANTI, np.zeros((3, 4))), "C must be 3x3, got (3, 4)"),
    ((np.zeros((4, 4)), np.zeros(3), _SYM), "A must be 3x3, got (4, 4)"),
    ((_ANTI, _ANTI, _SYM), "A must be symmetric"),
    ((_SYM, _ANTI, _ANTI), "C must be symmetric"),
    ((_SYM, _SYM, _SYM), "B must be antisymmetric"),
    ((_ANTI, _SYM, _ANTI), "A must be symmetric"),
    ((_SYM, _SYM, _ANTI), "C must be symmetric"),
])
def test_shape_and_symmetry_errors_keep_their_messages(args, message):
    for build in (MetricDeformation, _ref_triple):
        with pytest.raises(ValueError) as exc:
            build(*args)
        assert str(exc.value) == message


def test_symmetry_is_judged_at_the_triple_scale():
    """A gap of 1e-10 times (1 + the largest entry of A, B or C) passes;
    twice it fails."""
    zero = np.zeros((3, 3))
    for scale, in_b, passes in ((1e6, False, True), (1e6, False, False),
                                (1.0, False, True), (1.0, False, False),
                                (10.0, True, True), (10.0, True, False)):
        a = np.eye(3) * (1.0 if in_b else scale)
        a[0, 1] += 1e-10 * (1.0 + scale) * (1.0 if passes else 2.0)
        b = _ANTI / 0.5 * scale if in_b else zero
        for build in (MetricDeformation, _ref_triple):
            if passes:
                build(a, b, zero)
            else:
                with pytest.raises(ValueError, match="A must be symmetric"):
                    build(a, b, zero)
