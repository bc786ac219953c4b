"""The samplers' re-draw branches against the numpy form, on scripted draws.

Random draws almost never reach these branches: a normal 3-vector of
norm at most 1e-3 (before or after its projection off ``to``), a
``_random_gl2`` matrix with |det| outside [0.2, 5], an on-orbit ``g``
with |det| at most 0.2, and a centralizer direction too close to e1.
A scripted generator hands those out first and then draws as a seeded
generator does, so the float path and the numpy form in
``test_sampler_bits`` must give the same bits after the same draws.
"""

import numpy as np
import pytest

from sp2curv import experiments
from sp2curv.cartan import sample_cartan

from test_sampler_bits import (
    FAMILIES,
    _ref_centralizer,
    _ref_on_orbit,
    _ref_sample_cartan,
    _same_bits,
    _same_state,
)


class Scripted(np.random.Generator):
    """A seeded generator whose first normal and uniform draws are scripted.

    ``uniform(low, high, size)`` takes the next scripted unit draw r as
    low + (high - low) r, which is how numpy maps its own.  Every call
    is logged by name, uniform's as ``random``, since the two draw alike.
    """

    def __init__(self, seed, normals=(), randoms=()):
        super().__init__(np.random.PCG64(seed))
        self.normals = [np.array(v, dtype=float) for v in normals]
        self.randoms = [np.array(v, dtype=float) for v in randoms]
        self.calls = []

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.calls.append(("normal", size))
        if self.normals:
            value = self.normals.pop(0)
            assert value.shape == np.empty(() if size is None else size).shape
            return value.copy()
        return super().normal(loc, scale, size)

    def random(self, size=None):
        self.calls.append(("random", size))
        if self.randoms:
            value = self.randoms.pop(0)
            assert value.shape == np.empty(() if size is None else size).shape
            return value.copy() if size is not None else float(value)
        return super().random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)

    def integers(self, *args, **kwargs):
        # rng.choice([-1.0, 1.0]) of the numpy form draws through here too.
        self.calls.append(("integers", None))
        return super().integers(*args, **kwargs)


def _twins(seed, **script):
    return Scripted(seed, **script), Scripted(seed, **script)


def _same_draws(rng, ref_rng):
    assert not rng.normals and not rng.randoms  # the script was used up
    assert rng.calls == ref_rng.calls
    _same_state(rng, ref_rng)


TINY = [4e-4, -7e-4, 2e-4]  # norm about 8.3e-4
U_RAW = [0.0, 3.0, 4.0]  # the unit vector u = (0, 0.6, 0.8)
ALONG_U = [3e-4, 1.2 + 2e-4, 1.6 - 5e-4]  # 2u plus a tiny offset
ACROSS_U = [1.0, 0.0, 0.0]
FLAT = [[1.0, 0.5], [1.0, 0.6]]  # det 0.1
STEEP = [[3.0, 0.0], [0.0, 2.0]]  # det 6


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(5))
def test_sample_cartan_redraws_as_the_numpy_form(seed, family):
    # F2's zero-w coin is scripted off, so that it draws an orthogonal w.
    script = {"normals": [TINY, U_RAW, ALONG_U, TINY, ACROSS_U, FLAT, STEEP]}
    if family == "F2":
        script["randoms"] = [0.5]
    rng, ref_rng = _twins(seed, **script)
    got = sample_cartan(family, rng)
    x, y, params, angle, gl2 = _ref_sample_cartan(family, ref_rng)
    _same_draws(rng, ref_rng)
    _same_bits([got.x.data, got.y.data], [x, y])
    for key, value in params.items():
        _same_bits(got.parameters[key], value)
    _same_bits([got.angle], [angle])
    _same_bits(got.gl2, gl2)
    first = "v" if family == "F1" else "u"
    _same_bits(got.parameters[first], [0.0, 0.6, 0.8])
    # Three tiny vectors and two gl2 matrices were drawn and refused.
    assert rng.calls.count(("normal", 3)) == 5
    assert rng.calls.count(("normal", (2, 2))) >= 3


@pytest.mark.parametrize("seed", range(5))
def test_on_orbit_redraws_a_flat_g_as_the_numpy_form(seed):
    # g = -1 + 2r: the zero matrix, then one of determinant 0.
    flat = [[0.5, 0.5], [0.5, 0.5]]
    singular = [[0.55, 0.45], [0.45, 0.55]]
    rng, ref_rng = _twins(seed, randoms=[0.3, flat, singular])
    x, y = experiments._adversarial_on_orbit(rng)
    want = _ref_on_orbit(ref_rng)
    _same_draws(rng, ref_rng)
    _same_bits([x.data, y.data], want)
    assert rng.calls.count(("random", (2, 2))) >= 3


@pytest.mark.parametrize("seed", range(5))
def test_centralizer_redraws_a_direction_near_e1_as_the_numpy_form(seed):
    rng, ref_rng = _twins(seed, normals=[[5.0, 0.1, -0.2], [-3.0, 0.0, 0.1]])
    x, y = experiments._adversarial_centralizer(rng)
    want = _ref_centralizer(ref_rng)
    _same_draws(rng, ref_rng)
    _same_bits([x.data, y.data], want)
    assert rng.calls.count(("normal", 3)) >= 3
