import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sp2curv import MetricDeformation, SpElement, reference_deformation, special_plane
from sp2curv.algebra import _bracket_arr


def element(lam=0.0, u=(0, 0, 0), v=(0, 0, 0), w=(0, 0, 0)) -> SpElement:
    data = np.zeros(10)
    data[0] = lam
    data[1:4] = u
    data[4:7] = v
    data[7:10] = w
    return SpElement.from_array(data)


def bits(a) -> np.ndarray:
    """The uint64 bits of float64 values, for bit-for-bit comparisons."""
    return np.asarray(a).view(np.uint64)


def matrix9_stack(pool) -> np.ndarray:
    """The (m, 9, 9) stack of the deformations' L, as the jet rows take it."""
    return np.array([d.matrix9 for d in pool])


def near_orbit_plane(rng, delta):
    """The t0 rows plus delta * noise, projected onto [x, y] = 0.

    Each Gauss-Newton step is the min-norm least-squares step on the
    10x18 Jacobian of the bracket in the m coordinates of x and y, then
    the pair is orthonormalized again (which keeps [x, y] = 0).
    """
    def ad(a):
        return np.array([_bracket_arr(a, e) for e in np.eye(10)]).T

    x, y = np.eye(10)[[4, 8]] + delta * rng.normal(size=(2, 10))  # v = e1, w = e2
    x[0] = y[0] = 0.0
    for _ in range(10):
        jac = np.hstack([-ad(y)[:, 1:], ad(x)[:, 1:]])
        step = np.linalg.lstsq(jac, -_bracket_arr(x, y), rcond=None)[0]
        x[1:] += step[:9]
        y[1:] += step[9:]
        x /= np.linalg.norm(x)
        y -= (y @ x) * x
        y /= np.linalg.norm(y)
    return x, y


# Bounded coordinate strategy; keeps products and brackets well inside
# float64 range so tolerance checks stay meaningful.
coords = arrays(np.float64, (10,),
                elements=st.floats(min_value=-4.0, max_value=4.0,
                                   allow_nan=False))

coords_m = arrays(np.float64, (9,),
                  elements=st.floats(min_value=-4.0, max_value=4.0,
                                     allow_nan=False))


@pytest.fixture
def ref():
    return reference_deformation()


@pytest.fixture
def t0():
    return special_plane()


@pytest.fixture
def generic_triple():
    a = np.array([[0.7, 0.2, -0.1],
                  [0.2, -0.3, 0.4],
                  [-0.1, 0.4, 1.1]])
    b = np.array([[0.0, 0.5, -0.2],
                  [-0.5, 0.0, 0.3],
                  [0.2, -0.3, 0.0]])
    c = np.array([[-0.4, 0.1, 0.6],
                  [0.1, 0.9, -0.2],
                  [0.6, -0.2, 0.2]])
    return MetricDeformation(a, b, c)
