"""The screened orbit distance against the full 65-angle scan it replaces.

``_full_scan`` is the orbit distance as it was before the screen: every
candidate angle of every plane takes a residual SVD.  The screened
version must give the same distances and angles, bit for bit.
"""

import math

import numpy as np
import pytest

from sp2curv import cartan
from sp2curv.curvature import _rows_dot
from sp2curv.experiments import sample_commuting_plane

from conftest import bits

GRID = np.linspace(0.0, math.pi, 65)[:-1]


def _full_scan(x, y):
    """(distances, angles, rows, cos, sin, dists) with one SVD per candidate.

    rows are the orthonormalized (n, 2, 10) planes, cos and sin the
    (n, 65) cos 2s and sin 2s of the candidates and dists their (n, 65)
    geodesic distances.
    """
    norm_x = np.sqrt(_rows_dot(x, x))
    a = x / norm_x[:, None]
    b = y - _rows_dot(y, a)[:, None] * a
    norm_b = np.sqrt(_rows_dot(b, b))
    rows = np.stack([a, b / norm_b[:, None]], axis=1)
    v = rows[:, :, 4:7]
    w = rows[:, :, 7:10]
    pair = np.stack([v[..., 0], w[..., 1], w[..., 0], -v[..., 1]],
                    axis=1).reshape(-1, 2, 4)
    form = np.sum(pair[:, :, None] * pair[:, None], axis=-1)
    top = np.linalg.eigh(form)[1][:, :, 1]
    exact = np.array([0.5 * math.atan2(s, c) % math.pi for c, s in top.tolist()])

    n = len(x)
    candidates = np.append(np.broadcast_to(GRID, (n, 64)), exact[:, None],
                           axis=1)
    cos = np.cos(2.0 * candidates)
    sin = np.sin(2.0 * candidates)
    dists = np.empty((n, 65))
    for lo in range(0, n, 32):
        chunk = slice(lo, lo + 32)
        c, s = cos[chunk, :, None, None], sin[chunk, :, None, None]
        residual = np.broadcast_to(rows[chunk, None],
                                   (len(c), 65, 2, 10)).copy()
        residual[..., 4:7] = c * v[chunk, None] + s * w[chunk, None]
        residual[..., 7:10] = -s * v[chunk, None] + c * w[chunk, None]
        residual[..., 4:9:4] = 0.0
        sines = np.linalg.svd(residual, compute_uv=False)
        dists[chunk] = np.sqrt(np.sum(np.arcsin(np.clip(sines, 0.0, 1.0))**2,
                                      axis=-1))
    best = (np.arange(n), np.argmin(dists, axis=1))
    return dists[best], candidates[best], rows, cos, sin, dists


def _measured(seed, indices, **kwargs):
    """The rows verify_lemma1 measures: each plane orthonormalized twice."""
    planes = [sample_commuting_plane(seed, i, **kwargs)[0]
              .orthonormalized().orthonormalized() for i in indices]
    return (np.array([p.x.data for p in planes]),
            np.array([p.y.data for p in planes]))


SETS = ([pytest.param(seed, 160, {}, id=f"mixed-{seed}") for seed in range(10)]
        + [pytest.param(seed, 500, {"adversarial_only": True},
                        id=f"adversarial-{seed}") for seed in (0, 1)]
        + [pytest.param(1, 200, {"family": f}, id=f) for f in ("F1", "F2", "F3", "F4")])


@pytest.mark.parametrize("seed, n, kwargs", SETS)
def test_screen_gives_the_full_scan_bits(seed, n, kwargs):
    x, y = _measured(seed, range(n), **kwargs)
    want_d, want_a, rows, cos, sin, dists = _full_scan(x, y)
    got_d, got_a = cartan._orbit_distance_rows(x, y)
    np.testing.assert_array_equal(bits(got_d), bits(want_d))
    np.testing.assert_array_equal(bits(got_a), bits(want_a))
    # The screen reads every kept candidate to a tenth of its margin.
    screened = cartan._orbit_screen(rows, cos, sin)
    margin = cartan._ORBIT_SCREEN_MARGIN
    kept = screened <= screened.min(axis=1, keepdims=True) + margin
    assert np.max(np.abs(screened - dists)[kept]) <= margin / 10


def test_screen_keeps_the_exact_angle_of_a_plane_on_the_orbit():
    # A screen from the closed-form singular values of the 2x2 t0 block
    # loses this plane's exact angle to cancellation and reports 6.9e-5,
    # a false VIOLATION.
    x, y = _measured(0, [1751], adversarial_only=True)
    want_d, want_a = _full_scan(x, y)[:2]
    got_d, got_a = cartan._orbit_distance_rows(x, y)
    assert got_d[0] <= 1e-8
    np.testing.assert_array_equal(bits([got_d, got_a]), bits([want_d, want_a]))


def test_a_row_the_screen_cannot_read_keeps_every_candidate(monkeypatch):
    x, y = _measured(3, range(4))
    screen = cartan._orbit_screen

    def unreadable(rows, cos, sin):
        out = screen(rows, cos, sin)
        out[2, 7] = np.nan
        return out

    monkeypatch.setattr(cartan, "_orbit_screen", unreadable)
    want_d, want_a = _full_scan(x, y)[:2]
    got_d, got_a = cartan._orbit_distance_rows(x, y)
    np.testing.assert_array_equal(bits([got_d, got_a]), bits([want_d, want_a]))
