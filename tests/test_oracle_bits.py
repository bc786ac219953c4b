"""The oracle suite's default route against a copy of its per-pair form.

``_ref_oracle`` below is ``run_oracle_suite`` as it was written when the
bracket under test ran on two ``SpElement``s a pair through the public
``bracket``, and every inner product through ``bi_inner``.  The suite now
runs the bracket's body once per chunk on coordinate columns and takes a
chunk's inner products as one rows dot; with no ``bracket_fn`` its report
must keep every bit.
"""

import numpy as np
import pytest
from conftest import bits

from sp2curv import experiments, run_oracle_suite
from sp2curv.algebra import (
    SpElement,
    _bracket_list,
    _bracket_rows,
    bi_inner,
    bi_inner_trace_form,
    bracket,
    from_matrix,
    to_matrix,
)
from sp2curv.experiments import _ORACLE_CHUNK


def _ref_oracle(seed, samples, tol=1e-12):
    """(max_bracket_error, inner_ratio, inner_ratio_spread, passed)."""
    ratios = []
    for k in range(10):
        e = SpElement.from_array(np.eye(10)[k])
        ratios.append(bi_inner(e, e) / bi_inner_trace_form(e, e))
    rng = np.random.default_rng([seed, 0])
    max_err = 0.0
    for lo in range(0, samples, _ORACLE_CHUNK):
        pairs = rng.uniform(-1.0, 1.0, (min(_ORACLE_CHUNK, samples - lo), 2, 10))
        mx = to_matrix(pairs[:, 0])
        my = to_matrix(pairs[:, 1])
        xy = mx @ my
        diff = from_matrix(xy - (my @ mx), tol=1e-8)
        rows_err = np.max(np.abs(diff - _bracket_rows(pairs[:, 0], pairs[:, 1])))
        traces = xy.minus_re_trace().tolist()
        for k, (xa, ya) in enumerate(pairs):
            x = SpElement.from_array(xa)
            y = SpElement.from_array(ya)
            diff[k] -= bracket(x, y).data
            if abs(traces[k]) > 1e-1:
                ratios.append(bi_inner(x, y) / traces[k])
        max_err = float(np.maximum(max_err, np.maximum(
            rows_err, np.max(np.abs(diff)))))
    ratios = np.asarray(ratios)
    ratio = float(np.median(ratios))
    spread = float((ratios.max() - ratios.min()) / abs(ratio))
    return max_err, ratio, spread, max_err <= tol and spread < 1e-12


def _bits(report):
    """The report's fields apart from the timing, floats as their bits."""
    return [v.hex() if isinstance(v, float) else v
            for name, v in report._asdict().items() if name != "elapsed_seconds"]


@pytest.mark.parametrize("seed, samples", [
    *((seed, n) for seed in range(10)
      for n in (1, 300, 3 * _ORACLE_CHUNK + 5, 1250)),
    (0, 10000),
])
def test_default_route_keeps_the_bits_of_the_per_pair_loop(seed, samples):
    report = run_oracle_suite(seed, samples)
    max_err, ratio, spread, passed = _ref_oracle(seed, samples)
    assert _bits(report) == [samples, max_err.hex(), ratio.hex(), spread.hex(), passed]


def test_default_pair_route_is_checked(monkeypatch):
    # _bracket_rows took its table from _bracket_list at import, so the
    # patch reaches the pair-by-pair route alone.
    def shifted(a, b):
        out = _bracket_list(a, b)
        out[3] += 1e-9
        return out

    monkeypatch.setattr(experiments, "_bracket_list", shifted)
    report = run_oracle_suite(5, 50)
    assert not report.passed
    assert report.max_bracket_error > 1e-12

    def nan_component(a, b):
        out = _bracket_list(a, b)
        out[3] = float("nan")
        return out

    monkeypatch.setattr(experiments, "_bracket_list", nan_component)
    report = run_oracle_suite(5, 50)
    assert not report.passed
    assert np.isnan(report.max_bracket_error)


@pytest.mark.parametrize("samples", [300, 1250])
def test_oracle_report_does_not_depend_on_the_chunk(monkeypatch, samples):
    reports = []
    for chunk in (1, 7, 256, 1024):
        monkeypatch.setattr(experiments, "_ORACLE_CHUNK", chunk)
        reports.append(_bits(run_oracle_suite(5, samples)))
    assert reports[0] == reports[1] == reports[2] == reports[3]


# Coordinates whose products are subnormal, signed zeros or near 1e+-300.
_EDGE = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 2.2250738585072014e-308,
         1e-150, -3e-150, 1e150, -2e150, 1.0, -0.7, 3.0)


def _per_pair(xs, ys):
    """_bracket_list on each pair's two coordinate lists: the per-pair route."""
    return np.array([_bracket_list(a, b) for a, b in zip(xs.tolist(), ys.tolist())])


def _columns_seen(monkeypatch, seed, samples):
    """[(xs, ys, the (n, 10) bracket)] of the calls the suite makes."""
    seen = []

    def spy(a, b):
        out = _bracket_list(a, b)
        seen.append((a.T, b.T, np.array(out).T))
        return out

    monkeypatch.setattr(experiments, "_bracket_list", spy)
    run_oracle_suite(seed, samples)
    return seen


def test_column_route_keeps_the_bits_of_the_per_pair_bracket_on_edge_values():
    """_bracket_list on (10, n) columns rounds every entry as the per-pair
    route does, signed zeros, subnormals and products near 1e+-300 too."""
    rng = np.random.default_rng(21)
    pairs = rng.choice(_EDGE, size=(4000, 2, 10))
    pairs[::7] *= rng.uniform(-1.0, 1.0, (len(pairs[::7]), 2, 10))
    xs, ys = pairs[:, 0], pairs[:, 1]
    columns = np.array(_bracket_list(xs.T, ys.T)).T
    np.testing.assert_array_equal(bits(columns), bits(_per_pair(xs, ys)))


@pytest.mark.parametrize("seed", range(3))
def test_suite_runs_the_bracket_once_per_chunk_on_columns(monkeypatch, seed):
    seen = _columns_seen(monkeypatch, seed, 3 * _ORACLE_CHUNK + 5)
    assert [len(xs) for xs, _, _ in seen] == [_ORACLE_CHUNK] * 3 + [5]
    for xs, ys, got in seen:
        np.testing.assert_array_equal(bits(got), bits(_per_pair(xs, ys)))
