import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sp2curv
from sp2curv import (
    CanonicalizationError,
    DeformedMetric,
    SpElement,
    TangentPlane,
    experiments,
    reference_deformation,
    sectional_curvature,
)
from sp2curv import cli
from sp2curv.algebra import _ad_h_arr
from sp2curv.cli import build_parser, main

from conftest import near_orbit_plane

T0_X = "0,0,0,0,1,0,0,0,0,0"
T0_Y = "0,0,0,0,0,0,0,0,1,0"


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


# ---- envelope and exit codes ----


def test_oracle_exit_zero_and_envelope(capsys):
    code, payload = run_json(capsys, ["oracle", "--samples", "50",
                                      "--seed", "3"])
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["artifact"]["name"] == "sp2curv"
    assert payload["command"] == "oracle"
    assert payload["config"]["samples"] == 50
    assert payload["config"]["seed"] == 3
    assert payload["passed"] is True
    assert payload["results"]["max_bracket_error"] <= 1e-12
    assert isinstance(payload["timing_seconds"], float)


def test_lemma1_exit_zero(capsys):
    code, payload = run_json(capsys, ["lemma1", "--samples", "60",
                                      "--seed", "7"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["results"]["classification_counts"].get("VIOLATION",
                                                           0) == 0
    summary = payload["summary"]
    assert (summary["max_special_orbit_distance"] <= 1e-8
            < summary["min_generic_orbit_distance"])


def test_theorem1_exit_zero(capsys):
    code, payload = run_json(capsys, ["theorem1", "--samples", "40",
                                      "--seed", "11", "--t", "0.001,0.01"])
    assert code == 0
    assert payload["config"]["t_values"] == [0.001, 0.01]
    assert payload["results"]["sigma"] == -1
    assert payload["results"]["opposite_sign"]["k_value"] < 0
    assert payload["summary"]["opposite_sign_k"] < 0


@pytest.mark.parametrize("t_values", ["5", "0.001,5"])
def test_theorem1_rejects_t_outside_positive_definite_range(capsys, monkeypatch,
                                                            t_values):
    # At t = 5 the deformed reference metric is not positive definite, and
    # that is rejected before any plane is sampled.
    def unreachable(*args):
        raise AssertionError("sampled a plane before rejecting t")

    monkeypatch.setattr(experiments, "sample_commuting_plane", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["theorem1", "--t", t_values])
    assert exc.value.code == 2


def test_wilking_exit_zero(capsys):
    code, payload = run_json(capsys, ["wilking", "--samples", "15",
                                      "--seed", "7"])
    assert code == 0
    assert payload["results"]["max_k_value"] <= 1e-10
    assert 0.0 <= payload["results"]["recheck_headroom"] <= 1.0
    assert sum(payload["results"]["case_counts"].values()) == 15


def test_samples_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--samples", "0"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"]


@pytest.mark.parametrize("value", NON_FINITE + ["-1", "-1e-12"])
@pytest.mark.parametrize("argv", [
    ["oracle", "--samples", "5"],
    ["lemma1", "--samples", "5"],
    ["theorem1", "--samples", "5"],
    ["wilking", "--samples", "5"],
    ["classify", T0_X, T0_Y],
], ids=lambda argv: argv[0])
def test_non_finite_tol_is_usage_error(capsys, argv, value):
    # An infinite tolerance passed every Wilking certificate; a NaN one
    # labelled every lemma1 plane a violation.
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--tol={value}"])
    assert exc.value.code == 2
    assert "--tol: not a finite number" in capsys.readouterr().err


def test_negative_tol_cannot_pass_a_failing_theorem1(capsys):
    # --tol -1 once passed this run, its scan marked positive at a negative
    # min_k.
    code, payload = run_json(capsys, ["theorem1", "--samples", "300",
                                      "--t", "0.3"])
    assert code == 1 and payload["passed"] is False
    with pytest.raises(SystemExit) as exc:
        main(["theorem1", "--samples", "300", "--t", "0.3", "--tol", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("t_values", NON_FINITE + ["0.001,nan", "inf,0.01"])
def test_theorem1_rejects_non_finite_t(capsys, monkeypatch, t_values):
    def unreachable(*args):
        raise AssertionError("sampled a plane before rejecting t")

    monkeypatch.setattr(experiments, "sample_commuting_plane", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["theorem1", f"--t={t_values}"])
    assert exc.value.code == 2
    assert "--t: not a finite number" in capsys.readouterr().err


def test_lemma1_family_and_adversarial_are_usage_error(capsys):
    # --adversarial was dropped without a word, its report saying
    # config.adversarial true over uniform planes only.
    with pytest.raises(SystemExit) as exc:
        main(["lemma1", "--samples", "10", "--family", "F2", "--adversarial"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, suite, keyword", [
    (["oracle", "--samples", "50"], experiments.run_oracle_suite, "tol"),
    (["lemma1", "--samples", "20"], experiments.verify_lemma1, "c2_tol"),
    (["theorem1", "--samples", "20"], experiments.verify_theorem1, "pos_tol"),
    (["wilking", "--samples", "5"], experiments.verify_wilking, "tol"),
    (["classify", T0_X, T0_Y], experiments.classify_plane, "orbit_tol"),
])
def test_without_tol_each_command_runs_at_its_suites_default(
        capsys, monkeypatch, argv, suite, keyword):
    # The CLI passes the keyword only for --tol, so the default is the
    # suite's own; the report at that default is the report without --tol.
    default = inspect.signature(suite).parameters[keyword].default
    passed = []

    def recorded(*args, **kwargs):
        passed.append(kwargs)
        return suite(*args, **kwargs)

    monkeypatch.setattr(cli, suite.__name__, recorded)
    reports = []
    for extra in ([], ["--tol", repr(default)]):
        _, payload = run_json(capsys, argv + extra)
        payload.pop("timing_seconds")
        reports.append((payload["config"].pop("tol"),
                        json.dumps(payload, sort_keys=True)))
    assert keyword not in passed[0] and passed[1][keyword] == default
    assert reports[0][0] is None and reports[1][0] == default
    assert reports[0][1] == reports[1][1]


# ---- the parser main builds ----


def _without_timing(out):
    if not out.startswith("{"):
        return out
    payload = json.loads(out)
    payload.pop("timing_seconds")
    return json.dumps(payload, sort_keys=True)


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _without_timing(captured.out), captured.err


def _fresh_process(argv, module="sp2curv"):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sp2curv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, _without_timing(done.stdout), done.stderr


def test_repeated_main_calls_give_what_fresh_processes_give(capsys):
    calls = [
        ["classify", T0_X, T0_Y],
        ["classify", "1,0,0,0,1,0,0,0,0", "0,1,0,0,0,0,0,0,0"],
        ["lemma1", "--frobnicate"],
        ["lemma1", "--samples", "20"],
    ]
    got = [_in_process(capsys, argv) for argv in calls]
    assert [code for code, _, _ in got] == [0, 2, 2, 0]
    for argv, result in zip(calls, got):
        assert result == _fresh_process(argv), argv


def _report(capsys, argv, out=None):
    code, stdout, err = _in_process(capsys, argv)
    if out is not None and os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            stdout = _without_timing(fh.read())
        os.remove(out)
    return code, stdout, err


def test_cached_parsers_give_what_fresh_parsers_give(capsys, monkeypatch,
                                                     tmp_path):
    out = str(tmp_path / "report.json")
    generic = ["1,0,0,0,0,0,0,0,0", "0,0,0,1,0,0,0,0,0"]
    calls = [
        ["classify", T0_X, T0_Y],
        ["classify", "1,0,0,0,1,0,0,0,0", "0,1,0,0,0,0,0,0,0"],
        ["classify", T0_X, T0_Y, "--tol", "1e-12"],
        ["classify", *generic, "--format", "csv"],
        ["classify", *generic, "--out", out],
        ["classify", T0_X, T0_Y],
        ["lemma1", "--samples", "20", "--tol", "1e-9", "--format", "csv"],
        ["lemma1", "--samples", "20", "--out", out],
        ["lemma1", "--samples", "20"],
    ]
    cached = [_report(capsys, argv, out) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [_report(capsys, argv, out) for argv in calls]
    assert [code for code, _, _ in cached] == [0, 2, 0, 0, 0, 0, 0, 0, 0]
    assert cached == fresh


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


# ---- empty measurements are null ----


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_lemma1_writes_null_for_an_empty_orbit_set(capsys):
    code, out = run_cli(capsys, ["lemma1", "--family", "F4",
                                 "--samples", "20"])
    assert code == 0
    summary = _strict_json(out)["summary"]
    assert summary["max_special_orbit_distance"] is None
    assert summary["min_generic_orbit_distance"] > 1e-8


def test_wilking_writes_null_when_no_certificate_passes(monkeypatch):
    report = experiments.verify_wilking(7, 5)
    monkeypatch.setattr(cli, "verify_wilking", lambda *args, **kwargs:
                        report._replace(recheck_headroom=float("nan")))
    config = build_parser().parse_args(["wilking", "--samples", "5"])
    results = cli._run_wilking(config)[0]
    assert _strict_json(cli._render_json(results))["recheck_headroom"] is None


# ---- classify ----


def test_classify_special_pair(capsys):
    code, payload = run_json(capsys, ["classify", T0_X, T0_Y])
    assert code == 0
    assert payload["results"]["classification"] == "DEGENERATE_CUBIC"
    assert payload["results"]["special_orbit"] is True
    assert payload["results"]["c3"] == pytest.approx(-1.0, abs=1e-12)
    assert payload["results"]["family"] == "F1"


def test_classify_accepts_nine_reals(capsys):
    code, payload = run_json(capsys, ["classify",
                                      "0,0,0,1,0,0,0,0,0",
                                      "0,0,0,0,0,0,0,1,0"])
    assert code == 0
    assert payload["results"]["classification"] == "DEGENERATE_CUBIC"


def test_classify_generic_pair(capsys):
    # An F2 plane with ell = 0: u in the first slot, same axis in v.
    code, payload = run_json(capsys, ["classify",
                                      "1,0,0,0,0,0,0,0,0",
                                      "0,0,0,1,0,0,0,0,0"])
    assert code == 0
    assert payload["results"]["classification"] == "GENERIC_POSITIVE"
    assert payload["results"]["family"] == "F2"
    assert payload["results"]["c2"] > 1e-10


@pytest.mark.parametrize("options", [[], ["--format", "json"], ["--tol", "1e-8"]])
def test_classify_takes_vectors_with_a_negative_first_entry(capsys, options):
    # argparse took "-0.0,..." for an option and exited 2, "y" missing.
    x = "-0.0" + T0_X[1:]
    found58 = [(4.5e-10, 0.9) + (0,) * 8, (0, 10, 0, 0, 1) + (0,) * 5]
    witness = cli._witness(0, 0, *(-np.array(found58)))["classify_args"]
    for args, x0 in (([x, T0_Y], -0.0), (witness, -4.5e-10),
                     ([a.split(",", 1)[1] for a in witness], 0.0)):
        for argv in (["classify", *options, *args], ["classify", *args, *options],
                     ["classify", args[0], *options, args[1]]):
            code, payload = run_json(capsys, argv)
            assert code == 0, argv
            got = payload["config"]["x"][0]
            assert (got, math.copysign(1.0, got)) == (x0, math.copysign(1.0, x0))


def test_classify_takes_admitted_planes_near_the_in_m_bound(capsys):
    # Gram-Schmidt moves x's lam, up to 0.9e-9 max|x|, into y's direction,
    # amplified by |y.a|/|b|; the pair was admitted, then rejected in its
    # orthonormalized form, and classify exited 2 after accepting it.
    pairs = [((4.5e-10, 0.9) + (0,) * 8, (0, 10, 0, 0, 1) + (0,) * 5)]
    for ratio in (0.5e-9, 0.9e-9):
        for q in (1.0, 10.0, 1e3):
            for scale in (1e-3, 1.0, 1e3):
                x = np.zeros(10)
                y = np.zeros(10)
                x[0], x[1] = ratio * scale, scale
                y[1], y[4] = q * scale, scale
                pairs.append((x, y))
    for x, y in pairs:
        plane = TangentPlane(SpElement.from_array(x), SpElement.from_array(y))
        ortho = plane.orthonormalized()
        assert abs(ortho.x.data @ ortho.y.data) <= 1e-15
        code, payload = run_json(
            capsys, ["classify", cli._classify_arg(x), cli._classify_arg(y)])
        assert code in (0, 1), (x, y)
        assert payload["command"] == "classify"


def test_classify_rejects_non_commuting(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "1,0,0,0,1,0,0,0,0", "0,1,0,0,0,0,0,0,0"])
    assert exc.value.code == 2


def test_classify_rejects_bad_vector_length(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "1,0,0", T0_Y])
    assert exc.value.code == 2


def test_classify_rejects_unparseable_reals(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "a,b,c,d,e,f,g,h,i", T0_Y])
    assert exc.value.code == 2


@pytest.mark.parametrize("entry",
                         ["nan", "inf", "-Infinity", "1e999", "-inf", "-NaN"])
def test_classify_rejects_non_finite_entries(capsys, entry):
    # A NaN entry read as a number failed later as "do not commute"; a
    # leading "-inf" was read as an option, and y was then reported missing.
    for argv in (["0," + entry + ",0,0,0,0,0,0,0", "0,0,0,1,0,0,0,0,0"],
                 [entry + ",0,0,0,1,0,0,0,0,0", T0_Y]):
        with pytest.raises(SystemExit) as exc:
            main(["classify", *argv])
        assert exc.value.code == 2
        assert f"not a finite number: {entry!r}" in capsys.readouterr().err


def test_python_m_sp2curv_cli_runs_main():
    # Without its __main__ guard the module ran nothing and exited 0.
    code, _, err = _fresh_process(["classify", "1,0,0,0,1,0,0,0,0",
                                   "0,1,0,0,0,0,0,0,0"], "sp2curv.cli")
    assert code == 2 and "do not commute" in err
    code, out, _ = _fresh_process(["oracle", "--samples", "5"], "sp2curv.cli")
    assert code == 0 and json.loads(out)["results"]["samples"] == 5


# ---- output formats ----


def test_json_is_deterministic_modulo_timing(capsys):
    argv = ["lemma1", "--samples", "40", "--seed", "42"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)


def test_csv_format(capsys):
    code, out = run_cli(capsys, ["lemma1", "--samples", "25", "--seed", "7",
                                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "plane_id"
    assert len(rows) == 26


def test_text_format(capsys):
    code, out = run_cli(capsys, ["oracle", "--samples", "30",
                                 "--format", "text"])
    assert code == 0
    assert out.rstrip().endswith("result: PASS")
    assert "max_bracket_error" in out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, ["oracle", "--samples", "30",
                                 "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "oracle"


def test_out_creates_missing_directory(tmp_path, capsys):
    target = tmp_path / "a" / "b" / "report.json"
    code, out = run_cli(capsys, ["oracle", "--samples", "30",
                                 "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["passed"] is True


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    # A directory cannot be opened as the report file.
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--samples", "30", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("sp2curv: error:")


def test_witness_round_trips_through_classify(capsys):
    # Every lemma1 verdict carries its plane; the CSV row must be
    # acceptable to classify verbatim.
    code, out = run_cli(capsys, ["lemma1", "--samples", "10", "--seed", "7",
                                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    record = dict(zip(header, rows[1]))
    code, payload = run_json(capsys, ["classify", record["x"], record["y"]])
    assert code == 0
    assert payload["results"]["classification"] == record["classification"]


def test_theorem1_argmin_plane_replays_through_classify(capsys):
    code, payload = run_json(capsys, ["theorem1", "--samples", "40",
                                      "--seed", "11"])
    assert code == 0
    scan = payload["results"]["scans"][1]
    code, replay = run_json(capsys, ["classify", scan["argmin_x"],
                                     scan["argmin_y"]])
    assert code == 0
    assert replay["config"]["x"] == [float(t) for t in scan["argmin_x"].split(",")]
    x = SpElement.from_array(np.array(replay["config"]["x"]))
    y = SpElement.from_array(np.array(replay["config"]["y"]))
    metric = DeformedMetric(reference_deformation(), scan["t"])
    k = sectional_curvature(metric, TangentPlane(x, y)).k_value
    assert k == pytest.approx(scan["min_k"], rel=0.0, abs=1e-14)


# ---- classify near the orbit ----


def _fail_reduction(x, y):
    raise CanonicalizationError("reduction failed: injected")


def test_classify_names_every_plane_near_the_orbit(capsys, monkeypatch):
    # 10 of these 24 planes failed to reduce while the guard on the F4
    # scale was absolute (|sigma| > 1e-10); each must now reconstruct.
    for k, delta in enumerate([1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]):
        rng = np.random.default_rng([5, k])
        for _ in range(4):
            x, y = near_orbit_plane(rng, delta)
            argv = ["classify", cli._classify_arg(x), cli._classify_arg(y)]
            code, payload = run_json(capsys, argv)
            results = payload["results"]
            assert code == (1 if results["classification"] == "VIOLATION"
                            else 0)
            assert len(results["jet"]) == 5
            assert "canonicalization_error" not in results
            rows = _ad_h_arr(results["witness_angle"], np.array(
                results["witness_matrix"]) @ np.array(
                    [results["canonical_x"], results["canonical_y"]]))
            scale = max(1.0, np.abs([x, y]).max())
            assert np.abs(rows - [x, y]).max() <= 1e-8 * scale

    # A plane the reduction cannot name keeps its jet verdict.
    monkeypatch.setattr(cli, "canonicalize", _fail_reduction)
    code, payload = run_json(capsys, argv)
    results = payload["results"]
    assert code == (1 if results["classification"] == "VIOLATION" else 0)
    assert len(results["jet"]) == 5
    assert results["canonicalization_error"] == "reduction failed: injected"
    assert all(results[key] is None for key in (
        "family", "parameters", "canonical_x", "canonical_y",
        "witness_angle", "witness_matrix"))


# ---- the JSON render ----


def _plain_copy(obj):
    """The recursive walk the JSON render ran before it took a default hook."""
    if isinstance(obj, np.ndarray):
        return [_plain_copy(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _plain_copy(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_copy(v) for v in obj]
    return obj


def _payloads(monkeypatch, capsys, argv):
    seen = []
    render = cli._render_json
    monkeypatch.setattr(cli, "_render_json",
                        lambda payload: seen.append(payload) or render(payload))
    run_cli(capsys, argv)
    monkeypatch.undo()
    return seen


def test_render_json_writes_the_bytes_of_the_plain_walk(monkeypatch, capsys):
    x, y = near_orbit_plane(np.random.default_rng([5, 5]), 1e-6)
    payloads = [p for argv in (
        ["oracle", "--samples", "50"],
        ["lemma1", "--samples", "30", "--family", "F4"],  # null stats
        ["theorem1", "--samples", "20", "--seed", "3"],
        ["wilking", "--samples", "20"],
        ["classify", T0_X, T0_Y],
    ) for p in _payloads(monkeypatch, capsys, argv)]
    with pytest.MonkeyPatch.context() as patch:  # null canonical fields
        patch.setattr(cli, "canonicalize", _fail_reduction)
        payloads += _payloads(monkeypatch, capsys, [
            "classify", cli._classify_arg(x), cli._classify_arg(y)])
    assert len(payloads) == 6
    assert payloads[1]["summary"]["special_abs_c2"] is None
    assert any(np.isnan(f["min_k"]) for f in payloads[2]["results"]["frontier"])
    assert payloads[5]["results"]["family"] is None
    # The runners convert numpy scalars today; the render must not need it.
    payloads.append({"passed": np.bool_(False), "samples": np.int64(3),
                     "k": np.float64(-0.5), "half": (np.float32(0.5), None),
                     "rows": np.eye(2), "empty": np.zeros(0)})
    for payload in payloads:
        expected = json.dumps(_plain_copy(payload), sort_keys=True, indent=2)
        assert cli._render_json(payload) == expected + "\n"
