import csv
import io
import json

import numpy as np
import pytest

from sp2curv import (
    DeformedMetric,
    SpElement,
    TangentPlane,
    experiments,
    reference_deformation,
    sectional_curvature,
)
from sp2curv.cli import main

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
    assert sum(payload["results"]["case_counts"].values()) == 15


def test_samples_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--samples", "0"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
