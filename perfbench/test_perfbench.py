"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np
import pytest

import layers
import run
import spans
import workloads
from workloads import REPLAY_PLANES, Op, OpFailed, compare

sys.path.insert(0, str(run.SRC))


def test_self_times_on_a_nested_span_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7];
    # d [11, 12] is a second root.
    recorded = [
        ["a", 0.0, 10.0, -1, False],
        ["b", 1.0, 4.0, 0, False],
        ["c", 2.0, 3.0, 1, True],
        ["b", 5.0, 7.0, 0, False],
        ["d", 11.0, 12.0, -1, False],
    ]
    stats = spans.self_times(recorded)
    assert stats["a"] == {"calls": 1, "self_s": 5.0, "raised": 0}
    assert stats["b"] == {"calls": 2, "self_s": 4.0, "raised": 0}
    assert stats["c"] == {"calls": 1, "self_s": 1.0, "raised": 1}
    assert stats["d"] == {"calls": 1, "self_s": 1.0, "raised": 0}
    assert spans.count_children(recorded, "a", "b") == 2
    assert spans.count_children(recorded, "a", "c") == 0


def _ops_with_verdicts(verdicts):
    return [Op("synthetic", lambda: None, lambda _, v=v: copy.deepcopy(v))
            for v in verdicts]


def test_checker_counts_one_perturbed_reference_verdict():
    verdicts = [
        {"exact": {"family": "F1", "classification": "GENERIC_POSITIVE"},
         "margins": {}},
        {"exact": {"sigma": -1, "frontier_positive": [True, False]},
         "margins": {"min_k": 1.25e-9, "inner_ratio": 2.0}},
    ]
    ops = _ops_with_verdicts(verdicts)

    clean = run.Ledger(copy.deepcopy(verdicts))
    clean.run_pass(ops)
    assert clean.failed == 0

    # Rounding-sized drift of a margin is not a failure.
    rounded = copy.deepcopy(verdicts)
    rounded[1]["margins"]["min_k"] *= 1.0 + 1e-12
    ledger = run.Ledger(rounded)
    ledger.run_pass(ops)
    assert ledger.failed == 0

    for path, value in ((("exact", "family"), "F2"),
                        (("exact", "frontier_positive"), [True, True]),
                        (("margins", "inner_ratio"), 2.001)):
        perturbed = copy.deepcopy(verdicts)
        index = 0 if path[1] == "family" else 1
        perturbed[index][path[0]][path[1]] = value
        ledger = run.Ledger(perturbed)
        ledger.run_pass(ops)
        assert ledger.failed == 1, path
        assert ledger.attempted == 2


def test_checker_against_committed_reference():
    api, ops, _ = run.setup("jets", 0)
    reference = run.load_reference("jets", 0)
    assert reference is not None and len(reference) == len(ops)
    # The classify ops follow lemma1 and lemma0.
    assert [op.kind for op in ops[:3]] == ["lemma1", "lemma0", "classify"]
    ops, reference = ops[2:7], reference[2:7]
    ledger = run.Ledger(reference)
    ledger.run_pass(ops)
    assert ledger.failed == 0

    perturbed = copy.deepcopy(reference)
    family = perturbed[3]["exact"]["family"]
    perturbed[3]["exact"]["family"] = "F4" if family != "F4" else "F1"
    ledger = run.Ledger(perturbed)
    ledger.run_pass(ops)
    assert ledger.failed == 1
    assert "differs from the reference" in ledger.messages[0]


def test_only_latency_ops_enter_the_percentiles():
    ops = [Op("suite", lambda: None, lambda _: {}),
           Op("call", lambda: None, lambda _: {}, latency=True)]
    ledger = run.Ledger(None)
    ledger.run_pass(ops)
    ledger.run_pass(ops)
    assert len(ledger.latency_s) == 2 and len(ledger.pass_s) == 2
    assert ledger.attempted == 4 and ledger.failed == 0


def _wilking_failure(api, seed, index, **changes):
    """The failure entry the wilking command reports for one metric."""
    metric = api.metric.random_admissible_metric(
        np.random.default_rng([seed, 3, index])).as_metric()
    cert = api.experiments.wilking_pair(metric)
    failure = {"metric_index": index, "case_tag": cert.case_tag,
               "k_value": cert.k_value}
    failure.update(changes)
    return failure


def test_only_the_known_wilking_defect_is_excused():
    api, _, _ = run.setup("fixed", 4)
    # Seed 4 metric 532 is nearly singular; only the h-part recheck fails.
    metric = api.metric.random_admissible_metric(
        np.random.default_rng([4, 3, 532])).as_metric()
    ex = api.experiments
    assert not ex.verify_wilking_inequalities(metric, ex.wilking_pair(metric))
    known = _wilking_failure(api, 4, 532)
    assert workloads.known_recheck_defect(api, 4, known)
    # A failure reported for a healthy metric, or for another
    # certificate than the one rebuilt, is a real failure.
    assert not workloads.known_recheck_defect(api, 4, _wilking_failure(api, 4, 0))
    assert not workloads.known_recheck_defect(
        api, 4, dict(known, k_value=known["k_value"] * (1 + 1e-9)))
    payload = {"results": {"failures": [known, _wilking_failure(api, 4, 0)],
                           "max_commutator_residual": 0.0,
                           "case_counts": {}, "max_k_value": 0.0}}
    with pytest.raises(OpFailed, match="metric 0 fails"):
        workloads._wilking(api, 4, payload)
    payload["results"]["failures"] = [known]
    assert workloads._wilking(api, 4, payload)["known_defects"] == 1


def test_margin_comparison_treats_nan_as_equal():
    ref = {"margins": {"frontier0.min_k": float("nan")}}
    assert compare(ref, {"exact": {}, "margins": {"frontier0.min_k": float("nan")}}) == []
    assert compare(ref, {"exact": {}, "margins": {"frontier0.min_k": 0.0}}) != []


def _bound_objects():
    """Every (owner, attribute) -> object that the tracer may replace."""
    found = {}
    for key, module in list(sys.modules.items()):
        if key == "sp2curv" or key.startswith("sp2curv."):
            for attr, value in vars(module).items():
                found[(key, attr)] = value
    for _, module, path in spans.BOUNDARIES:
        *outer, attr = path.split(".")
        owner = sys.modules[module]
        for part in outer:
            owner = getattr(owner, part)
        if outer:
            found[(owner, attr)] = vars(owner)[attr]
    return found


def test_traced_run_restores_every_wrapped_name():
    api, ops, _ = run.setup("jets", 1)
    ops = ops[2:5]  # three classify calls
    before = _bound_objects()
    ledger = run.Ledger(None)
    with spans.Tracer() as tracer:
        patched = tracer.patched
        ledger.run_pass(ops)
    assert ledger.failed == 0
    # Functions are replaced where callers look them up, not only at home.
    patched_modules = {getattr(owner, "__name__", None)
                       for owner, attr, _ in patched if attr == "numerator_jet"}
    assert {"sp2curv.curvature", "sp2curv.experiments",
            "sp2curv.cli", "sp2curv"} <= patched_modules
    stats = spans.self_times(tracer.spans)
    assert stats["cli.main"]["calls"] == 3
    assert stats["curvature.numerator_jet"]["calls"] == 6
    # numerator_jet runs inside classify_plane, inside cli.main.
    jet = next(s for s in tracer.spans if s[spans.NAME] == "curvature.numerator_jet")
    parent = tracer.spans[jet[spans.PARENT]]
    assert parent[spans.NAME] == "experiments.classify_plane"
    assert tracer.spans[parent[spans.PARENT]][spans.NAME] == "cli.main"
    after = _bound_objects()
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert after[key] is value, key
    assert tracer.patched == []


def test_tracer_restores_after_a_failing_call():
    run.setup("jets", 1)
    before = _bound_objects()
    cli = sys.modules["sp2curv.cli"]
    with pytest.raises(SystemExit):
        with spans.Tracer() as tracer:
            cli.main(["classify", "1,0,0", "0,1,0"])  # not 9 or 10 reals
    assert tracer.spans[0][spans.NAME] == "cli.main"
    assert tracer.spans[0][spans.RAISED]
    after = _bound_objects()
    for key, value in before.items():
        assert after[key] is value, key


def test_benchmark_json_lists_the_emitted_per_layer_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    emitted = set()
    for workload, reach in layers.REACH.items():
        for name in reach:
            emitted |= {f"{workload}.{name}.calls", f"{workload}.{name}.self_s"}
        emitted |= set(layers.waste_ratios(workload, [], []))
        emitted.add(f"{workload}.trace_overhead_s")
    assert declared == emitted


def test_waste_ratios_of_a_traced_pass():
    api, ops, _ = run.setup("jets", 2)
    ledger = run.Ledger(None)
    ends = []
    with spans.Tracer() as tracer:
        ledger.time_pass(ops, lambda: ends.append(len(tracer.spans)))
    ranges = [(op.kind, lo, hi) for op, lo, hi in zip(ops, [0] + ends[:-1], ends)]
    metrics = layers.layer_metrics("jets", tracer.spans, ranges)
    assert metrics["jets.curvature.orthonormalized.per_plane"][0] == 1.5
    assert metrics["jets.curvature.numerator_jet.per_classify"][0] == 2.0
    assert layers.raised_calls(tracer.spans, ranges, "classify",
                               "cartan.canonicalize") == 0
    assert metrics["jets.cli.main.calls"][0] == 1 + REPLAY_PLANES


def test_bare_directory_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "jets", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_last_line_is_the_result_object(capsys):
    code = run.main(["--workload", "jets", "--seed", "0", "--seconds", "0.001"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 + REPLAY_PLANES
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
