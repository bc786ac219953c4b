"""sp2curv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload jets --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload's fixed operation sequence is repeated
for ``--seconds`` and the end-to-end metrics are printed.  With
``--trace 1`` every workload alternates untraced and traced passes for an
equal share of ``--seconds``, so that every per-layer metric is measured
in each traced run; the spans of the last traced pass of each workload
are written to ``perfbench/out/``.  Every operation's verdict is checked,
and against ``perfbench/reference/`` when the seed has a reference.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One client, one thread: keep BLAS from starting a thread pool.  Set
# before numpy is imported; an explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    ORACLE_CONTRACT_PAIRS,
    WORKLOADS,
    build_probes,
    compare,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

ORACLE_BUDGET_S = 1.0


def import_api() -> SimpleNamespace:
    """Import sp2curv afresh from ``src/``, dropping any earlier import."""
    for key in [k for k in sys.modules
                if k == "sp2curv" or k.startswith("sp2curv.")]:
        del sys.modules[key]
    return SimpleNamespace(**{
        name: importlib.import_module(f"sp2curv.{name}")
        for name in ("cli", "experiments", "algebra", "curvature", "metric")})


def report_prefix(workload: str) -> str:
    """Where the workload's commands write their JSON reports."""
    return str(OUT_DIR / f"report-{workload}-{os.getpid()}")


def setup(workload: str, seed: int):
    """Import sp2curv and build the workload's ops; returns the time too."""
    start = time.perf_counter()
    api = import_api()
    ops = WORKLOADS[workload](api, seed, report_prefix(workload))
    return api, ops, time.perf_counter() - start


def load_reference(workload: str, seed: int):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


class Ledger:
    """Op outcomes of one run: latencies, failures, notes."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.latency_s: list = []  # of each op whose latency counts
        self.pass_s: list = []
        self.messages: list = []
        self.notes: list = []
        self.known_defects = 0

    def run_pass(self, ops) -> float:
        """Run every op once, then check them; returns the pass time."""
        outcomes = self.time_pass(ops)
        self.check_pass(ops, outcomes)
        return self.pass_s[-1]

    def time_pass(self, ops, after_op=None) -> list:
        """Run every op once, unchecked; ``after_op()`` follows each op.

        Returns the outcome of each op for ``check_pass``.
        """
        outcomes = []
        for op in ops:
            outcomes.append(self._time(op))
            if after_op is not None:
                after_op()
        self.latency_s.extend(t for op, (t, _, _) in zip(ops, outcomes)
                              if op.latency)
        self.pass_s.append(sum(t for t, _, _ in outcomes))
        return outcomes

    def check_pass(self, ops, outcomes) -> None:
        for i, (op, (_, raised, result)) in enumerate(zip(ops, outcomes)):
            if not raised:
                self.check(op, result, i)

    def run_op(self, op, index):
        """Time one op and check it; returns the verdict or None.

        ``index`` is the op's place in the reference.
        """
        _, raised, result = self._time(op)
        return None if raised else self.check(op, result, index)

    def _time(self, op):
        """(seconds, raised, result) of one call of ``op.run``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a raising op is a failed op; keep going
            elapsed = time.perf_counter() - start
            self._fail(f"{op.kind} raised:\n" + traceback.format_exc())
            return elapsed, True, None
        return time.perf_counter() - start, False, result

    def check(self, op, result, index):
        try:
            verdict = op.verdict(result)
        except Exception as exc:  # a verdict that cannot be read is a failure
            self._fail(f"{op.kind} (op {index}): {exc!r}")
            return None
        if verdict.get("known_defects"):
            self.known_defects += verdict["known_defects"]
            if len(self.notes) < 5:
                self.notes.append(
                    f"known defect: {op.kind} (op {index}) reported "
                    f"{verdict['known_defects']} recheck-only rejections")
        if self.reference is not None:
            problems = compare(self.reference[index], verdict)
            if problems:
                self._fail(f"{op.kind} (op {index}) differs from the "
                           f"reference: " + "; ".join(problems[:5]))
        return verdict

    def _fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = {k: config["Build Dependencies"][k]
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values) -> float:
    """90th percentile, as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure(workload: str, seed: int, seconds: float):
    """Untraced run: repeat the workload's passes for ``seconds``.

    setup_s is the median of one set-up before the first pass and one
    after each pass, so that its repeats are spread over the run like
    the passes.  Those later set-ups are timed and discarded: every pass
    runs the ops of the first.
    """
    api, ops, first_setup_s = setup(workload, seed)
    setup_times = [first_setup_s]
    ledger = Ledger(load_reference(workload, seed))
    deadline = time.perf_counter() + seconds
    while True:
        ledger.run_pass(ops)
        setup_times.append(setup(workload, seed)[2])
        if time.perf_counter() >= deadline:
            break
    op_ms = [1e3 * s for s in ledger.latency_s]
    # The host's speed wanders between a fast and a slow state within a
    # run, and the share of each differs from run to run.  A median falls
    # between the two and moves with that share; the 90th percentile, in
    # the slow state, moves far less.  So the timings are 90th
    # percentiles, and the medians are printed beside them, unbounded.
    # setup_s stays the median of its repeats.
    metrics = {
        "wall_s": (p90(ledger.pass_s), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "op_p90_ms": (p90(op_ms), "ms"),
    }
    info = {
        "passes": len(ledger.pass_s),
        "median_pass_s": statistics.median(ledger.pass_s),
        "op_p50_ms": statistics.median(op_ms),
        "ops_per_pass": len(ops),
        "op_samples": len(op_ms),
        "setup_repeats": len(setup_times),
        "reference_checked": ledger.reference is not None,
    }
    probes = build_probes(api, workload, seed, report_prefix(workload))
    info["probe_ops"] = len(probes)
    for j, op in enumerate(probes):
        verdict = ledger.run_op(op, len(ops) + j)
        if verdict and "suite_s" in verdict:
            oracle_s = info["oracle_contract_s"] = verdict["suite_s"]
            if oracle_s >= ORACLE_BUDGET_S:
                ledger.notes.append(
                    f"known defect: the oracle suite at "
                    f"{ORACLE_CONTRACT_PAIRS} pairs took {oracle_s:.3f} s "
                    f"against the {ORACLE_BUDGET_S} s budget of "
                    f"test_criterion_1_bracket_matches_matrix_oracle; "
                    f"reported here, the test is left as it is")
    return metrics, ledger, info


def traced(seed: int, seconds: float):
    """Per-layer metrics of every workload, each given a share of ``seconds``.

    After a warm-up pass, which keeps first-call costs out, a workload
    alternates untraced and traced passes until its share is used, at
    least one of each.  Counts and ratios are the same in every traced
    pass; self times are medians over them, and the tracing overhead is
    the median traced pass minus the median untraced pass.
    """
    metrics = {}
    info = {}
    ledgers = []
    share = seconds / len(WORKLOADS)
    for workload in WORKLOADS:
        api, ops, _ = setup(workload, seed)
        ledger = Ledger(load_reference(workload, seed))
        ledgers.append(ledger)
        ledger.run_pass(ops)
        untraced_s, traced_s, per_pass = [], [], []
        canonicalize_errors = 0
        deadline = time.perf_counter() + share
        while True:
            untraced_s.append(ledger.run_pass(ops))
            ends = []
            with spans.Tracer() as tracer:
                outcomes = ledger.time_pass(
                    ops, lambda: ends.append(len(tracer.spans)))
            # Checked untraced: a verdict may call into sp2curv.
            ledger.check_pass(ops, outcomes)
            traced_s.append(ledger.pass_s[-1])
            ranges = [(op.kind, lo, hi)
                      for op, lo, hi in zip(ops, [0] + ends[:-1], ends)]
            per_pass.append(layers.layer_metrics(workload, tracer.spans,
                                                 ranges))
            canonicalize_errors += layers.raised_calls(
                tracer.spans, ranges, "classify", "cartan.canonicalize")
            if time.perf_counter() >= deadline:
                break
        for name, (_, unit) in per_pass[0].items():
            metrics[name] = (statistics.median_low(p[name][0] for p in per_pass),
                             unit)
        metrics[f"{workload}.trace_overhead_s"] = (
            statistics.median(traced_s) - statistics.median(untraced_s), "s")
        info[workload] = {"traced_passes": len(traced_s),
                          "untraced_wall_s": statistics.median(untraced_s),
                          "traced_wall_s": statistics.median(traced_s),
                          "spans_per_pass": len(tracer.spans),
                          "canonicalize_errors": canonicalize_errors}
        write_spans(workload, seed, tracer.spans)
    return metrics, ledgers, info


def write_spans(workload, seed, recorded):
    """Write the spans of one traced pass, names interned."""
    names = sorted({s[spans.NAME] for s in recorded})
    index = {n: i for i, n in enumerate(names)}
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "raised"],
                   "names": names,
                   "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                             for s in recorded]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sp2curv" / "__init__.py").is_file():
        print(f"perfbench: no sp2curv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        metrics, ledgers, info = traced(args.seed, args.seconds)
    else:
        metrics, ledger, info = measure(args.workload, args.seed, args.seconds)
        ledgers = [ledger]
    attempted = sum(lg.attempted for lg in ledgers)
    failed = sum(lg.failed for lg in ledgers)
    for lg in ledgers:
        for message in lg.messages:
            print(f"FAILED {message}", file=sys.stderr)
        for note in lg.notes:
            print(f"NOTE {note}", file=sys.stderr)
    info["known_defects"] = sum(lg.known_defects for lg in ledgers)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed,
        "info": info, "fingerprint": fingerprint(),
    }
    path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if "op_p50_ms" in info:
        print(f"op_p50_ms = {info['op_p50_ms']!r} ms (median, unbounded; "
              f"op_p90_ms over the same {info['op_samples']} calls)")
    print(f"failed_share = {failed / attempted!r} ({failed}/{attempted})")
    print("info = " + json.dumps(info, sort_keys=True))
    print("fingerprint = " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
