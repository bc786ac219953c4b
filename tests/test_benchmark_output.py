"""The benchmark's last line of output is strict JSON with finite metrics.

perfbench/run.py ends with one JSON object that a reader parses from the
last line of the output.  A metric that reads NaN (a ratio of a zero
count, for one) is printed as a bare ``NaN``, which strict JSON rejects,
so every call a ratio counts must keep happening.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject(token):
    raise ValueError(f"not strict JSON: {token}")


@pytest.mark.parametrize("merged", [False, True],
                         ids=["stderr_apart", "stderr_merged"])
@pytest.mark.parametrize("workload,trace",
                         [("fixed", 1), ("fixed", 0), ("jets", 0)],
                         ids=["traced", "fixed", "jets"])
def test_benchmark_last_line_is_strict_json(workload, trace, merged):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if merged else subprocess.PIPE,
        text=True, timeout=300)
    assert proc.returncode == 0, (proc.stderr or "") + proc.stdout[-2000:]
    record = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert record["attempted"] > 0
    assert record["metrics"]
    bad = {name: m["value"] for name, m in record["metrics"].items()
           if not math.isfinite(m["value"])}
    assert not bad
