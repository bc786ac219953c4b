"""Record the verdict references that the benchmark checks runs against.

    python3 perfbench/record_reference.py

Runs one pass of every workload, and its probes, for each seed in
``SEEDS`` and writes the verdict fields of every operation to
``perfbench/reference/``.
Re-record only when a change is meant to alter verdicts, and say so.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, OpFailed, build_probes

SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        by_seed = {}
        for seed in SEEDS:
            api, ops, _ = run.setup(workload, seed)
            ops += build_probes(api, workload, seed, run.report_prefix(workload))
            verdicts = []
            for i, op in enumerate(ops):
                try:
                    verdict = op.verdict(op.run())
                except OpFailed as exc:
                    print(f"{workload} seed {seed} op {i}: {exc}", file=sys.stderr)
                    return 1
                verdicts.append({k: verdict[k] for k in ("exact", "margins")
                                 if verdict[k]})
            by_seed[str(seed)] = verdicts
        # One line per seed keeps the files small and their diffs readable.
        lines = [f"{json.dumps(seed)}:{json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                 for seed, v in by_seed.items()]
        path = run.REFERENCE_DIR / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
