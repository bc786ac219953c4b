"""Print one SHA-256 per report, so that two trees can be compared byte for byte.

Run it from the root of each checkout, on one machine, and diff the outputs:

    python3 tests/report_digest.py > digests.txt

A JSON report is hashed as the command prints it, less its
``timing_seconds``; a CSV report as printed; a suite's report as its repr,
less ``elapsed_seconds``.  The ``classify`` line covers the 50 replay
planes of the benchmark's ``jets`` workload, one report each.  The
``canonicalize`` line covers the first 1,000 default-mix planes of the
seed, raw and orthonormalized: the family, the parameter names and the
bits of the parameters, witness angle and witness matrix, or the message
of what the call raised.  No digest is
committed: numpy's BLAS picks its kernels per CPU, so two machines need
not agree.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

from sp2curv import cartan, cli, experiments  # noqa: E402
from perfbench.workloads import replay_planes  # noqa: E402


def _command(argv) -> str:
    """The exit code and report of one ``sp2curv`` command, as text."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    text = out.getvalue()
    if "--format" not in argv:
        payload = json.loads(text)
        del payload["timing_seconds"]
        text = json.dumps(payload, sort_keys=True, indent=2)
    return f"{code}\n{text}"


def _canonicalize(seed: int) -> str:
    """canonicalize on the seed's first 1,000 default-mix planes, as text."""
    lines = []
    for i in range(1000):
        plane, _, _ = experiments.sample_commuting_plane(seed, i)
        for p in (plane, plane.orthonormalized()):
            try:
                c = cartan.canonicalize(p.x, p.y)
            except (ValueError, cartan.CanonicalizationError) as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
                continue
            names = sorted(c.parameters)
            values = np.hstack([*(c.parameters[k] for k in names),
                                c.witness_angle, c.witness_matrix.ravel()])
            lines.append(" ".join([c.family, *names, values.tobytes().hex()]))
    return "\n".join(lines)


def _runs(seed: int):
    s = str(seed)
    yield "lemma1", _command(["lemma1", "--seed", s, "--samples", "160"])
    yield "lemma1-csv", _command(["lemma1", "--seed", s, "--samples", "160",
                                  "--format", "csv"])
    yield "lemma1-adversarial", _command(["lemma1", "--seed", s, "--samples", "300",
                                          "--adversarial"])
    yield "theorem1", _command(["theorem1", "--seed", s, "--samples", "120"])
    yield "wilking", _command(["wilking", "--seed", s, "--samples", "125"])
    yield "oracle", _command(["oracle", "--seed", s, "--samples", "1250"])
    yield "lemma0", repr(experiments.run_lemma0_suite(seed, 160)._replace(
        elapsed_seconds=None))
    yield "baseline", repr(experiments.run_baseline_suite(seed, 120)._replace(
        elapsed_seconds=None))
    api = SimpleNamespace(experiments=experiments)
    yield "classify", "".join(_command(["classify", x, y])
                              for x, y in replay_planes(api, seed))
    yield "canonicalize", _canonicalize(seed)


def main() -> None:
    runs = [(seed, name, text) for seed in range(3) for name, text in _runs(seed)]
    runs.append((0, "lemma1-10000",
                 _command(["lemma1", "--seed", "0", "--samples", "10000"])))
    for seed, name, text in runs:
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"seed {seed} {name:<20} {digest}")


if __name__ == "__main__":
    main()
