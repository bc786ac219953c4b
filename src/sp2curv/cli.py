"""Command line front end for the verification suites.

Five subcommands: ``oracle``, ``lemma1``, ``theorem1``, ``wilking`` run
the seeded experiment suites; ``classify`` canonicalizes a single
commuting plane given on the command line.  Reports are emitted as
JSON (default), CSV or plain text, to stdout or ``--out``.

Exit codes: 0 on success, 1 on a verification failure (the payload
then carries a witness with enough data to replay it through
``classify``), 2 on usage or configuration errors, including a
``classify`` input that does not commute and an ``--out`` path that
cannot be written (a missing directory is created).  A ``classify``
plane whose canonical reduction fails still gets its jet verdict; its
report then holds ``null`` canonical fields and the reason.

JSON payloads are versioned via ``schema_version`` and deterministic
for a fixed seed and configuration, except for the ``timing_seconds``
field.  Floats are serialized with ``repr``, which is lossless.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .algebra import SpElement
from .cartan import CanonicalizationError, canonicalize
from .curvature import TangentPlane, numerator_jet
from .metric import reference_deformation
from .experiments import (
    classify_plane,
    run_oracle_suite,
    verify_lemma1,
    verify_theorem1,
    verify_wilking,
)

SCHEMA_VERSION = 1

_USAGE_ERROR = 2


def _json_value(obj):
    """json.dumps' hook for numpy arrays and scalars (np.float64 is a float)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _stats(values):
    if len(values) == 0:
        return None
    a = np.asarray(values, dtype=float)
    return {
        "min": float(a.min()),
        "p05": float(np.percentile(a, 5)),
        "p50": float(np.percentile(a, 50)),
        "p95": float(np.percentile(a, 95)),
        "max": float(a.max()),
        "mean": float(a.mean()),
    }


def _null(value):
    """value, or None for the NaN of a measurement over an empty set."""
    return None if np.isnan(value) else value


def _vector(text: str) -> SpElement:
    """Parse a comma separated element; 10 finite reals, or 9 for the m part."""
    try:
        parts = [_finite(p) for p in text.replace(" ", "").split(",") if p]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"could not parse vector {text!r}: {exc}") from None
    if len(parts) == 9:
        parts = [0.0] + parts
    if len(parts) != 10:
        raise ValueError(
            f"expected 10 reals (lam,u,v,w) or 9 (u,v,w), got {len(parts)}")
    return SpElement.from_array(np.asarray(parts))


def _classify_arg(v) -> str:
    """A vector as a classify-ready argument string; repr is lossless."""
    return ",".join(repr(float(t)) for t in v)


def _witness(seed, index, x, y):
    """Replayable failure record; the strings feed classify directly."""
    return {
        "seed": seed,
        "sample_index": index,
        "x": [float(t) for t in x],
        "y": [float(t) for t in y],
        "classify_args": [_classify_arg(x), _classify_arg(y)],
    }


# ---------------------------------------------------------------------------
# subcommand runners: each returns (results, summary, rows, passed)
# where rows is the flat table used by the csv format, iterated once.
# ---------------------------------------------------------------------------


def _tol(cfg, keyword: str) -> dict:
    """The suite's ``keyword`` set to --tol, or nothing without --tol, so
    each default tolerance lives only with its suite."""
    return {} if cfg.tol is None else {keyword: cfg.tol}


def _run_oracle(cfg):
    report = run_oracle_suite(cfg.seed, cfg.samples, **_tol(cfg, "tol"))
    results = {
        "samples": report.samples,
        "max_bracket_error": report.max_bracket_error,
        "inner_ratio": report.inner_ratio,
        "inner_ratio_spread": report.inner_ratio_spread,
    }
    summary = dict(results)
    header = ["samples", "max_bracket_error", "inner_ratio",
              "inner_ratio_spread", "passed"]
    rows = [[report.samples, report.max_bracket_error, report.inner_ratio,
             report.inner_ratio_spread, report.passed]]
    return results, summary, (header, rows), report.passed


def _run_lemma1(cfg):
    report = verify_lemma1(
        cfg.seed, cfg.samples, draw="adversarial" if cfg.adversarial else cfg.family,
        **_tol(cfg, "c2_tol"))
    generic_c2 = [v.c2 for v in report.verdicts
                  if v.classification == "GENERIC_POSITIVE"]
    special_c2 = [abs(v.c2) for v in report.verdicts if v.special_orbit]
    special_c3 = [abs(v.c3) for v in report.verdicts if v.special_orbit]
    results = {
        "samples": report.samples,
        "family_counts": report.family_counts,
        "classification_counts": report.classification_counts,
        "kind_counts": report.kind_counts,
        "violations": [
            {
                "plane_id": v.plane_id,
                "family": v.family,
                "kind": v.kind,
                "special_orbit": v.special_orbit,
                "orbit_distance": v.orbit_distance,
                "c2": v.c2,
                "c3": v.c3,
                "witness": _witness(cfg.seed, v.plane_id, v.x, v.y),
            }
            for v in report.violations
        ],
    }
    summary = {
        "generic_c2": _stats(generic_c2),
        "special_abs_c2": _stats(special_c2),
        "special_abs_c3": _stats(special_c3),
        "max_special_c3_unit_defect": report.max_special_c3_defect,
        "min_generic_orbit_distance": _null(report.min_generic_orbit_distance),
        "max_special_orbit_distance": _null(report.max_special_orbit_distance),
        "violation_count": len(report.violations),
    }
    # The x and y columns are classify-ready argument strings, so any
    # row can be replayed verbatim.  The rows are a generator: only the
    # csv format reads them.
    header = ["plane_id", "family", "kind", "special_orbit",
              "orbit_distance", "c2", "c3", "classification", "x", "y"]
    rows = ([v.plane_id, v.family, v.kind, v.special_orbit,
             v.orbit_distance, v.c2, v.c3, v.classification,
             _classify_arg(v.x), _classify_arg(v.y)]
            for v in report.verdicts)
    return results, summary, (header, rows), report.passed


def _run_theorem1(cfg):
    report = verify_theorem1(cfg.seed, cfg.samples, cfg.t_values,
                             **_tol(cfg, "pos_tol"))
    results = {
        "samples": report.samples,
        "sigma": report.sigma,
        "cubic_coefficient": report.cubic_coefficient,
        "scans": [
            {
                "t": s.t,
                "min_k": s.min_k,
                "argmin_plane": s.argmin_plane,
                "argmin_x": _classify_arg(s.x),
                "argmin_y": _classify_arg(s.y),
                "min_k_over_t2": s.min_k_over_t2,
                "min_k_over_t3": s.min_k_over_t3,
                "positive": s.positive,
            }
            for s in report.scans
        ],
        "opposite_sign": {
            "t": report.opposite_sign_t,
            "k_value": report.opposite_sign_k,
        },
        "frontier_t": report.frontier_t,
        "frontier": [
            {"t": t, "min_k": mk, "positive": pos}
            for t, mk, pos in report.frontier
        ],
    }
    summary = {
        "sigma": report.sigma,
        "margin_curve": [
            {"t": s.t, "min_k_over_t2": s.min_k_over_t2,
             "min_k_over_t3": s.min_k_over_t3}
            for s in report.scans
        ],
        "opposite_sign_k": report.opposite_sign_k,
        "frontier_t": report.frontier_t,
    }
    header = ["t", "min_k", "argmin_plane", "min_k_over_t2",
              "min_k_over_t3", "positive"]
    rows = [[s.t, s.min_k, s.argmin_plane, s.min_k_over_t2,
             s.min_k_over_t3, s.positive] for s in report.scans]
    return results, summary, (header, rows), report.passed


def _run_wilking(cfg):
    report = verify_wilking(cfg.seed, cfg.samples, **_tol(cfg, "tol"))
    k_values = [c.k_value for c in report.certificates]
    results = {
        "metrics": report.metrics,
        "case_counts": report.case_counts,
        "max_k_value": report.max_k_value,
        "max_commutator_residual": report.max_commutator_residual,
        "recheck_headroom": _null(report.recheck_headroom),
        "failures": [
            {
                "metric_index": i,
                "case_tag": c.case_tag,
                "k_value": c.k_value,
                "witness": _witness(cfg.seed, i, c.x, c.y),
            }
            for i, c in report.failures
        ],
    }
    summary = {
        "k_value": _stats(k_values),
        "case_counts": report.case_counts,
        "max_commutator_residual": report.max_commutator_residual,
        "failure_count": len(report.failures),
    }
    header = ["metric_index", "case_tag", "smallest_eigenvalue", "k_value",
              "numerator_value"]
    rows = [[i, c.case_tag, c.smallest_eigenvalue, c.k_value,
             c.numerator_value]
            for i, c in enumerate(report.certificates)]
    return results, summary, (header, rows), report.passed


def _run_classify(cfg):
    x, y = cfg.x, cfg.y
    plane = TangentPlane(x, y)
    try:
        c = canonicalize(x, y)
        results = {"family": c.family, "parameters": c.parameters,
                   "canonical_x": c.canonical_x.data,
                   "canonical_y": c.canonical_y.data,
                   "witness_angle": c.witness_angle,
                   "witness_matrix": c.witness_matrix}
    except CanonicalizationError as exc:
        # A plane the reduction cannot name still gets its jet verdict.
        results = dict.fromkeys(("family", "parameters", "canonical_x",
                                 "canonical_y", "witness_angle",
                                 "witness_matrix"))
        results["canonicalization_error"] = str(exc)
    label, special, distance, c2, c3 = classify_plane(plane, **_tol(cfg, "orbit_tol"))
    jet = numerator_jet(reference_deformation(), plane.orthonormalized())
    results.update({
        "special_orbit": special,
        "orbit_distance": distance,
        "jet": [float(jet[k]) for k in range(5)],
        "c2": c2,
        "c3": c3,
        "classification": label,
    })
    summary = {
        "family": results["family"],
        "classification": label,
        "special_orbit": special,
    }
    header = ["family", "classification", "special_orbit", "orbit_distance",
              "c2", "c3"]
    rows = [[results["family"], label, special, distance, c2, c3]]
    return results, summary, (header, rows), label != "VIOLATION"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=_json_value) + "\n"


def _render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _render_text(payload) -> str:
    lines = [
        f"sp2curv {payload['artifact']['version']}  command={payload['command']}"
        f"  schema_version={payload['schema_version']}",
    ]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, list):
            if len(obj) > 12:
                lines.append(f"{prefix[:-1]}: [{len(obj)} entries]")
            else:
                for i, v in enumerate(obj):
                    walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]} = {obj!r}")

    walk("", {"config": payload["config"]})
    walk("", {"summary": payload["summary"]})
    lines.append(f"result: {'PASS' if payload['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    """Write to stdout, or to ``out``, creating its directory if missing."""
    if out is None:
        sys.stdout.write(text)
    else:
        directory = os.path.dirname(out)
        if directory and not os.path.isdir(directory):
            os.makedirs(directory, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _finite(text: str) -> float:
    """A float argument that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A finite --tol at or above 0: a negative one passes failing checks."""
    if (value := _finite(text)) < 0.0:
        raise argparse.ArgumentTypeError(f"not a finite number >= 0: {text!r}")
    return value


def _parse_t_list(text: str):
    values = tuple(_finite(p) for p in text.split(",") if p.strip())
    if not values:
        raise argparse.ArgumentTypeError("empty t list")
    return values


def _common(sp, samples):
    sp.add_argument("--seed", type=int, default=0,
                    help="base seed for all sample streams")
    sp.add_argument("--samples", type=int, default=samples,
                    help=f"number of samples (default {samples})")
    sp.add_argument("--tol", type=_tolerance, default=None,
                    help="override the main tolerance of this command")
    sp.add_argument("--format", dest="fmt",
                    choices=("json", "csv", "text"), default="json")
    sp.add_argument("--out", default=None,
                    help="write the report to this path instead of stdout")


def _lemma1_arguments(p):
    _common(p, 10000)
    draw = p.add_mutually_exclusive_group()
    draw.add_argument("--family", choices=("F1", "F2", "F3", "F4"), default=None,
                      help="restrict sampling to one canonical family")
    draw.add_argument("--adversarial", action="store_true",
                      help="sample only orbit-adjacent planes")


def _theorem1_arguments(p):
    _common(p, 10000)
    p.add_argument("--t", type=_parse_t_list, default=(0.001, 0.01),
                   dest="t_values", metavar="T1,T2,...",
                   help="deformation magnitudes; the measured sign is applied")


def _classify_arguments(p):
    # argparse reads "-0.5" as a number but "-0.5,1,..." and "-inf,..." as
    # options; widened, a vector is positional wherever it stands, so a
    # leading "-inf" is reported as not finite.
    p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.I)
    p.add_argument("x", help="first spanning vector, comma separated reals")
    p.add_argument("y", help="second spanning vector, comma separated reals")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="distinguished orbit distance threshold")
    p.add_argument("--format", dest="fmt",
                   choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", default=None)


# name: (help, what adds the subcommand's arguments, its runner)
_SUBCOMMANDS = {
    "oracle": ("bracket and inner product vs the matrix model",
               lambda p: _common(p, 10000), _run_oracle),
    "lemma1": ("dichotomy over commuting planes",
               _lemma1_arguments, _run_lemma1),
    "theorem1": ("curvature positivity at small deformation times",
                 _theorem1_arguments, _run_theorem1),
    "wilking": ("nonpositive planes for random homogeneous metrics",
                lambda p: _common(p, 1000), _run_wilking),
    "classify": ("canonicalize one commuting plane",
                 _classify_arguments, _run_classify),
}


def build_parser() -> argparse.ArgumentParser:
    """A new sp2curv parser."""
    parser = argparse.ArgumentParser(
        prog="sp2curv",
        description="Curvature verification suites for the deformed "
                    "homogeneous metrics on Sp(2)/U(1).")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_arguments, _) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_))
    return parser


# parse_args leaves a parser as it was, so it is built once per process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    config = {"command": args.command, "tol": args.tol, "format": args.fmt}
    if args.command == "classify":
        try:
            args.x = _vector(args.x)
            args.y = _vector(args.y)
        except ValueError as exc:
            parser.exit(_USAGE_ERROR, f"sp2curv: error: {exc}\n")
        config["x"] = [float(t) for t in args.x.data]
        config["y"] = [float(t) for t in args.y.data]
    else:
        if args.samples < 1:
            parser.exit(_USAGE_ERROR,
                        "sp2curv: error: --samples must be positive\n")
        config["seed"] = args.seed
        config["samples"] = args.samples
        if args.command == "lemma1":
            config["family"] = args.family
            config["adversarial"] = args.adversarial
        if args.command == "theorem1":
            config["t_values"] = list(args.t_values)

    start = time.perf_counter()
    try:
        results, summary, (header, rows), passed = _SUBCOMMANDS[args.command][2](args)
    except ValueError as exc:
        parser.exit(_USAGE_ERROR, f"sp2curv: error: {exc}\n")
    elapsed = time.perf_counter() - start

    payload = {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "sp2curv", "version": __version__},
        "command": args.command,
        "config": config,
        "results": results,
        "summary": summary,
        "passed": passed,
        "timing_seconds": elapsed,
    }
    if args.fmt == "json":
        text = _render_json(payload)
    elif args.fmt == "csv":
        text = _render_csv(header, rows)
    else:
        text = _render_text(payload)
    try:
        _emit(text, args.out)
    except OSError as exc:
        parser.exit(_USAGE_ERROR, f"sp2curv: error: {exc}\n")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
