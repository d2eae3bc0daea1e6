"""Command-line front end.

Subcommands:
  range    compute the W_k support profile of a matrix file (CSV/SVG/JSON);
           for a Hermitian input the W_k interval goes to stderr, so stdout
           carries only the profile
  verify   verify a linear map (map file or canonical descriptor) and, on
           pass, classify it, printing the report JSON
  suite    run the full check battery for a shape and write artifacts

Exit codes: 0 success/pass, 1 valid run with a failing verdict, 2 usage or
parse error (an argparse error, an OSError, or matcore.UsageError: a flag
value, or an input file that is not UTF-8 JSON or not a valid payload), 3
the run could not complete (a LAPACK routine did not converge,
np.linalg.LinAlgError; an allocation failed, MemoryError; or any other
exception, ValueError included, an internal error named by its type and
its innermost traceback frame); 2 and 3 print one "error:" line. Flag values
but --seed (checked here, >= 0) are checked by the library calls they feed,
which raise UsageError before any output is written; the counts --angles
and --trials are bounded there too (ranges.MAX_NUM_ANGLES,
classify.MAX_TRIALS). Flag defaults are the library's own. All randomness
is seeded; the default seed is DEFAULT_SEED so repeated runs with the same
flags are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys
import traceback

import numpy as np

from . import checks, classify
from .matcore import (
    BipartiteShape,
    UsageError,
    _check_int,
    _load_json,
    is_hermitian,
    load_matrix,
    save_matrix,
)
from .maps import (
    DESCRIPTOR_KEYS,
    MAP_KEYS,
    build_canonical,
    descriptor_from_payload,
    map_from_payload,
)
from .ranges import (
    DEFAULT_NUM_ANGLES,
    DEFAULT_RTOL,
    krange_profile,
    profile_csv,
    profile_svg,
    profile_to_payload,
)

DEFAULT_SEED = 12345


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_range(args) -> int:
    matrix = load_matrix(args.input)
    profile = krange_profile(matrix, args.k, args.angles)
    if is_hermitian(matrix):
        # W_k is then the real interval between the points of the two top-k
        # frames of one eigenbasis, which are the profile's boundary points.
        points = profile.boundary.real
        print(
            f"Hermitian input: W_{args.k} = [{points.min():.12g}, {points.max():.12g}]",
            file=sys.stderr,
        )
    if args.format == "csv":
        _write_or_print(profile_csv(profile), args.out)
    elif args.format == "svg":
        _write_or_print(profile_svg(profile), args.out)
    else:
        _write_or_print(json.dumps(profile_to_payload(profile), indent=2) + "\n", args.out)
    return 0


def _load_map_input(args):
    payload = _load_json(args.input)
    if not isinstance(payload, dict):
        raise UsageError(f"{args.input}: expected a JSON object")
    if "varphi" in payload:
        missing = [f"--{flag}" for flag in ("m", "n", "k") if getattr(args, flag) is None]
        if missing:
            raise UsageError(f"{args.input}: a canonical descriptor needs --m, --n and --k; "
                             f"missing {', '.join(missing)}")
        shape = BipartiteShape(m=args.m, n=args.n, k=args.k)
        return build_canonical(descriptor_from_payload(payload, shape))
    if not payload.keys() & {"m", "n", "k"}:  # a matrix file, say, has none of them
        raise UsageError(
            f"{args.input}: verify expects a map file (keys {', '.join(MAP_KEYS)}) or a "
            f"canonical descriptor file (keys {', '.join(DESCRIPTOR_KEYS)}), got keys "
            f"{reprlib.repr(list(payload))}"
        )
    phi = map_from_payload(payload)
    for flag, declared in (("m", args.m), ("n", args.n), ("k", args.k)):
        if declared is not None and declared != getattr(phi.shape, flag):
            raise UsageError(
                f"--{flag}={declared} conflicts with the map file's "
                f"{flag}={getattr(phi.shape, flag)}"
            )
    return phi


def _cmd_verify(args) -> int:
    _check_int("seed", args.seed, 0)
    phi = _load_map_input(args)
    report = classify.verify_preserver(
        phi, trials=args.trials, num_angles=args.angles, tol=args.tol, seed=args.seed
    )
    payload = {"verification": classify.verification_to_payload(report)}
    ok = report.passed
    if ok:
        cls = classify.classify_preserver(phi, tol=args.tol)
        payload["classification"] = classify.classification_to_payload(cls)
        ok = cls.verdict == "classified"
    _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if ok else 1


def _cmd_suite(args) -> int:
    _check_int("seed", args.seed, 0)
    shape = BipartiteShape(m=args.m, n=args.n, k=args.k)
    items = checks.preserver_suite(
        shape, seed=args.seed, trials=args.trials, num_angles=args.angles, tol=args.tol
    )
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "suite_summary.json"), "w", encoding="utf-8") as fh:
        fh.write(checks.suite_json(items) + "\n")
    if shape.has_counterexample:
        a, b = checks.counterexample_matrices(shape.m, shape.n)
        save_matrix(a, os.path.join(out_dir, "counterexample_a.json"))
        save_matrix(b, os.path.join(out_dir, "counterexample_b.json"))
    for item in items:
        print(f"[{'PASS' if item.passed else 'FAIL'}] {item.name}")
    return 0 if checks.suite_passed(items) else 1


_COMMANDS = {"range": _cmd_range, "verify": _cmd_verify, "suite": _cmd_suite}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knrange",
        description="k-numerical ranges and the linear maps preserving them on tensor products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_range = sub.add_parser("range", help="support profile of W_k for a matrix file")
    p_range.add_argument("input", help="matrix JSON file")
    p_range.add_argument("--k", type=int, required=True)
    p_range.add_argument("--angles", type=int, default=DEFAULT_NUM_ANGLES)
    p_range.add_argument("--out", default=None, help="output path (default: stdout)")
    p_range.add_argument("--format", choices=("csv", "svg", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="verify and classify a linear map")
    p_verify.add_argument("input", help="map JSON file or canonical descriptor JSON file")
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--angles", type=int, default=DEFAULT_NUM_ANGLES)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_RTOL)
    p_verify.add_argument("--trials", type=int, default=classify.DEFAULT_TRIALS)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", default=None, help="report path (default: stdout)")

    p_suite = sub.add_parser("suite", help="run the full check battery for one shape")
    p_suite.add_argument("--m", type=int, required=True)
    p_suite.add_argument("--n", type=int, required=True)
    p_suite.add_argument("--k", type=int, required=True)
    p_suite.add_argument("--angles", type=int, default=DEFAULT_NUM_ANGLES)
    p_suite.add_argument("--tol", type=float, default=DEFAULT_RTOL)
    p_suite.add_argument("--trials", type=int, default=checks.DEFAULT_SUITE_TRIALS)
    p_suite.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_suite.add_argument("--out", default=None, help="output directory (default: cwd)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except np.linalg.LinAlgError as exc:  # a solve that did not converge
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # no verdict was reached, so not exit 1
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"error: internal error: {exc!r} at {frame.filename}:{frame.lineno} in {frame.name}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
