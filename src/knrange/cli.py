"""Command-line front end.

Subcommands:
  range    compute the W_k support profile of a matrix file (CSV/SVG/JSON)
  verify   verify a linear map (map file or canonical descriptor) and, on
           pass, classify it, printing the report JSON
  suite    run the full check battery for a shape and write artifacts

Exit codes: 0 success/pass, 1 valid run with a failing verdict, 2 usage or
parse error. All randomness is seeded; the default seed is DEFAULT_SEED so
repeated runs with the same flags are reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import checks, classify
from .matcore import BipartiteShape, is_hermitian, load_matrix, save_matrix
from .maps import build_canonical, descriptor_from_payload, map_from_payload
from .ranges import (
    krange_hermitian,
    krange_profile,
    profile_csv,
    profile_svg,
    profile_to_payload,
)

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class CliConfig:
    """Validated flags shared by the subcommands; shape checks happen here."""

    command: str
    input_path: str | None
    m: int | None
    n: int | None
    k: int | None
    num_angles: int
    tol: float
    trials: int
    seed: int
    out: str | None
    format: str

    def __post_init__(self):
        if self.num_angles < 8:
            raise ValueError("--angles must be >= 8")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"--tol must be finite and positive, got {self.tol}")
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if self.m is not None and self.n is not None and self.k is not None:
            BipartiteShape(m=self.m, n=self.n, k=self.k)  # re-validate at parse time

    def shape(self) -> BipartiteShape:
        if self.m is None or self.n is None or self.k is None:
            raise ValueError("this command needs --m, --n and --k")
        return BipartiteShape(m=self.m, n=self.n, k=self.k)


def _config_from_args(args) -> CliConfig:
    return CliConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        m=getattr(args, "m", None),
        n=getattr(args, "n", None),
        k=getattr(args, "k", None),
        num_angles=getattr(args, "angles", 360),
        tol=getattr(args, "tol", 1e-8),
        trials=getattr(args, "trials", 50),
        seed=getattr(args, "seed", DEFAULT_SEED),
        out=getattr(args, "out", None),
        format=getattr(args, "format", "csv"),
    )


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_range(cfg: CliConfig) -> int:
    matrix = load_matrix(cfg.input_path)
    if cfg.k is None:
        raise ValueError("range needs --k")
    profile = krange_profile(matrix, cfg.k, cfg.num_angles)
    if is_hermitian(matrix):
        interval = krange_hermitian(matrix, cfg.k)
        print(f"Hermitian input: W_{cfg.k} = [{interval.lo:.12g}, {interval.hi:.12g}]")
    if cfg.format == "csv":
        _write_or_print(profile_csv(profile), cfg.out)
    elif cfg.format == "svg":
        _write_or_print(profile_svg(profile), cfg.out)
    else:
        _write_or_print(json.dumps(profile_to_payload(profile), indent=2) + "\n", cfg.out)
    return 0


def _load_map_input(cfg: CliConfig):
    with open(cfg.input_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{cfg.input_path}: expected a JSON object")
    if "varphi" in payload:
        return build_canonical(descriptor_from_payload(payload, cfg.shape()))
    phi = map_from_payload(payload)
    for flag, declared in (("m", cfg.m), ("n", cfg.n), ("k", cfg.k)):
        if declared is not None and declared != getattr(phi.shape, flag):
            raise ValueError(
                f"--{flag}={declared} conflicts with the map file's "
                f"{flag}={getattr(phi.shape, flag)}"
            )
    return phi


def _cmd_verify(cfg: CliConfig) -> int:
    phi = _load_map_input(cfg)
    report = classify.verify_preserver(
        phi, trials=cfg.trials, num_angles=cfg.num_angles, tol=cfg.tol, seed=cfg.seed
    )
    payload = {"verification": classify.verification_to_payload(report)}
    ok = report.passed
    if ok:
        cls = classify.classify_preserver(phi, tol=cfg.tol)
        payload["classification"] = classify.classification_to_payload(cls)
        ok = cls.verdict == "classified"
    _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0 if ok else 1


def _cmd_suite(cfg: CliConfig) -> int:
    shape = cfg.shape()
    items = checks.preserver_suite(
        shape, seed=cfg.seed, trials=cfg.trials, num_angles=cfg.num_angles, tol=cfg.tol
    )
    out_dir = cfg.out or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "suite_summary.json"), "w", encoding="utf-8") as fh:
        fh.write(checks.suite_json(items) + "\n")
    if shape.m >= 3 and shape.n >= 3:
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
    p_range.add_argument("--angles", type=int, default=360)
    p_range.add_argument("--out", default=None, help="output path (default: stdout)")
    p_range.add_argument("--format", choices=("csv", "svg", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="verify and classify a linear map")
    p_verify.add_argument("input", help="map JSON file or canonical descriptor JSON file")
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--angles", type=int, default=360)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", default=None, help="report path (default: stdout)")

    p_suite = sub.add_parser("suite", help="run the full check battery for one shape")
    p_suite.add_argument("--m", type=int, required=True)
    p_suite.add_argument("--n", type=int, required=True)
    p_suite.add_argument("--k", type=int, required=True)
    p_suite.add_argument("--angles", type=int, default=360)
    p_suite.add_argument("--tol", type=float, default=1e-8)
    p_suite.add_argument("--trials", type=int, default=20)
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
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
