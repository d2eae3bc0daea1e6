#!/usr/bin/env python3
"""Byte corpus of knrange's outputs: one SHA-256 digest per output, keyed.

Covers, at the shapes SHAPES:
  verify/<shape>/<form>/T<trials>A<angles>
      the verify_preserver payload and decided_by, for every canonical form
      (a Haar unitary seeded by the form's index) and one random map (a
      falsifier draw, form "random"), at each (trials, angles) of SETTINGS;
  falsify/<shape>
      the falsify_random summary of FALSIFY_COUNT maps;
  suite/<shape>
      the preserver_suite JSON, at SUITE_SHAPES;
  range/<name>
      the CSV of one `knrange range` run.

A JSON float is written as its shortest round-trip repr, so two digests are
equal exactly when the outputs are bitwise equal. Shapes with d^2 = (mn)^2
of 225 are left out: apply_map_batch's product does not keep its bits
across BLAS thread counts there.

Usage:
    python scripts/corpus.py                 # print "<digest>  <key>" lines
    python scripts/corpus.py --write         # rewrite scripts/corpus.sha256
    python scripts/corpus.py --check         # compare with it; exit 1 on a difference
    python scripts/corpus.py --match REGEX   # only the keys REGEX finds
    python scripts/corpus.py --dump FILE     # also write each output, as JSON lines
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

from knrange import checks, classify, cli
from knrange.maps import CanonicalFormSpec, build_canonical, canonical_forms, map_from_choi
from knrange.matcore import BipartiteShape, random_complex, random_haar_unitary, save_matrix

SHAPES = [(2, 2, 1), (2, 2, 2), (2, 3, 3), (2, 4, 3), (3, 3, 2), (3, 3, 4), (3, 4, 6), (4, 4, 8)]
SETTINGS = [(1, 120), (3, 361), (20, 90), (50, 360)]  # (trials, num_angles)
SUITE_SHAPES = [(3, 3, 2), (2, 3, 3)]
FALSIFY_COUNT = 3
SEED = 7
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.sha256")


def _shape_key(shape: BipartiteShape) -> str:
    return f"{shape.m}x{shape.n}k{shape.k}"


def _json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def _verify_entries(shape: BipartiteShape, match):
    maps = []
    for i, (tag, affine) in enumerate(canonical_forms(shape)):
        u = random_haar_unitary(shape.dim, SEED + i)
        name = f"{tag}+affine" if affine else tag
        maps.append((name, lambda u=u, tag=tag, affine=affine:
                     build_canonical(CanonicalFormSpec(tag, u, affine, shape))))
    rng = np.random.default_rng(SEED + shape.dim)
    maps.append(("random", lambda: map_from_choi(classify._random_constrained_choi(shape, rng),
                                                 shape)))
    for name, build in maps:
        phi = None
        for trials, num_angles in SETTINGS:
            key = f"verify/{_shape_key(shape)}/{name}/T{trials}A{num_angles}"
            if not match(key):
                continue
            if phi is None:
                phi = build()
            report = classify.verify_preserver(phi, trials=trials, num_angles=num_angles,
                                               seed=SEED)
            yield key, _json({"decided_by": report.decided_by,
                              "report": classify.verification_to_payload(report)})


def _range_entry(match):
    key = "range/ginibre12-k5-A361"
    if not match(key):
        return
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "a.json"), os.path.join(tmp, "profile.csv")
        save_matrix(random_complex(12, SEED), src)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["range", src, "--k", "5", "--angles", "361", "--out", out])
        with open(out, "rb") as fh:
            yield key, code.to_bytes(1, "big") + fh.read()


def entries(match=lambda key: True):
    """(key, output bytes) for every corpus entry whose key `match` accepts."""
    for mnk in SHAPES:
        shape = BipartiteShape(*mnk)
        yield from _verify_entries(shape, match)
        key = f"falsify/{_shape_key(shape)}"
        if match(key):
            summary = classify.falsify_random(shape, FALSIFY_COUNT, seed=SEED)
            yield key, _json(classify.falsify_to_payload(summary))
    for mnk in SUITE_SHAPES:
        key = f"suite/{_shape_key(BipartiteShape(*mnk))}"
        if match(key):
            items = checks.preserver_suite(BipartiteShape(*mnk), seed=SEED)
            yield key, checks.suite_json(items).encode()
    yield from _range_entry(match)


def read_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return {key: digest for digest, key in (line.split(None, 1) for line in fh.read().splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS}")
    action.add_argument("--check", action="store_true", help=f"compare with {DIGESTS}")
    parser.add_argument("--match", default="", help="regex: only the keys it finds")
    parser.add_argument("--dump", default=None, help="write each output to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.write and args.match:
        parser.error("--write rewrites the whole corpus; drop --match")

    pattern = re.compile(args.match)
    got = {}
    dump = open(args.dump, "w", encoding="utf-8") if args.dump else None
    for key, data in entries(lambda key: pattern.search(key) is not None):
        got[key] = hashlib.sha256(data).hexdigest()
        if dump:
            dump.write(json.dumps({"key": key, "output": data.decode("latin-1")}) + "\n")
    if dump:
        dump.close()
    lines = [f"{digest}  {key}" for key, digest in got.items()]
    if args.write:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0
    if args.check:
        want = read_digests()
        differ = [key for key in got if want.get(key) != got[key]]
        for key in differ:
            print(f"differs: {key}")
        print(f"{len(got) - len(differ)} of {len(got)} entries match")
        return 1 if differ else 0
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
