#!/usr/bin/env python3
"""Render the counterexample ranges: W_k(A x B) vs W_k(A x B^t).

Writes CSV and SVG profiles for both tensor products at the requested k
values and prints the support gap at angle 0, showing the two ranges are
genuinely different sets for every k.

Usage:
    python scripts/render_counterexample.py --m 3 --n 3 --out counterexample_out
"""

from __future__ import annotations

import argparse
import os
import sys

from knrange.checks import counterexample_matrices
from knrange.matcore import kron
from knrange.ranges import DEFAULT_NUM_ANGLES, krange_profile, profile_csv, profile_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--k", type=int, nargs="*", default=None,
                        help="k values to render (default: all of 1..mn-1)")
    parser.add_argument("--angles", type=int, default=DEFAULT_NUM_ANGLES)
    parser.add_argument("--out", default="counterexample_out")
    args = parser.parse_args()

    a, b = counterexample_matrices(args.m, args.n)
    ab = kron(a, b)
    abt = kron(a, b.T)
    ks = args.k or list(range(1, args.m * args.n))
    os.makedirs(args.out, exist_ok=True)

    for k in ks:
        p1 = krange_profile(ab, k, args.angles)
        p2 = krange_profile(abt, k, args.angles)
        for label, profile in (("ab", p1), ("abt", p2)):
            base = os.path.join(args.out, f"{label}_k{k}")
            for ext, text in ((".csv", profile_csv(profile)), (".svg", profile_svg(profile))):
                with open(base + ext, "w", encoding="utf-8") as fh:
                    fh.write(text)
        gap = abs(p1.support[0] - p2.support[0])
        print(f"k={k}: support gap at angle 0 = {gap:.6f}")
    print(f"profiles written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
