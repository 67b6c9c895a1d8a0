#!/usr/bin/env python3
"""Sweep the pointwise data-vs-model residual F over a grid of alpha.

For each alpha the script records |h|, |W|, the arc membership, and the
residual F = h^2 W^2 - (model h)^2 (model W)^2.  On the arcs the model should
track the data; off the arcs the model is zero by construction, so |F| there
is just |h W|^2.  Output is a TSV ready for plotting.
"""

import argparse
import sys
from fractions import Fraction

from cubesquares.arcs import ArcDissection
from cubesquares.cli import positive_int
from cubesquares.errors import DegenerateParamsError
from cubesquares.generating import F_diagnostic
from cubesquares.scale import Scale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--P", type=positive_int, default=8, help="scale parameter (N = P^6)")
    ap.add_argument("--points", type=positive_int, default=200, help="alpha grid size")
    ap.add_argument(
        "--denominator", type=positive_int, default=1009, help="alpha grid denominator (prime keeps fractions exact)"
    )
    ap.add_argument("--wide", action="store_true", help="use the wide dissection instead of the narrow one")
    ap.add_argument("--out", default="-", help="output TSV path, - for stdout")
    args = ap.parse_args()

    try:
        scale = Scale(args.P**6)
        P, N = scale.params.P, scale.N
        d = ArcDissection.wide(P, N) if args.wide else ArcDissection.narrow(P, N)
    except DegenerateParamsError as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return 4
    try:
        fh = sys.stdout if args.out == "-" else open(args.out, "w")
    except OSError as e:
        print(f"bad configuration: --out {args.out}: {e}", file=sys.stderr)
        return 4

    try:
        fh.write("alpha\tabs_h\tabs_W\ton_arc\tabs_F\n")
        for i in range(args.points):
            alpha = Fraction(i * args.denominator // args.points % args.denominator, args.denominator)
            diag = F_diagnostic(alpha, scale, d)
            row = (float(alpha), abs(diag.h), abs(diag.W), int(diag.on_arc), abs(diag.F))
            fh.write("\t".join(f"{x:.6g}" for x in row) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()
    if fh is not sys.stdout:
        print(f"wrote {args.out} ({args.points} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
