#!/usr/bin/env python3
"""Compare the exact representation mass over [N/2, N] with the model density.

The exact side sums R(n) over the window by one sweep of the bulk squares
per thin pair sum.  The predicted side samples S(n; Q) * J(n) on a deterministic stride
and multiplies the mean by the window length.  At small scales the thin
leading interval holds very few integers, so the continuous model undercounts
by roughly (interval length)^-2; the ratio printed here quantifies that
finite-size gap.  P = 27 is the smallest scale with a near-unit thin interval
and a two-prime window.
"""

import argparse
import sys
import time

from cubesquares.cli import modulus, positive_int
from cubesquares.errors import DegenerateParamsError
from cubesquares.scale import Scale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--P", type=positive_int, default=27, help="scale parameter (N = P^6)")
    ap.add_argument("--Q", type=modulus, default=64, help="series truncation")
    ap.add_argument(
        "--samples",
        type=positive_int,
        default=32,
        help="number of n sampled on a stride in the window (the stride aliases with S(n), see ROADMAP item 1; "
        "kept because the `window` benchmark runs this script with --samples 2 and checks S and J at those n)",
    )
    args = ap.parse_args()

    scale = Scale(args.P**6)
    try:
        pp = scale.params
    except DegenerateParamsError as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return 4
    thin = list(pp.thin.leading)
    print(f"P={pp.P}  N={pp.N}  thin leading integers: {thin}  interval length {pp.thin.hi - pp.thin.lo:.4f}")
    if not thin:
        print("thin interval holds no integer at this scale; the exact mass is zero")
        return 1

    lo, hi = pp.N // 2, pp.N
    mass = scale.rn.window_mass(lo, hi)
    print(f"exact window mass sum R(n), n in [{lo}, {hi}]: {mass}")

    t0 = time.perf_counter()
    pred_mass = scale.predicted_window_mass(lo, hi, args.samples, args.Q)
    ratio = mass / pred_mass if pred_mass > 0 else float("inf")
    print(f"predicted mass: {pred_mass:.1f}  (mean term {pred_mass / (hi - lo):.6g}, {args.samples} samples, {time.perf_counter() - t0:.2f}s)")
    print(f"ratio exact/predicted: {ratio:.3f}")
    return 0 if 0.1 <= ratio <= 10.0 else 1


if __name__ == "__main__":
    sys.exit(main())
