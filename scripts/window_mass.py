#!/usr/bin/env python3
"""`cubesquares arcs --window-mass` at N = P^6; its JSON goes to a temporary directory.

Every flag but --P passes to the subcommand.  The `window` benchmark runs
this script, until ROADMAP item 5 points that workload at the subcommand.
"""

import argparse
import sys
import tempfile

from cubesquares.cli import main, positive_int

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--P", type=positive_int, default=27, help="scale parameter (N = P^6)")
    args, rest = ap.parse_known_args()
    with tempfile.TemporaryDirectory() as out:
        code = main(["arcs", "--window-mass", "--N", str(args.P**6), *rest, "--out", out])
    sys.exit(code)
