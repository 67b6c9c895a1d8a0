#!/usr/bin/env python3
"""Run the full acceptance suite and exit nonzero if any criterion fails."""

import sys

from cubesquares.acceptance import run_all


def main() -> int:
    results = run_all()
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
