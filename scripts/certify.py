#!/usr/bin/env python3
"""Sweep the certification suites over a range of shapes and print a summary.

Usage: python scripts/certify.py [MAX_SITES] [--full]

MAX_SITES bounds r+s (default 4).  With --full each shape also runs the
identity battery, the proof-lemma suite and the exponent sweep; without it
only the idempotent-system check runs.
"""

import sys
import time

from wba.diagrams import Shape
from wba.verify import check_system, full_report


def main(argv):
    max_sites = 4
    full = "--full" in argv
    numeric = [a for a in argv if not a.startswith("-")]
    if numeric:
        max_sites = int(numeric[0])
    failures = 0
    for n in range(2, max_sites + 1):
        for r in range(1, n):
            shape = Shape(r, n - r)
            t0 = time.perf_counter()
            if full:
                report = full_report(shape)
            else:
                report = check_system(shape, cross_check=False)
            status = "ok" if report.ok else "FAIL"
            failures += not report.ok
            print(
                f"({r},{n - r}): {status}  tableaux={len(report.tableaux)} "
                f"pairs={report.orthogonality_pairs}  {time.perf_counter() - t0:.1f}s"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
