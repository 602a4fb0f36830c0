#!/usr/bin/env python3
"""Print a digest of every idempotent by every procedure, to compare builds.

Usage: python scripts/digests.py [MAX_SITES]

For every shape (r, s) with 1 <= r + s <= MAX_SITES (default 4) and every
tableau of it, in enumeration order, prints one line per procedure (first,
second_fwd, second_mirror, interp):

    r s tableau procedure sha256

where sha256 is the digest of the element's JSON wire form
(`element_to_json`, keys sorted).  Two builds that print the same lines
computed the same elements; `diff` the outputs to find the first that moved.
"""

import hashlib
import json
import sys

from wba.algebra import element_to_json
from wba.diagrams import Shape
from wba.fusion import idempotent_by
from wba.tableaux import enumerate_tableaux

# name -> (method, variant) of fusion.idempotent_by
PROCEDURES = {
    "first": ("first", "fwd"),
    "second_fwd": ("second", "fwd"),
    "second_mirror": ("second", "mirror"),
    "interp": ("interp", "fwd"),
}


def digest(element) -> str:
    text = json.dumps(element_to_json(element), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    max_sites = int(argv[0]) if argv else 4
    for n in range(1, max_sites + 1):
        for r in range(n + 1):
            shape = Shape(r, n - r)
            for t in enumerate_tableaux(shape):
                for name, (method, variant) in PROCEDURES.items():
                    e = idempotent_by(t, method, variant)
                    print(r, n - r, t.moves_str(), name, digest(e), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
