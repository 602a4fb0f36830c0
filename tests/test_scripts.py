"""Smoke tests of the scripts under scripts/, each run as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_golden_idempotent_script():
    proc = run_script("golden_idempotent.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[1:] for line in lines[:4]] == [["==", "first"]] * 4
    element = json.loads("\n".join(lines[4:]))
    assert (element["r"], element["s"]) == (2, 2)
    coeffs = {tuple(term["diagram"]): term["coeff"] for term in element["terms"]}
    assert coeffs[(3, 4, 1, 2)] == "1/(2*d^2-2*d)"


def test_certify_script():
    for args in (["3"], ["3", "--full"]):
        proc = run_script("certify.py", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(": ok ") == 3  # (1,1), (1,2), (2,1)


def test_digests_script():
    proc = run_script("digests.py", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    # one tableau on each of the two 1-site shapes, 2 on each of the three
    # 2-site shapes and 4 on each of the four 3-site shapes
    assert len(rows) == 4 * (2 + 3 * 2 + 4 * 4)
    by_tableau: dict = {}
    for r, s, tableau, procedure, digest in rows:
        assert len(digest) == 64 and int(digest, 16) >= 0
        by_tableau.setdefault((r, s, tableau), {})[procedure] = digest
    assert len(by_tableau) == 24
    for digests in by_tableau.values():
        # the four procedures build the same idempotent
        assert sorted(digests) == ["first", "interp", "second_fwd", "second_mirror"]
        assert len(set(digests.values())) == 1
