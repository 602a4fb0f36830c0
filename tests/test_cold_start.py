"""What a wba process loads, and when a product tabulates its shape.

Each subcommand imports only the layers it uses, so a short process does not
pay for fusion or certification that it never runs.  No subcommand loads
numpy or starts a second thread, and no process loads `dataclasses` or the
`inspect` module it imports.  A one-off product composes through the memo
unless it and the memo together are large enough to pay for the composition
table.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wba.algebra as algebra
from wba.algebra import AlgebraElement, element_to_json
from wba.diagrams import Shape, _ComposeMemo, _shape_entry
from wba.fusion import fusion_idempotent
from wba.tableaux import enumerate_tableaux

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the wba command line in this process, then reports the loaded
# modules, the live threads (None without /proc) and the (r, s) of every
# shape whose composition table was built
PROBE = """
import json, os, sys
import wba.cli, wba.diagrams
code = wba.cli.main(sys.argv[1:])
sys.stdout.flush()
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
tables = sorted((k.r, k.s) for k, space in wba.diagrams._REGISTRY.items() if space.table is not None)
sys.stderr.write(json.dumps({"modules": sorted(sys.modules), "threads": threads, "tables": tables}))
sys.exit(code)
"""

# the standard-library introspection that no wba process needs
INTROSPECTION = {"dataclasses", "inspect"}


def probe(*argv, stdin=None):
    """Run `wba ARGV` in a fresh interpreter; return (process, PROBE's
    report)."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        input=stdin,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc, json.loads(proc.stderr)


def loaded_modules(*argv, stdin=None):
    """Run `wba ARGV` in a fresh interpreter; return (process, loaded modules)."""
    proc, report = probe(*argv, stdin=stdin)
    return proc, set(report["modules"])


def wba_modules(modules):
    return {m for m in modules if m == "wba" or m.startswith("wba.")}


def full_idempotents(shape, count=2):
    """The first `count` idempotents of shape whose support is every diagram."""
    out = []
    for t in enumerate_tableaux(shape):
        e = fusion_idempotent(t)
        if len(e.terms) == len(_shape_entry(shape).by_idx):
            out.append(e)
            if len(out) == count:
                return out
    raise AssertionError(f"fewer than {count} full idempotents on {shape}")


def first_terms(e, count):
    """The element of e's first `count` terms."""
    return AlgebraElement(e.shape, dict(list(e.terms.items())[:count]))


def tabulates(pairs, shape):
    """Whether a product of `pairs` term pairs on shape, with an empty memo,
    reaches the cut-off that tabulates the shape."""
    return algebra._TABULATE_RATIO * pairs >= math.factorial(shape.n) ** 2


def tabulating_pair():
    """Two 256-term (3,3) elements, whose product of 2^16 term pairs
    tabulates its shape: the (3,3) cut-off with an empty memo is
    720^2 / 8 = 64 800 pairs."""
    shape = Shape(3, 3)
    a, b = (first_terms(e, 256) for e in full_idempotents(shape))
    assert len(a.terms) * len(b.terms) == 1 << 16
    assert tabulates(1 << 16, shape) and not tabulates(255 * 254, shape)
    return a, b


def test_importing_the_cli_loads_no_layer_beyond_its_own():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, wba.cli; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert wba_modules(modules) == {"wba", "wba.cli", "wba.errors", "wba.diagrams", "wba.scalars"}
    assert not modules & INTROSPECTION


def small_product_input():
    shape = Shape(2, 2)
    e = fusion_idempotent(enumerate_tableaux(shape)[0])
    return json.dumps([element_to_json(e), element_to_json(e)])


@pytest.mark.parametrize(
    "argv",
    [("jm", "2", "2", "1"), ("tableaux", "2", "2"), ("mul", "-")],
    ids=["jm", "tableaux", "mul-4-sites"],
)
def test_light_subcommands_load_neither_fusion_nor_verify_nor_numpy(argv):
    stdin = small_product_input() if argv[0] == "mul" else None
    proc, modules = loaded_modules(*argv, stdin=stdin)
    assert proc.returncode == 0, proc.stdout
    assert not modules & {"wba.fusion", "wba.verify", "numpy", *INTROSPECTION}


@pytest.mark.parametrize(
    "argv",
    [
        ("idempotent", "2", "2", "--tableau", "L+1,1;L+2,1;L-2,1;L-1,1", "--check"),
        ("verify", "2", "1", "--suite", "lemmas"),
    ],
    ids=["idempotent-check", "verify-lemmas"],
)
def test_certifying_subcommands_load_no_introspection(argv):
    # these load fusion and verify, which the light subcommands above must not
    proc, modules = loaded_modules(*argv)
    assert proc.returncode == 0, proc.stdout
    assert {"wba.fusion", "wba.verify"} <= modules
    assert not modules & INTROSPECTION


def tabulating_input():
    return json.dumps([element_to_json(e) for e in tabulating_pair()])


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (("tableaux", "2", "2"), None),
        (("jm", "2", "2", "1"), None),
        (("mul", "-"), small_product_input),
        (("mul", "-"), tabulating_input),
        (("idempotent", "2", "2", "--tableau", "L+1,1;L+2,1;L-2,1;L-1,1", "--check"), None),
        (("verify", "2", "2", "--suite", "all"), None),
    ],
    ids=["tableaux", "jm", "mul-4-sites", "mul-2^16-pairs", "idempotent-check", "verify-all"],
)
def test_no_subcommand_loads_numpy(argv, stdin):
    # nor starts a second thread, not even the product that tabulates (3,3)
    proc, report = probe(*argv, stdin=stdin and stdin())
    assert proc.returncode == 0, proc.stdout
    assert "numpy" not in report["modules"]
    assert report["threads"] in (None, 1)


def test_one_off_large_product_stays_off_numpy(monkeypatch):
    # a single (4,1) product of two full elements, e * (e + f) for two full
    # idempotents (14 400 term pairs), is far above the (4,1) cut-off of
    # 1 800 pairs, so it tabulates the shape, in pure Python, and prints what
    # the memo route prints
    shape = Shape(4, 1)
    e, f = full_idempotents(shape)
    a, b = e, e + f
    assert tabulates(len(a.terms) * len(b.terms), shape)
    space = _shape_entry(shape)
    # later tests must find the table and memo they would have found
    monkeypatch.setattr(space, "table", None)
    monkeypatch.setattr(space, "cache", _ComposeMemo(space.by_idx, space.stride))
    # the memo route's product, in this process
    monkeypatch.setattr(algebra, "_TABULATE_RATIO", 0)
    product = a * b
    assert product == e
    assert space.table is None and space.cache
    want = json.dumps(element_to_json(product), indent=2) + "\n"

    stdin = json.dumps([element_to_json(a), element_to_json(b)])
    proc, report = probe("mul", "-", stdin=stdin)
    assert proc.returncode == 0, proc.stdout
    assert report["tables"] == [[4, 1]]
    assert not set(report["modules"]) & {"numpy", *INTROSPECTION}
    assert proc.stdout == want


def test_product_below_the_cut_off_composes_through_the_memo(monkeypatch):
    # with an empty memo the (4,1) cut-off is 120^2 / 8 = 1 800 term pairs: a
    # product of 29 x 62 = 1 798 pairs composes through the memo and builds
    # no table; one of 30 x 60 = 1 800 pairs tabulates and composes nothing
    shape = Shape(4, 1)
    e, f = full_idempotents(shape)
    space = _shape_entry(shape)
    monkeypatch.setattr(space, "table", None)
    monkeypatch.setattr(space, "cache", _ComposeMemo(space.by_idx, space.stride))
    assert not tabulates(29 * 62, shape) and tabulates(30 * 60, shape)
    first_terms(e, 29) * first_terms(f, 62)
    assert space.table is None
    assert 0 < len(space.cache) <= 29 * 62
    space.cache.clear()
    first_terms(e, 30) * first_terms(f, 60)
    assert space.table is not None
    assert not space.cache


def test_large_product_takes_the_built_table(monkeypatch):
    # a product of 2^16 term pairs tabulates its shape first, then reads
    # every composition from the table and composes none through the memo
    a, b = tabulating_pair()
    space = _shape_entry(a.shape)
    monkeypatch.setattr(space, "table", None)
    monkeypatch.setattr(space, "cache", _ComposeMemo(space.by_idx, space.stride))
    a * b
    assert space.table is not None
    assert not space.cache
