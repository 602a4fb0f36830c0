"""What a wba process loads, and which route its products take.

Each subcommand imports only the layers it uses, so a short process does not
pay for fusion, certification or numpy that it never runs, and no process
loads `dataclasses` or the `inspect` module it imports.  Building a
composition table needs no numpy; only the dense product loads it.  A
one-off large product stays on the sparse path unless it is large enough to
pay for the composition table; once the table is built, large products use
it, and the command line keeps OpenBLAS from starting worker threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wba.algebra as algebra
from wba.algebra import AlgebraElement, element_to_json
from wba.diagrams import Shape, _shape_entry, composition_table
from wba.fusion import fusion_idempotent
from wba.tableaux import enumerate_tableaux

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the wba command line in this process, then reports the loaded
# modules, the live threads and the OpenBLAS thread setting
PROBE = """
import json, os, sys
import wba.cli
code = wba.cli.main(sys.argv[1:])
sys.stdout.flush()
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
sys.stderr.write(json.dumps({
    "modules": sorted(sys.modules),
    "threads": threads,
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
sys.exit(code)
"""

# the standard-library introspection that no wba process needs
INTROSPECTION = {"dataclasses", "inspect"}


def probe(*argv, stdin=None, **env):
    """Run `wba ARGV` in a fresh interpreter with env added to an environment
    that sets no OpenBLAS thread count; return (process, PROBE's report)."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        input=stdin,
        env=dict(base, PYTHONPATH=str(SRC), **env),
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
    assert "numpy" not in modules
    assert not modules & INTROSPECTION


def test_untabulated_shape_never_imports_numpy():
    # a 7-site shape has no composition table, and asking for one is free
    probe = (
        "import json, sys\n"
        "from wba.diagrams import Shape, composition_table\n"
        "table = composition_table(Shape(3, 4))\n"
        "print(json.dumps([table is None, 'numpy' in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, False]


def test_building_the_prebuilt_tables_never_imports_numpy():
    # the tables of the 5-site shapes that fusion sweeps prebuild
    probe = (
        "import json, sys\n"
        "from wba.diagrams import Shape, composition_table\n"
        "for r, s in [(1, 4), (4, 1), (2, 3), (3, 2)]:\n"
        "    assert composition_table(Shape(r, s)) is not None\n"
        "print(json.dumps('numpy' in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is False


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


def test_one_off_large_product_stays_off_numpy(monkeypatch):
    # a single (4,1) product of two full idempotents (14 400 term pairs) is
    # cheaper on the sparse path than importing numpy and tabulating the shape
    shape = Shape(4, 1)
    a, b = full_idempotents(shape)
    space = _shape_entry(shape)
    before = space.table
    with monkeypatch.context() as restore:
        # the dense oracle builds the table; later tests must not find it
        restore.setattr(space, "table", before)
        dense = algebra._mul_elements_dense(a, b, space)
    assert space.table is before
    want = json.dumps(element_to_json(dense), indent=2) + "\n"

    stdin = json.dumps([element_to_json(a), element_to_json(b)])
    proc, modules = loaded_modules("mul", "-", stdin=stdin)
    assert proc.returncode == 0, proc.stdout
    assert not modules & {"numpy", *INTROSPECTION}
    assert proc.stdout == want


def dense_one_off_input():
    """Two 256-term (3,3) elements, whose product of 2^16 term pairs takes the
    dense path in a fresh process."""
    shape = Shape(3, 3)
    a, b = (
        AlgebraElement(shape, dict(list(e.terms.items())[:256]))
        for e in full_idempotents(shape)
    )
    assert len(a.terms) * len(b.terms) >= algebra._DENSE_ONE_OFF_PAIRS
    return json.dumps([element_to_json(a), element_to_json(b)])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_dense_one_off_product_starts_no_blas_thread():
    stdin = dense_one_off_input()
    proc, report = probe("mul", "-", stdin=stdin)
    assert proc.returncode == 0, proc.stdout
    assert "numpy" in report["modules"]
    assert report["threads"] == 1
    assert report["openblas"] == "1"

    # a thread count the caller chose is kept
    proc, report = probe("mul", "-", stdin=stdin, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stdout
    assert report["openblas"] == "2"


def test_large_product_takes_the_built_table(monkeypatch):
    shape = Shape(2, 3)
    a, b = full_idempotents(shape)
    assert len(a.terms) * len(b.terms) >= algebra._DENSE_PAIR_THRESHOLD
    composition_table(shape)

    calls = []
    dense = algebra._mul_elements_dense

    def counted(*args):
        calls.append(None)
        return dense(*args)

    monkeypatch.setattr(algebra, "_mul_elements_dense", counted)
    a * b
    assert len(calls) == 1
