import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_with_perfbench(code):
    """Run code in a fresh process that imports wba and perfbench's modules."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_tracer_installs():
    # perfbench/spans.py wraps wba functions by name; renaming one of them
    # must fail here rather than silently break the traced benchmark
    proc = run_with_perfbench("import spans; spans.install(spans.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_traced_sparse_product_records_its_compositions():
    # the memo composes a missing pair through the module-level compose,
    # which the tracer wraps, so diagrams.compose still counts the misses
    code = (
        "import spans, wba.diagrams as diagrams\n"
        "from wba.algebra import jm_element\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "shape = diagrams.Shape(2, 2)\n"
        "x = jm_element(shape, 3)\n"
        "x * x\n"
        "assert diagrams._shape_entry(shape).table is None\n"
        "assert tracer.calls('diagrams.compose') == len(x.terms) ** 2, tracer.stats\n"
    )
    proc = run_with_perfbench(code)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_cold_start_clears_existing_caches():
    # perfbench/make_expected.py empties the scalar memos and each shape's
    # compose memo and table by name; renaming one must fail here
    code = (
        "import make_expected, wba.diagrams as diagrams\n"
        "from wba.algebra import jm_element\n"
        "diagrams.composition_table(diagrams.Shape(1, 1))\n"
        "x = jm_element(diagrams.Shape(2, 2), 3)\n"
        "x * x\n"
        "spaces = diagrams._REGISTRY.values()\n"
        "assert any(s.table is not None for s in spaces)\n"
        "assert any(s.cache for s in spaces)\n"
        "make_expected.cold(tables=True)\n"
        "assert all(s.table is None and not s.cache for s in spaces)\n"
    )
    proc = run_with_perfbench(code)
    assert proc.returncode == 0, proc.stderr
