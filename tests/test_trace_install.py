import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # perfbench/spans.py wraps wba functions by name; renaming one of them
    # must fail here rather than silently break the traced benchmark
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_cold_start_clears_existing_caches():
    # perfbench/make_expected.py empties the scalar memos and each shape's
    # compose memo and table by name; renaming one must fail here
    code = (
        "import make_expected, wba.diagrams as diagrams\n"
        "diagrams.composition_table(diagrams.Shape(1, 1))\n"
        "make_expected.cold(tables=True)\n"
        "assert all(s.table is None and not s.cache for s in diagrams._REGISTRY.values())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
