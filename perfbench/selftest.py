#!/usr/bin/env python3
"""Self-tests of the benchmark itself.  Takes a few minutes.

Usage, from the repository root:  python3 perfbench/selftest.py [WORKLOAD ...]

By default it tests the workloads BENCHMARK.json lists.

1. BENCHMARK.json names exactly the metrics run.py prints.
2. Corrupted output: with one expected output altered, every workload reports
   a failed item, and run.py reports correct=false.
3. Determinism: two traced runs with one seed give identical count metrics;
   a traced run with another seed gives different ones, so the seed reaches
   the workload.  Traced outputs are byte-identical to untraced outputs, and
   the tracing overhead and the share of wall time outside any layer span
   are printed.
4. Without the wba sources next to it, run.py exits non-zero and prints no
   result.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import CLASSES, Certify6, Cli, drawable, eligible, load_expected  # noqa: E402

SEED_COUNTS = ("scalars.make_calls", "algebra.products", "algebra.term_pairs",
               "upoly.mul_calls", "fusion.steps")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=600)
    return proc


def bench(workload, seed, trace, *extra):
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), *extra])
    if proc.returncode != 0:
        raise AssertionError(f"run.py {workload} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = OUT / f"report-{workload}-seed{seed}-trace{trace}.json"
    with open(report) as fh:
        return result, json.load(fh)


def check_manifest():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END, (e2e, END_TO_END)
    assert layer == PER_LAYER, (layer, PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert set(PER_LAYER) - {"trace.overhead_s", "trace.uncovered_share"} <= set(LAYER_METRICS)
    print("manifest: BENCHMARK.json matches run.py")
    expected = load_expected()
    for workload in ("fuse5", "certify6"):
        population = expected[workload]["tableaux"]
        n = len(eligible(population, CLASSES[workload].tolerance))
        print(f"coverage: {workload} can run {n} of {len(population)} tableaux")
    print(f"coverage: certify6 runs {len(Certify6.subsets(expected['certify6']))} "
          f"sets of {Certify6.size}")
    for key, k in (("tableaux", Cli.draw), ("table_tableaux", Cli.table_draw)):
        population = expected["cli"][key]
        n = len(drawable(population, k, Cli.tolerance))
        print(f"coverage: cli can draw {n} of {len(population)} {key}")


def check_corruption(workloads):
    for workload in workloads:
        proc = run(["perfbench/worker.py", workload, "7", "0", "0", repr(time.monotonic()),
                    "--corrupt"])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed = [row for row in result["items"] if not row[2]]
        assert failed, f"{workload}: corrupted expectation not reported"
        print(f"corruption: {workload} reports {len(failed)} failed item(s): {failed[0][0]}")
    result, _ = bench(workloads[0], 7, 0, "--corrupt")
    assert result["correct"] is False and result["failed"] > 0, result
    print(f"corruption: run.py {workloads[0]} reports correct=false, "
          f"failed={result['failed']} of {result['attempted']}")


def counts(report):
    layers = report["summary"]["layers"]
    return {k: layers[k] for k, (unit, _) in LAYER_METRICS.items() if unit == "count"}


def check_determinism(workloads):
    for workload in workloads:
        result_a, report_a = bench(workload, 11, 1)
        counts_a = counts(report_a)
        result_b, report_b = bench(workload, 11, 1)
        counts_b = counts(report_b)
        assert result_a["correct"] and result_b["correct"], (result_a, result_b)
        assert counts_a == counts_b, {k: (counts_a[k], counts_b[k]) for k in counts_a
                                      if counts_a[k] != counts_b[k]}
        _, report_c = bench(workload, 12, 1)
        counts_c = counts(report_c)
        moved = [k for k in SEED_COUNTS if counts_c[k] != counts_a[k]]
        assert moved, f"{workload}: seed 12 gives the same counts as seed 11"
        for report in (report_a, report_b, report_c):
            assert report["summary"]["traced_outputs_identical"], workload
        s = report_a["summary"]
        print(f"determinism: {workload} counts repeat for seed 11; seed 12 moves "
              f"{', '.join(moved)}; traced outputs identical; tracing overhead "
              f"{s['traced_wall_s'] - s['untraced_wall_s']:.3f} s on "
              f"{s['untraced_wall_s']:.3f} s; outside any span "
              f"{100 * s['layers']['trace.uncovered_share']:.1f}%")


def check_without_sources():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"bare directory: run.py exits {proc.returncode} with no result")


def main(argv):
    with open(ROOT / "BENCHMARK.json") as fh:
        workloads = argv or [w["name"] for w in json.load(fh)["workloads"]]
    check_manifest()
    check_without_sources()
    check_corruption(workloads)
    check_determinism(workloads)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
