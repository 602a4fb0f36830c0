#!/usr/bin/env python3
"""The wba benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload fuse5 --seed 1 --seconds 35 --trace 0

A run is a sequence of rounds, each a fresh worker process (cold memo
caches, as every wba invocation has) that sets up, then runs one seeded job
and checks every output.  Rounds start while the next one is expected to end
within --seconds, and at least the workload's min_rounds run.  With --trace 0 the last line
of stdout carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of traced rounds, each paired with an untraced round on the
same inputs for the tracing overhead and the byte-identity check.  The lines
before it stamp the environment and summarise the run; a full report goes to
.perfbench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CLASSES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# set-up is timed in every round, and in extra set-up-only processes when a
# run has fewer rounds than this
SETUP_SAMPLES = 3
# no round starts after this, so that a run ends well within 180 s
LAST_START_S = 120.0
ROUND_TIMEOUT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mib": "MiB",
}

# the per-layer metrics printed with --trace 1: the counts, and the times of
# layers that every workload exercises, so that no time reads 0 on some
# workload (spans.LAYER_METRICS has the rest, which the report file carries)
PER_LAYER = {
    "scalars.make_calls": "count",
    "scalars.make_s": "s",
    "scalars.gcd_calls": "count",
    "scalars.gcd_s": "s",
    "scalars.lincomb_calls": "count",
    "scalars.lincomb_s": "s",
    "scalars.interned": "count",
    "scalars.memo_misses": "count",
    "scalars.memo_clears": "count",
    "upoly.mul_calls": "count",
    "upoly.mul_s": "s",
    "upoly.div_calls": "count",
    "upoly.div_s": "s",
    "diagrams.interned": "count",
    "diagrams.table_s": "s",
    "diagrams.compose_calls": "count",
    "diagrams.compose_s": "s",
    "algebra.products": "count",
    "algebra.term_pairs": "count",
    "algebra.product_s": "s",
    "algebra.large_products": "count",
    "algebra.large_product_s": "s",
    "algebra.peak_support": "count",
    "tableaux.enumerate_s": "s",
    "fusion.first_s": "s",
    "fusion.steps": "count",
    "fusion.step_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "share",
}


def fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_round(workload, seed, index, trace, corrupt, started, setup_only=False):
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(index),
           str(trace), repr(spawned_at)]
    if corrupt:
        cmd.append("--corrupt")
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(ROUND_TIMEOUT_S - (spawned_at - started), 1.0)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"round {index} of {workload} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"round {index} of {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["round_s"] = time.monotonic() - spawned_at
    return result


def git_stamp():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return commit or None, bool(status.strip())


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wba").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail(samples, nominal):
    """The highest whole percentile with at least ten samples beyond it,
    fixed per workload from the sample count of its minimum rounds."""
    pct = math.floor(100 * (1 - 10 / nominal))
    ordered = sorted(samples)
    rank = max(math.ceil(pct / 100 * len(ordered)), 1)
    return ordered[rank - 1], pct, len(ordered) - rank


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: alter one expected output in every round")
    args = parser.parse_args()

    if not (ROOT / "src" / "wba" / "__init__.py").is_file():
        fail(f"no wba sources under {ROOT / 'src'}; run from a checkout of the repository", 2)

    started = time.monotonic()
    commit, dirty = git_stamp()
    env_stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_sha256(),
        "loadavg_start": list(os.getloadavg()),
    }

    untraced, traced = [], []
    index = 0
    while True:
        if args.trace:
            untraced.append(run_round(args.workload, args.seed, 0, 0, args.corrupt, started))
            traced.append(run_round(args.workload, args.seed, 0, 1, args.corrupt, started))
            per = untraced[-1]["round_s"] + traced[-1]["round_s"]
            enough = True
        else:
            untraced.append(run_round(args.workload, args.seed, index, 0, args.corrupt, started))
            index += 1
            per = statistics.median(r["round_s"] for r in untraced)
            enough = len(untraced) >= CLASSES[args.workload].min_rounds
        elapsed = time.monotonic() - started
        if enough and (elapsed + per > args.seconds or elapsed > LAST_START_S):
            break

    rounds = untraced + traced
    env_stamp["numpy"] = rounds[0]["numpy"]
    env_stamp["loadavg_end"] = list(os.getloadavg())
    attempted = sum(len(r["items"]) for r in rounds)
    failures = [[r["round"], r["trace"], row[0], row[3]] for r in rounds
                for row in r["items"] if not row[2]]
    summary = {"rounds": len(rounds)}

    if args.trace:
        identical = len({r["outputs_sha256"] for r in rounds}) == 1
        summary["traced_outputs_identical"] = identical
        attempted += 1
        if not identical:
            failures.append([0, 1, "byte-identity", "traced outputs differ from untraced"])
        # counts repeat exactly on the same inputs; times are medians
        layers = {name: value if isinstance(value, int)
                  else statistics.median(r["layers"][name] for r in traced)
                  for name, value in traced[0]["layers"].items()}
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["trace.uncovered_share"] = statistics.median(
            r["uncovered_s"] / r["wall_s"] for r in traced)
        summary["untraced_wall_s"] = untraced_wall
        summary["traced_wall_s"] = traced_wall
        summary["counts_repeat"] = all(
            r["layers"][k] == v for r in traced
            for k, v in traced[0]["layers"].items() if isinstance(v, int))
        summary["layers"] = layers
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        latencies = [row[1] for r in rounds for row in r["items"] if row[4]]
        per_round = sum(row[4] for row in rounds[0]["items"])
        tail_s, pct, beyond = tail(latencies, per_round * CLASSES[args.workload].min_rounds)
        summary.update({"item_samples": len(latencies), "item_tail_percentile": pct,
                        "item_tail_beyond": beyond})
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            extra = run_round(args.workload, args.seed, len(setups), 0, False, started, True)
            setups.append(extra["setup_s"])
        summary["setup_samples"] = len(setups)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": tail_s,
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    failed = len(failures)
    summary.update({"attempted": attempted, "failed": failed,
                    "ops_failed_ratio": failed / attempted, "failures": failures[:20]})

    OUT.mkdir(exist_ok=True)
    report = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report, "w") as fh:
        json.dump({"env": env_stamp, "summary": summary, "rounds": rounds}, fh, indent=1)
    print("env " + json.dumps(env_stamp))
    print("summary " + json.dumps({k: v for k, v in summary.items() if k != "layers"}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
