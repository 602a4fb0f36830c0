"""Regenerate perfbench/expected.json from the current wba sources.

Usage: python3 perfbench/make_expected.py [PART ...]   (from the repository root)

PART is one of fuse5, certify6, battery, cli; by default all are regenerated.

The expected outputs are what the program computes at the commit that
defines the benchmark; each later run must reproduce them exactly.  Each
population entry also carries its measured cost (cost_s, and for fuse5 and
certify6 p50_s and p90_s), which the workloads use only to choose inputs of nearly
equal cost for every seed (see workloads.py).  Takes about half an hour.
"""

import contextlib
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import wba.algebra as algebra  # noqa: E402
import wba.cli as cli  # noqa: E402
import wba.diagrams as diagrams  # noqa: E402
import wba.scalars as scalars  # noqa: E402
from wba.diagrams import Shape, composition_table  # noqa: E402
from wba.fusion import (  # noqa: E402
    DEFAULT_H,
    fusion_idempotent,
    identity_checks,
    second_fusion_idempotent,
)
from wba.tableaux import enumerate_tableaux, parse_tableau  # noqa: E402
from wba.verify import check_exponents, check_proof_lemmas, interp_idempotent  # noqa: E402

from workloads import Battery, Certify6, element_digest, eligible, sha  # noqa: E402

FUSE5_SHAPES = [(1, 4), (4, 1), (2, 3), (3, 2)]
CERTIFY6_SHAPE = (3, 3)
BATTERY_SHAPES = [(2, 2), (3, 1), (4, 1)]
CLI_SHAPES = [(1, 3), (2, 2), (3, 1)]
# large enough for `mul` to take the vectorised product, which builds the
# composition table on first use
CLI_TABLE_SHAPE = (4, 1)


def cold(tables=False):
    """Empty the memo caches, as a fresh process has them; with tables, drop
    the composition tables too, which a wba process builds on first use."""
    for cache in (scalars._ADD, scalars._MUL, scalars._NEG, scalars._INV,
                  scalars._LCM, scalars._RESCALE):
        cache.clear()
    for space in diagrams._REGISTRY.values():
        space.cache.clear()
        if tables:
            space.table = None


def timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def fuse5():
    entries = []
    for r, s in FUSE5_SHAPES:
        for t in enumerate_tableaux(Shape(r, s)):
            e = interp_idempotent(t)
            for other in (fusion_idempotent(t), second_fusion_idempotent(t, DEFAULT_H),
                          second_fusion_idempotent(t, DEFAULT_H, mirror=True)):
                assert other == e, t
            entries.append({"shape": [r, s], "moves": t.moves_str(),
                            "digest": element_digest(e), "support": len(e.terms)})
            print("fuse5", r, s, t.moves_str(), flush=True)
    return {"shapes": [list(x) for x in FUSE5_SHAPES], "tableaux": entries}


def fresh_costs(part, entries):
    """Time each entry as one round of a fresh worker, as a run sees it: the
    wall time of its work and the 50th and 90th percentiles of its item
    latencies."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), PYTHONHASHSEED="0")
    for n, entry in enumerate(entries):
        cmd = [sys.executable, str(HERE / "worker.py"), part, "0", "0", "0",
               repr(time.monotonic()), "--entry", str(n)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert all(row[2] for row in result["items"]), result["items"]
        latencies = sorted(row[1] for row in result["items"] if row[4])
        entry["cost_s"] = round(result["wall_s"], 4)
        entry["p50_s"] = round(statistics.median(latencies), 4)
        entry["p90_s"] = round(latencies[math.ceil(0.9 * len(latencies)) - 1], 4)
        print(part, n, entry["cost_s"], entry["p50_s"], entry["p90_s"], flush=True)


def certify6():
    shape = Shape(*CERTIFY6_SHAPE)
    jm = [algebra.jm_element(shape, k) for k in range(1, shape.n + 1)]
    entries = []
    for t in enumerate_tableaux(shape):
        e = fusion_idempotent(t)
        assert e * e == e and algebra.iota(e) == e
        for x, c in zip(jm, t.contents()):
            assert x * e == e.scale(c) == e * x
        entries.append({"shape": list(CERTIFY6_SHAPE), "moves": t.moves_str(),
                        "digest": element_digest(e), "support": len(e.terms)})
        print("certify6", t.moves_str(), flush=True)
    return {"shape": list(CERTIFY6_SHAPE), "tableaux": entries}


def certify6_pairs(expected):
    """Time every ordered product among the tableaux certify6 may draw."""
    shape = Shape(*CERTIFY6_SHAPE)
    composition_table(shape)
    pool = eligible(expected["tableaux"], Certify6.tolerance)
    elements = {p["moves"]: fusion_idempotent(parse_tableau(p["moves"], shape)) for p in pool}
    costs = {}
    for a, b in itertools.permutations(elements, 2):
        zero, cost = timed(lambda: (elements[a] * elements[b]).is_zero)
        assert zero
        costs[f"{a}|{b}"] = round(cost, 4)
        print("certify6 product", round(cost, 3), flush=True)
    expected["pair_cost_s"] = costs


def battery():
    results = {}
    for r, s in BATTERY_SHAPES:
        shape = Shape(r, s)
        per_seed = []
        for seed in (0, 1):
            lemmas = {k: {"pass": v["pass"], "instances": v["instances"]}
                      for k, v in check_proof_lemmas(shape, seed).items()}
            identities = identity_checks(shape, seed, points=Battery.identity_points)
            per_seed.append({"lemmas": lemmas, "identities": identities,
                             "exponents": check_exponents(shape)})
        assert per_seed[0] == per_seed[1], "battery results depend on the seed"
        results[f"{r},{s}"] = per_seed[0]
        print("battery", r, s, flush=True)
    return {"shapes": [list(x) for x in BATTERY_SHAPES], "results": results}


def run_cli(argv, stdin=None):
    out = io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return {"exit": code, "stdout_sha256": sha(out.getvalue())}, out.getvalue()


def cli_invocations():
    entries, listings, jm = [], {}, {}
    for r, s in CLI_SHAPES:
        for mode in ("count", "full"):
            argv = ["tableaux", str(r), str(s)] + (["--count"] if mode == "count" else [])
            listings[f"{r},{s}:{mode}"] = run_cli(argv)[0]
        for k in range(1, r + s + 1):
            jm[f"{r},{s},{k}"] = run_cli(["jm", str(r), str(s), str(k)])[0]
        for t in enumerate_tableaux(Shape(r, s)):
            base = ["idempotent", str(r), str(s), "--tableau", t.moves_str()]
            idem, stdout = run_cli(base)
            for variant in ("fwd", "mirror"):
                assert run_cli(base + ["--method", "second", "--variant", variant])[0] == idem
            element = json.loads(stdout)["element"]
            mul = run_cli(["mul", "-"], json.dumps([element, element]))[0]
            cold()
            (check, _), cost = timed(lambda: run_cli(base + ["--check"]))
            entries.append({"shape": [r, s], "moves": t.moves_str(), "idempotent": idem,
                            "check": check, "mul": mul, "cost_s": round(cost, 4)})
            print("cli", r, s, t.moves_str(), round(cost, 2), flush=True)
    large = []
    r, s = CLI_TABLE_SHAPE
    for t in enumerate_tableaux(Shape(r, s)):
        base = ["idempotent", str(r), str(s), "--tableau", t.moves_str()]
        cold(tables=True)
        (idem, stdout), cost = timed(lambda: run_cli(base))
        element = json.loads(stdout)["element"]
        mul, mul_cost = timed(lambda: run_cli(["mul", "-"], json.dumps([element, element]))[0])
        large.append({"shape": [r, s], "moves": t.moves_str(), "idempotent": idem,
                      "mul": mul, "cost_s": round(cost + mul_cost, 4)})
        print("cli", r, s, t.moves_str(), round(cost + mul_cost, 2), flush=True)
    return {"shapes": [list(x) for x in CLI_SHAPES], "tableaux": entries,
            "table_shape": list(CLI_TABLE_SHAPE), "table_tableaux": large,
            "listings": listings, "jm": jm}


PARTS = {"fuse5": fuse5, "certify6": certify6, "battery": battery, "cli": cli_invocations}


# parts whose entries are timed as fresh worker rounds, after the expected
# outputs are written (the worker checks against them)
FRESH = {"fuse5": "tableaux", "certify6": "tableaux"}


def write(expected):
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(parts):
    expected = {}
    if (HERE / "expected.json").exists():
        with open(HERE / "expected.json") as fh:
            expected = json.load(fh)
    for part in parts or PARTS:
        expected[part] = PARTS[part]()
        if part in FRESH:
            write(expected)
            fresh_costs(part, expected[part][FRESH[part]])
        if part == "certify6":
            certify6_pairs(expected[part])
        write(expected)


if __name__ == "__main__":
    main(sys.argv[1:])
