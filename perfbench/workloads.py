"""The four seeded workloads: inputs from the seed, the timed items, and the
check of every output against `expected.json`.

A round is one fresh process that sets up and then runs one job, drawn from
the seed and the round index; the same seed and round give the same inputs.
Single tableaux differ a hundredfold in cost, and on a shared 2-core machine
the same work runs up to 15% faster or slower from one second to the next,
so the draws keep the work of a round nearly equal across seeds:

* fuse5 runs one tableau per round and certify6 four.  make_expected.py
  times every tableau as a fresh round of its own: cost_s is its wall time,
  p50_s and p90_s the percentiles of its item latencies.  The eligible
  tableaux are those whose three figures all lie within the workload's
  tolerance of the population medians.  The rounds of a run take successive
  entries of a seeded permutation of them (for certify6, of the sets of
  four whose products cost about the same), so a run covers as many
  distinct inputs as it can.
* cli draws k entries per round, repeatedly, until their summed cost lies
  within its tolerance of k times the mean cost.

wba is always called through its module attributes at call time, so the
wrappers of `spans.install` see the calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"wba-bench:{seed}:{index}")


PROFILE = ("cost_s", "p50_s", "p90_s")


def eligible(population: list, tolerance: float) -> list:
    center = {k: statistics.median(p[k] for p in population) for k in PROFILE}
    return [p for p in population
            if all(abs(p[k] - center[k]) <= tolerance * center[k] for k in PROFILE)]


def round_entry(population: list, tolerance: float, seed: int, index: int) -> dict:
    pool = sorted(eligible(population, tolerance), key=lambda p: (p["shape"], p["moves"]))
    order = random.Random(f"wba-bench:{seed}").sample(pool, len(pool))
    return order[index % len(order)]


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def element_digest(element) -> str:
    """Digest of the canonical element_to_json form (sorted keys, compact)."""
    import wba.algebra as algebra

    return sha(json.dumps(algebra.element_to_json(element), sort_keys=True,
                          separators=(",", ":")))


def matched_draw(population: list, k: int, tolerance: float, rng: random.Random) -> list:
    ranked = sorted(population, key=lambda p: (p["shape"], p["moves"]))
    target = k * statistics.fmean(p["cost_s"] for p in ranked)
    while True:
        picks = rng.sample(ranked, k)
        if abs(sum(p["cost_s"] for p in picks) - target) <= tolerance * target:
            return picks


def drawable(population: list, k: int, tolerance: float) -> list:
    """The entries that some draw of matched_draw can contain."""
    costs = sorted(p["cost_s"] for p in population)
    target = k * statistics.fmean(costs)
    out = []
    for p in population:
        rest = list(costs)
        rest.remove(p["cost_s"])
        low, high = sum(rest[:k - 1]), sum(rest[-(k - 1):]) if k > 1 else 0.0
        if p["cost_s"] + low <= (1 + tolerance) * target and \
                p["cost_s"] + high >= (1 - tolerance) * target:
            out.append(p)
    return out


class Item:
    """One checked call.  run() returns (output, ok, detail); output is the
    text whose digest the byte-identity check compares.  Every item counts
    as attempted and its time as wall time; only items with latency=True are
    latency samples (an item is one fusion, product, suite call or wba
    invocation)."""

    __slots__ = ("label", "run", "latency")

    def __init__(self, label: str, run, latency: bool = True):
        self.label = label
        self.run = run
        self.latency = latency


def _tableau(entry):
    import wba.diagrams as diagrams
    import wba.tableaux as tableaux

    return tableaux.parse_tableau(entry["moves"], diagrams.Shape(*entry["shape"]))


def _prebuild(shapes) -> None:
    """Intern the diagrams, enumerate the tableaux and build the composition
    table of each shape, which production code does lazily on first use."""
    import wba.diagrams as diagrams
    import wba.tableaux as tableaux

    for r, s in shapes:
        shape = diagrams.Shape(r, s)
        for _ in diagrams.all_diagrams(shape):
            pass
        tableaux.enumerate_tableaux(shape)
        diagrams.composition_table(shape)


class Fuse5:
    """5-site tableaux fused by the first procedure and by both variants of the
    second, each checked against the interpolation oracle and a golden digest."""

    tolerance = 0.3
    min_rounds = 8
    procedures = ("interp", "first", "second_fwd", "second_mirror")

    def __init__(self, expected, seed, index, tracer, entry=None):
        self.expected = expected["fuse5"]
        population = self.expected["tableaux"]
        if entry is None:
            self.picks = [round_entry(population, self.tolerance, seed, index)]
        else:
            self.picks = [population[entry]]
        self.tracer = tracer

    def setup(self):
        _prebuild(self.expected["shapes"])
        self.tableaux = [_tableau(p) for p in self.picks]

    def items(self):
        import wba.fusion as fusion
        import wba.verify as verify

        for entry, t in zip(self.picks, self.tableaux):
            oracle = {}

            def check(e, entry=entry, oracle=oracle):
                out = element_digest(e)
                if out != entry["digest"]:
                    return out, False, "digest differs from expected.json"
                if "e" in oracle and e != oracle["e"]:
                    return out, False, "differs from interp_idempotent"
                return out, True, ""

            def interp(t=t, oracle=oracle, check=check):
                oracle["e"] = verify.interp_idempotent(t)
                return check(oracle["e"])

            runs = {
                "interp": interp,
                "first": lambda t=t, check=check: check(fusion.fusion_idempotent(t)),
                "second_fwd": lambda t=t, check=check: check(
                    fusion.second_fusion_idempotent(t, fusion.DEFAULT_H)),
                "second_mirror": lambda t=t, check=check: check(
                    fusion.second_fusion_idempotent(t, fusion.DEFAULT_H, mirror=True)),
            }
            for proc in self.procedures:
                yield Item(f"{proc}:{entry['shape']}:{entry['moves']}", runs[proc],
                           latency=proc != "interp")

    def corrupt(self):
        self.picks[0]["digest"] = sha("corrupted")


class Certify6:
    """A seeded slice of the (3,3) certification: fuse K tableaux, certify
    each (e.e = e and iota(e) = e; x_k e = c_k e and e x_k = c_k e, one item
    per product), then every ordered product e_i e_j among them, which must
    vanish.  The latency samples are the products of two idempotents, the
    large products that bound this workload.  One round fills a run, so
    later tableaux meet warm caches, as in a whole-shape certification."""

    size = 5
    tolerance = 0.4
    subset_tolerance = (0.05, 0.1)
    min_rounds = 1

    def __init__(self, expected, seed, index, tracer, entry=None):
        self.expected = expected["certify6"]
        if entry is None:
            pool = self.subsets(self.expected)
            order = random.Random(f"wba-bench:{seed}").sample(pool, len(pool))
            self.picks = list(order[index % len(order)])
        else:
            self.picks = [self.expected["tableaux"][entry]]
        self.digests = [p["digest"] for p in self.picks]
        self.tracer = tracer

    @classmethod
    def subsets(cls, expected):
        """The size-K sets of eligible tableaux whose profile lies near the
        median over all such sets, in both of: the cost (their cost_s plus
        the products among them, timed as pair_cost_s) and their median
        product, which sets the item latencies of a round."""
        pool = sorted(eligible(expected["tableaux"], cls.tolerance), key=lambda p: p["moves"])
        pair = expected["pair_cost_s"]

        def profile(subset):
            products = [pair[f"{a['moves']}|{b['moves']}"]
                        for a in subset for b in subset if a is not b]
            return (sum(p["cost_s"] for p in subset) + sum(products),
                    statistics.median(products))

        rows = [(subset, profile(subset)) for subset in itertools.combinations(pool, cls.size)]
        center = [statistics.median(row[i] for _, row in rows) for i in range(2)]
        return [subset for subset, row in rows
                if all(abs(v - c) <= t * c
                       for v, c, t in zip(row, center, cls.subset_tolerance))]

    def setup(self):
        import wba.algebra as algebra

        _prebuild([self.expected["shape"]])
        self.tableaux = [_tableau(p) for p in self.picks]
        shape = self.tableaux[0].shape
        self.jm = [algebra.jm_element(shape, k) for k in range(1, shape.n + 1)]

    def items(self):
        import wba.algebra as algebra
        import wba.fusion as fusion

        span = self.tracer.span
        elements = {}
        for i, (digest, t) in enumerate(zip(self.digests, self.tableaux)):
            key = t.moves_str()

            def fuse(i=i, t=t, digest=digest):
                e = elements[i] = fusion.fusion_idempotent(t)
                out = element_digest(e)
                return out, out == digest, "digest differs from expected.json"

            def idempotency(i=i):
                e = elements[i]
                with span("verify.idempotency"):
                    ok = e * e == e and algebra.iota(e) == e
                return str(ok), ok, "e.e != e or iota(e) != e"

            yield Item(f"fuse:{key}", fuse, latency=False)
            yield Item(f"idempotency:{key}", idempotency)
            for k, (x, c) in enumerate(zip(self.jm, t.contents()), 1):
                for side in ("left", "right"):

                    def jm_spectrum(i=i, x=x, c=c, side=side):
                        e = elements[i]
                        with span("verify.jm_spectrum"):
                            ok = (x * e if side == "left" else e * x) == e.scale(c)
                        return str(ok), ok, f"x_k e != c_k e ({side})"

                    yield Item(f"jm_spectrum:{side}:{k}:{key}", jm_spectrum, latency=False)
        for i in range(len(self.picks)):
            for j in range(len(self.picks)):
                if i == j:
                    continue

                def product(i=i, j=j):
                    with span("verify.orthogonality"):
                        p = elements[i] * elements[j]
                    return str(len(p.terms)), p.is_zero, "e_i e_j != 0"

                yield Item(f"product:{i}:{j}", product)

    def corrupt(self):
        self.digests[0] = sha("corrupted")


class Battery:
    """The proof-lemma suites, the spectral-identity battery and the exponent
    calculus on fixed 4- and 5-site shapes at seeded random points, plus seeded
    negative controls that must raise CancellationFailure."""

    identity_points = 10
    controls_per_shape = 2
    min_rounds = 3

    def __init__(self, expected, seed, index, tracer):
        rng = round_rng(seed, index)
        self.expected = expected["battery"]
        self.point_seed = rng.randrange(2**31)
        self.rng = rng
        self.tracer = tracer

    def setup(self):
        import wba.diagrams as diagrams
        import wba.tableaux as tableaux

        _prebuild(self.expected["shapes"])
        self.controls = []
        for r, s in self.expected["shapes"]:
            shape = diagrams.Shape(r, s)
            candidates = [t for t in tableaux.enumerate_tableaux(shape)
                          if 1 in tableaux.exponents(t)]
            for t in self.rng.sample(candidates, self.controls_per_shape):
                k = tableaux.exponents(t).index(1) + 1
                self.controls.append((t, k))

    def items(self):
        import wba.diagrams as diagrams
        import wba.errors as errors
        import wba.fusion as fusion
        import wba.verify as verify

        seed = self.point_seed
        for r, s in self.expected["shapes"]:
            shape = diagrams.Shape(r, s)
            want = self.expected["results"][f"{r},{s}"]

            def lemmas(shape=shape, want=want):
                res = verify.check_proof_lemmas(shape, seed)
                got = {k: {"pass": v["pass"], "instances": v["instances"]}
                       for k, v in res.items()}
                out = json.dumps(got, sort_keys=True)
                return out, got == want["lemmas"], "lemma suites differ from expected"

            def identities(shape=shape, want=want):
                res = fusion.identity_checks(shape, seed, points=self.identity_points)
                out = json.dumps(res, sort_keys=True)
                return out, res == want["identities"], "identity battery differs"

            def exponents(shape=shape, want=want):
                res = verify.check_exponents(shape)
                out = json.dumps(res, sort_keys=True)
                return out, res == want["exponents"], "exponent calculus differs"

            yield Item(f"lemmas:{r},{s}", lemmas)
            yield Item(f"identities:{r},{s}", identities)
            yield Item(f"exponents:{r},{s}", exponents)

        for t, k in self.controls:

            def control(t=t, k=k):
                try:
                    fusion.fusion_with_minimal_prefactor(t, override_exponents={k: 0})
                except errors.CancellationFailure:
                    return "raised", True, ""
                return "returned", False, "withheld factor did not raise"

            yield Item(f"control:{t.shape.r},{t.shape.s}:{t.moves_str()}:{k}", control)

    def corrupt(self):
        r, s = self.expected["shapes"][0]
        self.expected["results"][f"{r},{s}"]["exponents"]["runs"] += 1


class Cli:
    """Short wba invocations, each in a fresh process; stdout bytes and exit
    codes are checked.  Per drawn 4-site tableau: idempotent, idempotent
    --check, the second procedure, mul of the emitted element with itself and
    jm; per drawn (4,1) tableau: idempotent and mul, whose product is large
    enough to build the composition table lazily."""

    draw = 3
    per_tableau = 5
    table_draw = 2
    tolerance = 0.05
    min_rounds = 3

    def __init__(self, expected, seed, index, tracer):
        rng = round_rng(seed, index)
        self.expected = expected["cli"]
        self.picks = matched_draw(self.expected["tableaux"], self.draw, self.tolerance, rng)
        self.table_picks = matched_draw(self.expected["table_tableaux"], self.table_draw,
                                        self.tolerance, rng)
        self.listing = rng.choice(sorted(self.expected["listings"]))
        self.choices = [(rng.choice(["fwd", "mirror"]), rng.randrange(1, 5))
                        for _ in self.picks]
        self.tracer = tracer
        self.trace_out = None

    def setup(self):
        import wba.cli  # noqa: F401  (the import a wba process pays)
        import wba.diagrams as diagrams
        import wba.tableaux as tableaux

        for r, s in self.expected["shapes"]:
            tableaux.enumerate_tableaux(diagrams.Shape(r, s))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def invoke(self, argv, stdin=None):
        """Run one wba process; return (stdout, exit code)."""
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "wba.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), self.trace_out, *argv]
        with self.tracer.span("cli.process"):
            proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                                  env=self.env, timeout=120)
        if self.trace_out is not None:
            self.tracer.merge_file(self.trace_out)
        return proc.stdout, proc.returncode

    def _check(self, argv, want, stdin=None):
        stdout, code = self.invoke(argv, stdin)
        out = f"{code}:{sha(stdout)}"
        ok = code == want["exit"] and sha(stdout) == want["stdout_sha256"]
        return out, ok, f"exit {code} or stdout differs from expected.json", stdout

    def items(self):
        count_shape, mode = self.listing.split(":")
        r, s = count_shape.split(",")
        listing_argv = ["tableaux", r, s] + (["--count"] if mode == "count" else [])
        want = self.expected["listings"][self.listing]
        yield Item(f"tableaux:{self.listing}",
                   lambda: self._check(listing_argv, want)[:3])

        for entry, (variant, k) in zip(self.picks, self.choices):
            r, s = (str(v) for v in entry["shape"])
            base = ["idempotent", r, s, "--tableau", entry["moves"]]
            emitted = {}

            def check(base=base, entry=entry):
                return self._check(base + ["--check"], entry["check"])[:3]

            def second(base=base, entry=entry, variant=variant):
                argv = base + ["--method", "second", "--variant", variant]
                return self._check(argv, entry["idempotent"])[:3]

            def jm(r=r, s=s, k=k):
                return self._check(["jm", r, s, str(k)], self.expected["jm"][f"{r},{s},{k}"])[:3]

            key = f"{entry['shape']}:{entry['moves']}"
            yield Item(f"idempotent:{key}", self._idempotent(base, entry, emitted))
            yield Item(f"check:{key}", check)
            yield Item(f"second-{variant}:{key}", second)
            yield Item(f"mul:{key}", self._mul(entry, emitted))
            yield Item(f"jm:{r},{s},{k}", jm)

        for entry in self.table_picks:
            r, s = (str(v) for v in entry["shape"])
            emitted = {}
            key = f"{entry['shape']}:{entry['moves']}"
            yield Item(f"idempotent:{key}",
                       self._idempotent(["idempotent", r, s, "--tableau", entry["moves"]],
                                        entry, emitted))
            yield Item(f"mul:{key}", self._mul(entry, emitted))

    def _idempotent(self, argv, entry, emitted):
        def run():
            out, ok, detail, stdout = self._check(argv, entry["idempotent"])
            if ok:
                emitted["element"] = json.loads(stdout)["element"]
            return out, ok, detail
        return run

    def _mul(self, entry, emitted):
        def run():
            if "element" not in emitted:
                return "skipped", False, "no emitted element to multiply"
            stdin = json.dumps([emitted["element"], emitted["element"]])
            return self._check(["mul", "-"], entry["mul"], stdin)[:3]
        return run

    def corrupt(self):
        self.picks[0]["check"]["stdout_sha256"] = sha("corrupted")



CLASSES = {"fuse5": Fuse5, "certify6": Certify6, "battery": Battery, "cli": Cli}
WORKLOADS = tuple(CLASSES)
