"""Layer spans for wba, recorded from the benchmark's side only.

`install(tracer)` replaces selected functions and methods of the wba modules
with timing wrappers, in every wba module namespace that holds a reference to
them, so calls between modules are seen too.  No file of the program changes.

Each span has a name (`layer.op`), a start, an end, its parent span and the
benchmark item it ran under.  Per name the tracer keeps the call count, the
total time and the self time (span minus the time of its child spans).  Raw
spans are kept in memory up to a cap and written out at the end; the
aggregates are always complete.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_perf = time.perf_counter

# a product with at least this many term pairs counts as large; it is the
# input size at which wba switches to its vectorised product
LARGE_TERM_PAIRS = 1024

SPAN_CAP = 100_000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.counters: dict = {}
        self.spans: list = []  # (id, parent_id, item, name, start, end)
        self.span_cap = span_cap
        self.dropped = 0
        self.covered_s = 0.0  # time inside top-level spans
        self.item = None
        self._stack: list = []  # open frames: [id, child_s]
        self._next_id = 0

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def peak(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, t0, t1):
        self._stack.pop()
        dt = t1 - t0
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[1]
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dt
            parent_id = parent[0]
        else:
            self.covered_s += dt
            parent_id = 0
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], parent_id, self.item, name, t0, t1))
        else:
            self.dropped += 1

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name, on_call=None):
        """A wrapper recording one span per call.  name is a string or a
        function of the call arguments; on_call(args, result) may count."""
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = fixed or name(args)
            frame = tracer._open()
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_name, frame, t0, _perf())
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[2] if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    def merge_file(self, path: str, parent: str = "cli.process") -> None:
        """Add the aggregates another process wrote to path.  Its top-level
        spans ran inside the parent span here, so they leave its self time."""
        with open(path) as fh:
            other = json.load(fh)
        for name, (calls, total, self_time) in other["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_time
        for name, value in other["counters"].items():
            if name in PEAK_COUNTERS:
                self.peak(name, value)
            else:
                self.count(name, value)
        self.stats[parent][2] -= other["covered_s"]

    def aggregates(self) -> dict:
        return {"stats": self.stats, "counters": self.counters, "covered_s": self.covered_s}


class _Span:
    __slots__ = ("tracer", "name", "frame", "t0")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._open()
        self.t0 = _perf()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.frame, self.t0, _perf())
        return False


class NullTracer:
    """Stands in for a Tracer in untraced rounds."""

    item = None
    covered_s = 0.0

    def span(self, name):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()

PEAK_COUNTERS = {"algebra.peak_support"}


def _replace_everywhere(original, replacement) -> None:
    """Rebind every wba module-level name that refers to original."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "wba" or modname.startswith("wba.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every wba layer.  Call once per process,
    after importing wba and before the traced work."""
    import wba.algebra as algebra
    import wba.cli  # noqa: F401  (so its imported names are rebound too)
    import wba.diagrams as diagrams
    import wba.fusion as fusion
    import wba.scalars as scalars
    import wba.tableaux as tableaux
    import wba.upoly as upoly
    import wba.verify as verify

    def module_fn(module, attr, name, on_call=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(original, name, on_call))

    def method(cls, attr, name):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name))

    # scalars: canonicalisation, its gcd, the sparse-path sums, the memo caches
    method(scalars.DeltaScalar, "make", "scalars.make")
    module_fn(scalars, "pgcd", "scalars.gcd")
    module_fn(scalars, "scalar_linear_combination", "scalars.lincomb")
    cache_put = scalars._cache_put
    limit = scalars._CACHE_LIMIT

    def counted_cache_put(cache, key, value):
        tracer.count("scalars.memo_misses")
        if len(cache) > limit:
            tracer.count("scalars.memo_clears")
        cache_put(cache, key, value)

    scalars._cache_put = counted_cache_put

    # upoly: element- and scalar-valued convolutions, synthetic division
    method(upoly.UniPoly, "__mul__", "upoly.mul")
    method(upoly.UniPoly, "divmod_linear", "upoly.div")

    # diagrams: composition on a cache miss, the dense table
    module_fn(diagrams, "compose", "diagrams.compose")
    module_fn(diagrams, "composition_table", "diagrams.table")

    # algebra: the bilinear product, split by input size; the JSON wire format
    def product_name(args):
        a, b = args
        if len(a.terms) * len(b.terms) >= LARGE_TERM_PAIRS:
            return "algebra.large_product"
        return "algebra.product"

    def on_product(args, result):
        a, b = args
        tracer.count("algebra.term_pairs", len(a.terms) * len(b.terms))
        tracer.peak(
            "algebra.peak_support", max(len(a.terms), len(b.terms), len(result.terms))
        )

    module_fn(algebra, "_mul_elements", product_name, on_product)
    module_fn(algebra, "element_to_json", "algebra.json")
    module_fn(algebra, "element_from_json", "algebra.json")

    # tableaux
    module_fn(tableaux, "enumerate_tableaux", "tableaux.enumerate")

    # fusion: the procedures, one evaluation step, the numeric products
    module_fn(fusion, "fusion_idempotent", "fusion.first")
    module_fn(fusion, "second_fusion_idempotent", "fusion.second")
    module_fn(fusion, "_evaluate_step_info", "fusion.step")
    module_fn(fusion, "fusion_with_minimal_prefactor", "fusion.minimal")
    for attr in ("identity_checks", "psi_full_numeric", "psi_step_numeric",
                 "second_product_numeric"):
        module_fn(fusion, attr, "fusion.numeric")

    # verify: the oracle and the suites
    module_fn(verify, "interp_idempotent", "verify.interp")
    module_fn(verify, "check_proof_lemmas", "verify.lemmas")
    module_fn(verify, "check_exponents", "verify.exponents")


def count_interned(tracer: Tracer) -> None:
    """Add the sizes of this process's intern tables, read at its end."""
    import wba.diagrams as diagrams
    import wba.scalars as scalars

    tracer.count("scalars.interned", len(scalars._INTERN))
    tracer.count(
        "diagrams.interned", sum(len(s.by_idx) for s in diagrams._REGISTRY.values())
    )


def _self(*names):
    return lambda t: sum(t.self_s(n) for n in names)


def _calls(*names):
    return lambda t: sum(t.calls(n) for n in names)


def _counter(name):
    return lambda t: t.counters.get(name, 0)


# every per-layer metric: name -> (unit, value from a Tracer); times are self
# times, span minus child spans, summed over the round
LAYER_METRICS = {
    "scalars.make_calls": ("count", _calls("scalars.make")),
    "scalars.make_s": ("s", _self("scalars.make")),
    "scalars.gcd_calls": ("count", _calls("scalars.gcd")),
    "scalars.gcd_s": ("s", _self("scalars.gcd")),
    "scalars.lincomb_calls": ("count", _calls("scalars.lincomb")),
    "scalars.lincomb_s": ("s", _self("scalars.lincomb")),
    "scalars.interned": ("count", _counter("scalars.interned")),
    "scalars.memo_misses": ("count", _counter("scalars.memo_misses")),
    "scalars.memo_clears": ("count", _counter("scalars.memo_clears")),
    "upoly.mul_calls": ("count", _calls("upoly.mul")),
    "upoly.mul_s": ("s", _self("upoly.mul")),
    "upoly.div_calls": ("count", _calls("upoly.div")),
    "upoly.div_s": ("s", _self("upoly.div")),
    "diagrams.interned": ("count", _counter("diagrams.interned")),
    "diagrams.table_s": ("s", _self("diagrams.table")),
    "diagrams.compose_calls": ("count", _calls("diagrams.compose")),
    "diagrams.compose_s": ("s", _self("diagrams.compose")),
    "algebra.products": ("count", _calls("algebra.product", "algebra.large_product")),
    "algebra.term_pairs": ("count", _counter("algebra.term_pairs")),
    "algebra.product_s": ("s", _self("algebra.product", "algebra.large_product")),
    "algebra.large_products": ("count", _calls("algebra.large_product")),
    "algebra.large_product_s": ("s", _self("algebra.large_product")),
    "algebra.peak_support": ("count", _counter("algebra.peak_support")),
    "algebra.json_s": ("s", _self("algebra.json")),
    "tableaux.enumerate_s": ("s", _self("tableaux.enumerate")),
    "fusion.first_s": ("s", _self("fusion.first")),
    "fusion.second_s": ("s", _self("fusion.second")),
    "fusion.steps": ("count", _calls("fusion.step")),
    "fusion.step_s": ("s", _self("fusion.step")),
    "fusion.minimal_s": ("s", _self("fusion.minimal")),
    "fusion.numeric_s": ("s", _self("fusion.numeric")),
    "verify.lemmas_s": ("s", _self("verify.lemmas")),
    "verify.exponents_s": ("s", _self("verify.exponents")),
    "verify.interp_s": ("s", _self("verify.interp")),
    "verify.idempotency_s": ("s", _self("verify.idempotency")),
    "verify.jm_spectrum_s": ("s", _self("verify.jm_spectrum")),
    "verify.orthogonality_s": ("s", _self("verify.orthogonality")),
    "cli.import_s": ("s", _self("cli.import")),
    "cli.main_s": ("s", _self("cli.main")),
    "cli.process_s": ("s", _self("cli.process")),
}


def layer_metrics(tracer: Tracer) -> dict:
    return {name: fn(tracer) for name, (_, fn) in LAYER_METRICS.items()}
