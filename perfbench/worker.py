"""One round of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED ROUND TRACE SPAWNED_AT
           [--corrupt] [--entry N] [--setup-only]

SPAWNED_AT is the time.monotonic() reading the parent took just before it
started this process, so set-up time includes interpreter start-up.  Prints
one JSON object as its last line: set-up and work timings, every item's
latency and check, and with TRACE=1 the per-layer metrics.  --corrupt alters
one expected output, for the self-test that failures are reported.  --entry N
runs population entry N instead of the seeded draw; make_expected.py times
each entry this way.  --setup-only stops after set-up, for extra set-up
samples in a run with few rounds.
"""

import hashlib
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv):
    workload, seed, index, trace, spawned_at = argv[:5]
    seed, index, trace, spawned_at = int(seed), int(index), trace == "1", float(spawned_at)

    sys.path.insert(0, SRC)
    from spans import NullTracer, Tracer, count_interned, install, layer_metrics
    from workloads import CLASSES, OUT, load_expected

    tracer = Tracer() if trace else NullTracer()
    with tracer.span("cli.import"):
        import wba.cli  # noqa: F401  (loads every layer)
    if trace:
        install(tracer)
    extra = {}
    if "--entry" in argv:
        extra["entry"] = int(argv[argv.index("--entry") + 1])
    job = CLASSES[workload](load_expected(), seed, index, tracer, **extra)
    if "--corrupt" in argv:
        job.corrupt()
    job.setup()
    trace_out = None
    if trace and workload == "cli":
        OUT.mkdir(exist_ok=True)
        trace_out = job.trace_out = str(OUT / f"cli-aggregates-{os.getpid()}.json")
    items = list(job.items())
    setup_s = time.monotonic() - spawned_at
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    covered0 = tracer.covered_s
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu0 = time.process_time()
    start = time.perf_counter()
    rows, outputs = [], []
    for n, item in enumerate(items):
        tracer.item = n
        t0 = time.perf_counter()
        try:
            out, ok, detail = item.run()
        except Exception as exc:  # an item that raises is a failed item
            out, ok, detail = f"raised {type(exc).__name__}", False, f"{type(exc).__name__}: {exc}"
        rows.append([item.label, time.perf_counter() - t0, ok, "" if ok else detail,
                     item.latency])
        outputs.append(out)
    wall_s = time.perf_counter() - start
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (time.process_time() - cpu0 + children.ru_utime - children0.ru_utime
             + children.ru_stime - children0.ru_stime)
    if workload == "cli":
        peak_kib = children.ru_maxrss  # the largest wba process
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy

    result = {
        "workload": workload,
        "seed": seed,
        "round": index,
        "trace": int(trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_kib / 1024,
        "items": rows,
        "outputs_sha256": hashlib.sha256("\n".join(outputs).encode()).hexdigest(),
        "numpy": numpy.__version__,
    }
    if trace:
        if trace_out is not None and os.path.exists(trace_out):
            os.remove(trace_out)
        count_interned(tracer)
        result["layers"] = layer_metrics(tracer)
        result["uncovered_s"] = wall_s - (tracer.covered_s - covered0)
        result["spans_dropped"] = tracer.dropped
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}-round{index}-{os.getpid()}.jsonl"
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = str(spans_path.relative_to(OUT.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
