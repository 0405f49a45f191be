"""One workload in one fresh process; started by run.py, not by hand.

    python -B bench/child.py <workload> <seed> <seconds> <mode>

mode `setup` stops after set-up, `run` measures for `seconds` (at least
one full pass), `trace` runs one traced pass and then one pass under
cProfile that checks the trace wrappers saw every call.  The child prints
READY when set-up is done and RESULT <json> at the end.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_item(item):
    """Times item.run(); returns (seconds, output, None) or, when it
    raises, (seconds, None, traceback text)."""
    t0 = perf_counter()
    try:
        out = item.run()
    except Exception:
        return perf_counter() - t0, None, traceback.format_exc()
    return perf_counter() - t0, out, None


def measure(items, seconds: float) -> dict:
    """Closed loop over the items, pass after pass, until `seconds` have
    passed and at least one pass is complete."""
    record = {it.label: {"latencies": [], "digest": None, "stats": None}
              for it in items}
    failures = []
    attempted = passes = 0
    deadline = perf_counter() + seconds
    while True:
        for it in items:
            if passes and perf_counter() >= deadline:
                return {"items": record, "failures": failures,
                        "attempted": attempted, "passes": passes}
            dt, out, err = run_item(it)
            attempted += 1
            rec = record[it.label]
            rec["latencies"].append(dt)
            problems = [err] if err else check_outcome(it, out, rec)
            if problems:
                failures.append({"item": it.label, "problems": problems})
        passes += 1


def check_outcome(it, out, rec) -> list:
    try:
        oc = it.check(out)
    except Exception:
        return [traceback.format_exc()]
    problems = list(oc.problems)
    if rec["digest"] is None:
        rec["digest"], rec["stats"] = oc.digest, oc.stats
    elif rec["digest"] != oc.digest:
        problems.append("output differs from the first pass")
    return problems


def traced_pass(items, tracer) -> dict:
    """One pass with every item under a root span; checks run afterwards
    so their calls are not attributed to the layers."""
    record = {it.label: {"latencies": [], "digest": None, "stats": None}
              for it in items}
    outs = []
    for it in items:
        with tracer.span("bench.item"):
            dt, out, err = run_item(it)
        record[it.label]["latencies"].append(dt)
        outs.append((it, out, err))
    layers = tracer.layer_table()
    extra = {"nfev": tracer.nfev, "cert_none": tracer.cert_none,
             "spans": len(tracer.span_name)}
    failures = []
    for it, out, err in outs:
        problems = [err] if err else check_outcome(it, out, record[it.label])
        if problems:
            failures.append({"item": it.label, "problems": problems})
    return {"items": record, "failures": failures, "attempted": len(items),
            "passes": 1, "layers": layers, "counters": extra}


def verify_bindings(items, tracer) -> dict:
    import cProfile

    from tracing import binding_mismatches

    before = list(tracer.calls)
    prof = cProfile.Profile()
    prof.enable()
    try:
        for it in items:
            it.run()
    finally:
        prof.disable()
    prof.create_stats()
    return binding_mismatches(tracer, before, prof.stats)


def main(argv) -> int:
    workload, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    tracer = None
    if mode == "trace":
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    import workloads
    from cstarpres.fcalc import builtin_registry

    if tracer is not None:
        with tracer.span("bench.setup"):
            items = workloads.setup(workload, ROOT, seed, builtin_registry())
    else:
        items = workloads.setup(workload, ROOT, seed, builtin_registry())
    print("READY", flush=True)
    if mode == "setup":
        return 0

    if mode == "run":
        result = measure(items, seconds)
    else:
        result = traced_pass(items, tracer)
        result["binding_mismatches"] = verify_bindings(items, tracer)
        result["attempted"] += len(items)

    import numpy
    import scipy
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
