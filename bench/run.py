"""cstarpres benchmark entry point.

    python3 bench/run.py --workload check_corpus --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in fresh child processes with BLAS
and OpenMP pinned to one thread, and prints one JSON line per section:
an `info` line (environment, equivalence digests, extra metrics) and, as
the last line, the result with `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics; `--trace 1` runs
an untraced reference, then a traced pass, and reports the per-layer
metrics and the tracing slowdown.  Exits 1 when a correctness check
fails and 2 when the program or a child process cannot be run.  Nothing
is written to disk.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, sha256  # noqa: E402

SETUP_SAMPLES = 5          # set-up is timed this many times per run
RUN_LIMIT = 170.0          # children still running this long after start are killed
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")

PER_LAYER = (
    ("bounds.context_from_relations", ("calls", "s")),
    ("bounds.norm_bound", ("calls", "s")),
    ("bounds.interval", ("calls", "s")),
    ("scripts.build_derivation", ("s",)),
    ("tietze.check_derivation", ("s",)),
    ("tietze.apply_move", ("calls",)),
    ("fcalc.instantiate_schema", ("calls", "s")),
    ("tietze.search_certificate", ("calls", "s")),
    ("terms.NF.mul", ("calls", "s")),
    ("terms.star", ("calls",)),
    ("terms.substitute", ("calls",)),
    ("parser.parse_term", ("calls", "s")),
    ("presentation.load_presentation", ("s",)),
    ("fcalc.builtin_registry", ("s",)),
    ("repsearch.search_feasible", ("s",)),
    ("repsearch.eval_term", ("calls", "s")),
    ("repsearch.eigh", ("calls",)),
    ("repsearch.polish", ("s",)),
)
COUNTERS = ("exact.XS.new", "exact.Coeff.complex")


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, mode: str, seconds: float) -> tuple[float, dict | None]:
    """Start one child; returns (seconds from start to READY, result).
    The child is killed once the run's deadline passes."""
    cmd = [sys.executable, "-B", os.path.join(HERE, "child.py"),
           args.workload, str(args.seed), str(seconds), mode]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    watchdog = threading.Timer(max(0.0, args.deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready, result = None, None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise ChildError("%s child for %s exited with code %s"
                         % (mode, args.workload, code))
    return ready, result


def per_item_medians(result: dict) -> list[float]:
    return [statistics.median(rec["latencies"])
            for rec in result["items"].values()]


def tail(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten values beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    v = sorted(values)
    return {"percentile": pct, "n": n,
            "value": v[min(n - 1, int(pct / 100 * n))]}


def workload_info(name: str, result: dict, wall: float) -> dict:
    items = result["items"]
    stats = [rec["stats"] for rec in items.values() if rec["stats"]]
    info = {}
    if name == "check_corpus":
        info["replay_digests"] = {k: r["digest"] for k, r in items.items()}
        info["moves_replayed"] = sum(s["moves"] for s in stats)
    elif name.startswith("search_"):
        restarts = sum(s["restarts"] for s in stats)
        feasible = sum(s["feasible"] for s in stats)
        ratios = [s["tightness"] for s in stats if "tightness" in s]
        counts: dict = {}
        for st in stats:
            counts.setdefault(st["pres"], []).append(st["feasible"])
        info.update({
            "feasible_frac": feasible / restarts if restarts else None,
            "s_per_feasible": wall / feasible if feasible else None,
            "sandwich_tightness": statistics.mean(ratios) if ratios else None,
            "feasible_counts": counts,
            "feasible_counts_digest": sha256(json.dumps(counts,
                                                         sort_keys=True)),
        })
    elif name == "simplify_random":
        info["relations_removed"] = sum(s["removed"] for s in stats)
    info["combined_digest"] = sha256("".join(
        r["digest"] or "" for r in items.values()))
    return info


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def failures_of(*results) -> list:
    return [f for r in results for f in r["failures"]]


def end_to_end(args) -> tuple[dict, dict, dict]:
    setups = [run_child(args, "setup", 0)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready, result = run_child(args, "run", args.seconds)
    setups.append(ready)
    medians = per_item_medians(result)
    wall = sum(medians)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (result["rss_mb"], "MiB"),
    }
    info = workload_info(args.workload, result, wall)
    info.update({"setup_samples_s": setups, "passes": result["passes"],
                 "items": len(medians),
                 "item_p50_s": statistics.median(medians),
                 "item_tail_s": tail(medians),
                 "fail_frac": len(failures_of(result)) / result["attempted"]})
    return metrics, info, result


def per_layer(args) -> tuple[dict, dict, dict, dict]:
    _, ref = run_child(args, "run", 0)  # one untraced pass
    _, traced = run_child(args, "trace", args.seconds)
    layers = traced["layers"]
    metrics = {}
    for name, kinds in PER_LAYER:
        row = layers.get(name, {"calls": 0, "spans": 0, "self_s": 0.0})
        for kind in kinds:
            if kind == "calls":
                value = row["spans"] if name == "repsearch.eval_term" \
                    else row["calls"]
                metrics[name + ".calls"] = (value, "count")
            else:
                metrics[name + ".s"] = (row["self_s"], "s")
    cert = layers.get("tietze.search_certificate", {"calls": 0})
    metrics["tietze.search_certificate.none_frac"] = (
        traced["counters"]["cert_none"] / cert["calls"] if cert["calls"]
        else 0.0, "ratio")
    metrics["repsearch.polish.nfev"] = (traced["counters"]["nfev"], "count")
    for name in COUNTERS:
        metrics[name] = (layers.get(name, {"calls": 0})["calls"], "count")
    traced_wall = sum(per_item_medians(traced))
    ref_wall = sum(per_item_medians(ref))
    metrics["trace.slowdown"] = (traced_wall / ref_wall, "ratio")

    by_self = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    info = {"untraced_wall_s": ref_wall, "traced_wall_s": traced_wall,
            "spans": traced["counters"]["spans"],
            "self_s_top": {k: round(v["self_s"], 4) for k, v in by_self[:15]},
            "binding_mismatches": traced["binding_mismatches"]}
    return metrics, info, ref, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = perf_counter() + RUN_LIMIT

    if not os.path.isfile(os.path.join(ROOT, "src", "cstarpres",
                                       "__init__.py")):
        print("bench: no cstarpres sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, info, *results = per_layer(args)
            if info["binding_mismatches"]:
                results[-1]["failures"].append(
                    {"item": "trace", "problems": ["wrappers missed calls"]})
        else:
            metrics, info, *results = end_to_end(args)
    except ChildError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2

    failures = failures_of(*results)
    attempted = sum(r["attempted"] for r in results)
    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "git_sha": git_sha(),
                 "versions": results[0]["versions"],
                 "nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0)),
                 "failures": failures[:20]})
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
