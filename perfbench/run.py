"""midbox benchmark: one workload (or all four) against the engine in src/.

    python3 perfbench/run.py --workload fw-min --seed 1 --seconds 16 --trace 0

With --trace 0 it times untraced passes and prints the end-to-end metrics;
with --trace 1 it adds one traced pass and the layer micro-benchmarks and
prints the per-layer metrics. Every pass is checked for correctness; the
exit code is non-zero if any check fails. The last line of output is the
result as one JSON object; a fuller record, and with --trace 1 every span,
is written under perfbench/out/. See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
from time import perf_counter, perf_counter_ns

from measure import Clock, Recorder, percentile, rss_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

MEASURED_TRIALS = 3  # untraced passes counted, after one warm-up pass


def _commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed, wl):
    return {"commit": _commit(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "workload": wl.name, "counts": wl.counts}


def _trial(wl, rec, tracer=None):
    """Set up a fresh engine and make one timed pass: (setup ns, trial),
    both in reference-host time."""
    from workloads import Churn
    gc.collect()
    clock = Clock()
    clock.mark()
    t0 = perf_counter_ns()
    engine = wl.setup()
    t1 = perf_counter_ns()
    trial = wl.run(engine, rec, clock, tracer)
    trial.rss = rss_bytes()
    if trial.churn is None:
        # Rule updates on the loaded rule set, after the traffic.
        trial.churn = Churn(engine, wl.churn_lines, clock, tracer)
        trial.churn.run_idle()
    return clock.scaled(t0, t1), trial


class Tally:
    """Operations attempted and failed over every pass of a run: each
    offered packet and each rule update is one operation."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def check(self, trial):
        self.attempted += trial.packets + len(trial.churn.intervals)
        self.failed += self.wl.check(trial) + len(trial.churn.failures)


def end_to_end(wl, rec, seconds, tally):
    gc.collect()
    rss0 = rss_bytes()
    t_begin = perf_counter()
    setup_s, pps, raw_pps, latencies, updates = [], [], [], [], []
    n = 0
    while n < 1 + MEASURED_TRIALS or perf_counter() - t_begin < seconds:
        setup_ns, trial = _trial(wl, rec)
        if n == 0:
            rss_growth = trial.rss - rss0
        else:
            setup_s.append(setup_ns / 1e9)
            pps.append(trial.pps)
            raw_pps.append(trial.wall_clock_pps)
            for s in trial.streams:
                latencies.extend(s.latencies)
            updates.extend(trial.churn.ms())
        tally.check(trial)
        del trial
        n += 1
    latencies.sort()
    updates.sort()
    samples = {"trials": n - 1, "latencies": len(latencies),
               "rule_updates": len(updates),
               "wall_clock_pps": statistics.median(raw_pps)}
    metrics = {
        "pps": (statistics.median(pps), "packets/s"),
        "latency_us.p50": (percentile(latencies, 0.50) / 1e3, "us"),
        "latency_us.p90": (percentile(latencies, 0.90) / 1e3, "us"),
        "setup_s": (statistics.median(setup_s), "s"),
        "engine_rss_mb": (rss_growth / 2 ** 20, "MB"),
        "rule_update_ms.p50": (percentile(updates, 0.50), "ms"),
        "rule_update_ms.p90": (percentile(updates, 0.90), "ms"),
    }
    return metrics, samples


def per_layer(wl, rec, seconds, tally, seed, span_path):
    """One warm-up pass, untraced passes for the tracing-overhead baseline,
    one traced pass, then the micro-benchmarks."""
    from micro import micro_metrics
    from spans import Tracer, layer_metrics
    from workloads import tables_and_slow_rules
    untraced = []
    t_begin = perf_counter()
    n = 0
    while n < 3 or perf_counter() - t_begin < seconds / 2:
        _, trial = _trial(wl, rec)
        if n:
            untraced.append(trial.pps)
        tally.check(trial)
        del trial
        n += 1
    tracer = Tracer()
    tracer.install()
    try:
        _, trial = _trial(wl, rec, tracer)
    finally:
        tracer.uninstall()
    tally.check(trial)
    metrics = layer_metrics(tracer, trial.packets)
    tables, slow = tables_and_slow_rules(trial.engine)
    metrics["classifier.tables"] = (tables, "count")
    metrics["classifier.slow_rules"] = (slow, "count")
    metrics["trace.overhead_ratio"] = (statistics.median(untraced) / trial.pps, "ratio")
    del trial
    metrics.update(micro_metrics(seed))
    tracer.dump(span_path)
    return metrics, {"untraced_trials": len(untraced), "traced_trials": 1,
                     "spans": len(tracer.start)}


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[name](seed, workdir)
        rec = Recorder(wl.stream_capacity)
        # The pre-built traffic would not sit in a deployed engine's heap;
        # keep it out of the collector's work.
        gc.collect()
        gc.freeze()
        tally = Tally(wl)
        stem = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
        if trace:
            # One span file per workload, so repeated runs do not pile up.
            metrics, samples = per_layer(wl, rec, seconds, tally, seed,
                                         os.path.join(OUT, f"{name}.spans.tsv.gz"))
        else:
            metrics, samples = end_to_end(wl, rec, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(seed, wl)
    fail_ratio = tally.failed / tally.attempted
    for metric, (value, unit) in metrics.items():
        print(f"{name:<10} {metric:<34} {value:>16.4f} {unit}")
    print(f"{name:<10} {'fail_ratio':<34} {fail_ratio:>16.4f} ratio "
          f"({tally.failed}/{tally.attempted})")
    print("env " + json.dumps({**env, "samples": samples}))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    with open(stem + ".json", "w") as f:
        json.dump({**env, "samples": samples, "fail_ratio": fail_ratio,
                   "result": result}, f, indent=2)
    print(json.dumps(result))
    return result["correct"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["fw-min", "acl-churn", "nat", "tcp-opts", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "midbox", "__init__.py")):
        print(f"error: the midbox sources are not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    names = ["fw-min", "acl-churn", "nat", "tcp-opts"] \
        if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = run_one(name, args.seed, args.seconds, args.trace) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
