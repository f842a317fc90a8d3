"""Benchmark for biquot: seeded workloads run through the public entry points.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; biquot is imported from ``src/``.
``--trace 0`` times whole passes over the workload's job list and prints the
end-to-end metrics; ``--trace 1`` runs one traced pass between two untraced
ones and prints the per-layer metrics.  Outputs are checked after the
timed region.  The last line of stdout is one JSON object; lines before it
starting with ``#`` give details (raw wall times, tail percentile, sample
counts, failures).

End-to-end times are rescaled to a reference host speed; see hostspeed.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

from checks import check_job, load_digests
from hostspeed import HostClock
from tracer import Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, run_job

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("cli", "freeness", "lattices", "polyring", "cohomology", "weights",
           "classifier", "refchecks", "constructions")
SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def load_api():
    """Import biquot from the checkout afresh and return its modules."""
    for name in [k for k in sys.modules
                 if k == "biquot" or k.startswith("biquot.")]:
        del sys.modules[name]
    api = types.SimpleNamespace(**{
        m: importlib.import_module("biquot." + m) for m in MODULES})
    if not Path(api.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError("biquot was not imported from %s" % SRC)
    return api


def setup(workload, seed):
    """Import, generate the inputs and warm up; return (seconds, api, jobs)."""
    t0 = perf_counter()
    api = load_api()
    jobs = WORKLOADS[workload]["jobs"](seed, api)
    code, _ = run_job(api, WORKLOADS[workload]["warmup"])
    if code != 0:
        raise RuntimeError("warm-up job exited with %d" % code)
    return perf_counter() - t0, api, jobs


def run_pass(api, jobs, results, times, tracer=None, clock=None):
    """One closed-loop pass over the job list; returns its wall time.

    Appends each job's outcome to results[job id] and its time to
    times[job id]: seconds, or with a HostClock, HostClock.interval()."""
    t0 = perf_counter()
    for job in jobs:
        if clock:
            clock.sample()
        sid = tracer.begin("job", job.id) if tracer else None
        mark = clock.mark() if clock else perf_counter()
        try:
            outcome = run_job(api, job)
        except Exception:
            outcome = (None, traceback.format_exc())
        times.setdefault(job.id, []).append(
            clock.interval(mark) if clock else perf_counter() - mark)
        if tracer:
            tracer.finish(sid)
        results[job.id].append(outcome)
    if clock:
        clock.sample()
    return perf_counter() - t0


def evaluate(api, workload, jobs, results):
    """Check each job's first output and that later ones repeat it exactly.

    Returns (executions attempted, executions failed, {job id: problems}).
    """
    digests = load_digests(workload)
    attempted = failed = 0
    problems = {}
    for job in jobs:
        runs = results[job.id]
        attempted += len(runs)
        code, text = runs[0]
        if code is None:
            found = ["raised:\n" + text]
        else:
            found = check_job(api, job, code, text, digests)
        if any(r != runs[0] for r in runs[1:]):
            found.append("output differs between runs")
        if found:
            failed += len(runs)
            problems[job.id] = found
    return attempted, failed, problems


def tail(samples, percentile):
    """(percentile, value) by nearest rank; falls back down TAIL_LADDER
    while fewer than 10 samples lie beyond the percentile."""
    s = sorted(samples)
    n = len(s)
    for p in (percentile,) + tuple(x for x in TAIL_LADDER if x < percentile):
        k = math.ceil(p / 100 * n)
        if n - k >= 10:
            return p, s[k - 1]
    return 50.0, s[math.ceil(n / 2) - 1]


def measure(workload, seed, seconds):
    raw_setups, setups, walls = [], [], []
    timed = {}
    with HostClock() as clock:
        for _ in range(SETUP_REPEATS):
            clock.sample()
            mark = clock.mark()
            dt, api, jobs = setup(workload, seed)
            raw_setups.append(dt)
            setups.append(clock.interval(mark))
            clock.sample()
        results = {job.id: [] for job in jobs}
        start = perf_counter()
        while True:     # whole passes only, while another one fits
            # a fresh order each pass, so that no job always runs after the
            # same one (caches and allocator state carry over between jobs)
            order = random.Random("%s:%d:%d" % (workload, seed, len(walls)))
            walls.append(run_pass(api, order.sample(jobs, len(jobs)),
                                  results, timed, clock=clock))
            if perf_counter() - start + statistics.median(walls) > seconds:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = evaluate(api, workload, jobs, results)
    per_job = {j: [clock.rescale(iv) for iv in ivs]
               for j, ivs in timed.items()}
    passes = [sum(per_job[job.id][i] for job in jobs)
              for i in range(len(walls))]
    samples = [t for ts in per_job.values() for t in ts]
    p, tail_s = tail(samples, WORKLOADS[workload]["tail_percentile"])
    print("# %s seed %d: %d passes of %d jobs; wall time per pass %s s; "
          "rescaled %s s"
          % (workload, seed, len(walls), len(jobs),
             " ".join("%.3f" % w for w in walls),
             " ".join("%.3f" % w for w in passes)))
    print("# reference slice %.3f ms median of %d samples; setup wall "
          "times %s s" % (statistics.median(clock.slices) * 1e3,
                          len(clock.slices),
                          " ".join("%.4f" % s for s in raw_setups)))
    print("# job_tail_ms is p%g of %d job samples" % (p, len(samples)))
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "job_p50_ms": (statistics.median(
            statistics.median(ts) for ts in per_job.values()) * 1000, "ms"),
        "job_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (statistics.median(clock.rescale(iv) for iv in setups),
                    "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return attempted, failed, problems, metrics


def measure_traced(workload, seed):
    """One traced pass between two untraced ones.  The host-speed sampler
    runs throughout, so span times include its ~3% share; the overhead
    compares rescaled pass times."""
    tracer = Tracer()
    with HostClock() as clock:
        _, api, jobs = setup(workload, seed)
        plain = {job.id: [] for job in jobs}
        traced = {job.id: [] for job in jobs}

        def timed_pass(job_list, results, tracer=None):
            mark = clock.mark()
            run_pass(api, job_list, results, {}, tracer)
            return clock.rescale(clock.interval(mark))

        before = timed_pass(jobs, plain)
        tracer.install()
        try:
            sid = tracer.begin("setup")
            traced_jobs = WORKLOADS[workload]["jobs"](seed, api)
            tracer.finish(sid)
            wall_traced = timed_pass(traced_jobs, traced, tracer)
        finally:
            tracer.restore()
        wall_plain = (before + timed_pass(jobs, plain)) / 2
    results = {job.id: plain[job.id] + traced[job.id] for job in jobs}
    attempted, failed, problems = evaluate(api, workload, jobs, results)
    if [j.input_digest() for j in traced_jobs] != \
            [j.input_digest() for j in jobs]:
        problems["*"] = ["traced pass generated different inputs"]
    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / ("%s-seed%d.spans" % (workload, seed)))
    metrics = layer_metrics(summary, tracer.counts, wall_traced, wall_plain)
    layers = {}
    for name, (_, _, self_s) in summary.items():
        layer = name.split(".")[0] if "." in name else "benchmark"
        layers[layer] = layers.get(layer, 0.0) + self_s
    print("# %s seed %d: traced pass %.3f s, untraced %.3f s (rescaled), "
          "%d spans" % (workload, seed, wall_traced, wall_plain,
                        len(tracer.start)))
    jobs_s = summary["job"][1]      # raw seconds, like the other spans
    print("# self time share of the traced pass by layer: " + ", ".join(
        "%s %.3f" % (k, v / jobs_s)
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    top = sorted(summary.items(), key=lambda kv: -kv[1][2])[:6]
    print("# largest self times: " + ", ".join(
        "%s %.3f s" % (k, v[2]) for k, v in top))
    by_job = tracer.calls_by_label("lattices.hnf")
    print("# lattices.hnf calls in the jobs that make most: " + ", ".join(
        "%s %d" % kv for kv in sorted(by_job.items(), key=lambda kv: -kv[1])
        [:4]))
    units = {"calls": "count", "out_len": "count", "elements": "count",
             "elements_per_s": "1/s"}
    out = {}
    for name, value in metrics.items():
        suffix = name.rsplit(".", 1)[1]
        unit = units.get(suffix, "s" if suffix.endswith("_s") else "ratio")
        out[name] = (value, unit)
    return attempted, failed, problems, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "biquot" / "__init__.py").is_file():
        print("perfbench: no biquot sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.trace:
        attempted, failed, problems, metrics = measure_traced(
            args.workload, args.seed)
    else:
        attempted, failed, problems, metrics = measure(
            args.workload, args.seed, args.seconds)
    for jid, found in sorted(problems.items()):
        for problem in found:
            print("# FAILED %s: %s"
                  % (jid, problem.replace("\n", "\n# ")))
            print("perfbench: %s failed: %s" % (jid, problem), file=sys.stderr)
    print("# failed_frac %.6f (%d of %d job runs)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
