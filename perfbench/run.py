"""monoalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the workload's inputs from the seed
(several times, to time set-up), runs the workload in this one process,
with CLI verbs as subprocesses one at a time, and checks every answer
against a reference.  Times are taken on `hostclock`, which pins the run
to one CPU and scales real time by that CPU's measured speed.  Passes repeat while another one still fits in S
seconds.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the metrics are the
end_to_end ones of BENCHMARK.json, with --trace 1 the per_layer ones, from
one traced pass run after an untraced one.  The line before it lists the
failed operations and the figures behind the metrics.  The exit code is 0
when every answer is right, 1 on a wrong answer and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from statistics import median

import hostclock
from harness import Runner, Tracer, p50, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = {
    "large-tables": "large_tables",
    "orbit-groups": "orbit_groups",
    "corpus-sweep": "corpus_sweep",
}
# Set-up repeats before and again after the passes, and a short set-up also
# at points spread over the first pass (with its clock paused), so that the
# median does not rest on one stretch of time: the host's CPU speed drifts.
SETUP_REPEATS, SETUP_SECONDS = 2, 0.5
SHORT_SETUP_S, SETUP_IN_PASS = 0.05, 100


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_once(module, seed, workdir, tracer=None):
    """(seconds, inputs) of one set-up."""
    run = Runner(ROOT, tracer)
    t0 = hostclock.now()
    inputs = module.setup(run, random.Random(seed), workdir)
    seconds = hostclock.now() - t0
    if run.failures:
        raise RuntimeError(f"set-up failed: {run.failures}")
    return seconds, inputs


def _setup(module, seed, workdir, trace):
    """Set the inputs up at least SETUP_REPEATS times and until SETUP_SECONDS
    have passed; the times, and the inputs and tracer of the last
    repetition."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        inputs = None
        tracer = Tracer() if trace else None
        seconds, inputs = _setup_once(module, seed, workdir, tracer)
        times.append(seconds)
    return times, inputs, tracer


def _passes(module, inputs, seconds, traced, between=()):
    """Untraced passes while another fits in `seconds` (one when traced).
    The first pass also runs the calls in `between`, untimed, spread over
    it."""
    run, cache, walls, spent = Runner(ROOT), {}, [], []

    def untimed(fn):
        def call():
            with run.untimed():
                fn()
        return call

    between = [untimed(fn) for fn in between]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        walls.append(run.timed_pass(lambda r: module.run_pass(r, inputs, cache, between)))
        spent.append(time.perf_counter() - t0)
        between = []
        if traced or time.perf_counter() - start + median(spent) > seconds:
            return run, walls, spent, cache


def _layer_value(name, tracer, run, extra):
    """Value of one per_layer metric of BENCHMARK.json."""
    if name in extra:
        return extra[name]
    if name in tracer.counters:
        return tracer.counters[name]
    base, _, kind = name.rpartition(".")
    if kind == "s":
        return tracer.totals.get(base, [0.0, 0])[0]
    if kind == "calls":
        return tracer.totals.get(base, [0.0, 0])[1]
    if kind == "self_s":
        return tracer.self_seconds().get(base, 0.0)
    if kind in ("failed", "refused"):
        return sum(1 for f in run.failures if f["op"] == base or f["op"].startswith(base + "."))
    if kind in ("auts", "tuples_labelled"):
        return 0
    raise KeyError(f"no rule for per-layer metric {name!r}")


def _ms(seconds):
    return None if seconds is None else seconds * 1000


def _summary(run, walls, spent):
    failures = Counter((f["op"], f["input"], f["error"]) for f in run.failures)
    return {
        "passes": len(walls),
        "wall_s_per_pass": walls,
        "real_s_per_pass": spent,
        "speed_quartiles": hostclock.speed_quartiles(),
        "fail_ratio": len(run.failures) / run.attempted,
        "failures": [
            {"op": op, "input": inp, "error": err, "times": k} for (op, inp, err), k in sorted(failures.items())
        ],
        "cli_samples": len(run.cli_seconds),
        "cli_p50_ms": _ms(p50(run.cli_seconds)),
        "class_samples": len(run.class_seconds),
        "class_p50_ms": _ms(p50(run.class_seconds)),
        "class_tail_ms": _ms(tail(run.class_seconds)),
        "wrong": run.wrong[:20],
    }


def measure(module, args, workdir, spec):
    setup_times, inputs, tracer = _setup(module, args.seed, workdir, args.trace)
    between = []
    if not args.trace and median(setup_times) < SHORT_SETUP_S:
        between = [lambda: setup_times.append(_setup_once(module, args.seed, workdir)[0])] * SETUP_IN_PASS
    run, walls, spent, cache = _passes(module, inputs, args.seconds, args.trace, between)
    summary = _summary(run, walls, spent)
    runs = [run]
    if args.trace:
        traced = Runner(ROOT, tracer)
        traced_wall = traced.timed_pass(lambda r: module.run_pass(r, inputs, cache))
        runs.append(traced)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        found = tracer.counters.get("iso.brute_force_automorphisms.found", 0)
        tried = tracer.counters.get("iso.brute_force_automorphisms.tried", 0)
        enum_s = tracer.totals.get("enumeration.enumerate_up_to_iso", [0.0])[0]
        extra = {
            "trace.overhead_s": traced_wall - median(walls),
            "trace.spans": len(tracer.spans),
            "iso.brute_force_automorphisms.yield": found / tried if tried else 0.0,
            "enumeration.classes_per_s": tracer.counters.get("enumeration.classes", 0) / enum_s if enum_s else 0.0,
            "fail_ratio": summary["fail_ratio"],
            "cli_samples": summary["cli_samples"],
            "class_samples": summary["class_samples"],
            "class_p50_ms": summary["class_p50_ms"] or 0.0,
            "class_tail_ms": summary["class_tail_ms"] or 0.0,
        }
        metrics = {
            m["name"]: {"value": _layer_value(m["name"], tracer, traced, extra), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        inputs = cache = None
        setup_times += _setup(module, args.seed, workdir, False)[0]
        values = {
            "setup_s": median(setup_times),
            "wall_s": median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cli_p50_ms": summary["cli_p50_ms"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    wrong = [w for r in runs for w in r.wrong]
    for w in wrong:
        print(f"wrong answer: {w}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "setup_repeats": len(setup_times), **summary}))
    return {
        "correct": not wrong,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(len(r.failures) for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json next to perfbench/: {exc}", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "monoalg", "__init__.py")):
        print(f"error: no monoalg package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    module = importlib.import_module(WORKLOADS[args.workload])
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    hostclock.start()
    try:
        result = measure(module, args, workdir, spec)
    finally:
        hostclock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
