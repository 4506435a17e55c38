"""Benchmark of the chebotarev package: construct, raster and trace workloads.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 0 --seconds 35 --trace 0

One process, one thread, closed loop: the next op starts only after the
previous one has returned and been checked.  BLAS is pinned to one thread.
The ops of a workload run in whole rounds, one op per input, until
``--seconds`` have passed, so every run sees the same input mix.  With
``--trace 0`` the last line of standard output reports the end-to-end
metrics: op costs in units of a fixed reference work timed in the same run
(see reference.py), and set-up time in seconds at a fixed reference speed,
all measured in CPU time of the process.  With ``--trace 1`` rounds
alternate between untraced and traced (at least two of each) and the last
line reports the per-layer metrics.
The line before it records the environment and the set-up breakdown.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("construct", "raster", "trace")
#: Op, set-up and reference times are CPU time of this process.  The machine
#: is shared, and wall-clock time also counts the time the process waits for
#: a CPU while another one runs, which drifts from run to run.
clock = time.process_time
#: The reference work is timed between ops at most this often (wall clock).
REF_INTERVAL_S = 0.25
#: Set-up is reported in seconds at the machine speed where the reference
#: work takes this long, about its median on the 2-core Xeon the bounds were
#: set on: set-up in refs (see warm_up) times this.
NOMINAL_REF_S = 0.015
#: The reference work is timed this many times before the warm-up pass.
SETUP_REFS = 3


@dataclass
class Round:
    traced: bool
    ops: list = field(default_factory=list)        # global op indices
    latencies: list = field(default_factory=list)  # CPU seconds, program call only
    failures: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build_ops(workloads, workload, workdir, seed):
    specs, solutions = workloads.load_problems(ROOT / "fixtures")
    if workload == "construct":
        return workloads.construct_ops(specs, solutions, seed)
    paths = workloads.write_inputs(workdir / "inputs", ROOT / "fixtures", solutions)
    make = workloads.raster_ops if workload == "raster" else workloads.trace_ops
    return make(paths, workdir / "out", seed)


def run_op(op):
    """Time ``op.run`` alone; return (CPU seconds, failure message or None)."""
    start = clock()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is counted as failed
        latency = clock() - start
        traceback.print_exc(file=sys.stderr)
        return latency, f"{type(exc).__name__}: {exc}"
    latency = clock() - start
    try:
        return latency, op.check(result)
    except (OSError, ValueError, KeyError) as exc:
        return latency, f"output unreadable: {exc}"


def time_reference(reference_work):
    start = clock()
    reference_work()
    return clock() - start


def warm_up(ops, reference_work):
    """One pass over all ops, timed in seconds and in refs.

    The reference work is timed SETUP_REFS times before the pass and once
    after each op.  Each op counts in units of the mean of the reference
    times just before and just after it, which follows the drift of the
    machine's speed during the pass.  Returns the pass in seconds and in
    refs, its failures, and the median reference time before the pass.
    """
    refs = [time_reference(reference_work) for _ in range(SETUP_REFS)]
    before = refs[-1]
    seconds = in_refs = 0.0
    failures = []
    for op in ops:
        start = clock()
        failure = run_op(op)[1]
        spent = clock() - start
        after = time_reference(reference_work)
        seconds += spent
        in_refs += spent / ((before + after) / 2)
        before = after
        if failure is not None:
            failures.append(f"{op.label}: {failure}")
    return seconds, in_refs, failures, statistics.median(refs)


def measure(ops, seconds, recorder, reference_work):
    """Whole rounds until ``seconds`` have passed.

    Returns the rounds and the reference times sampled between ops.  With a
    recorder, odd rounds are traced, and the loop runs at least four rounds
    so that both kinds have two.
    """
    rounds = []
    refs = []
    last_ref = -REF_INTERVAL_S
    op_index = 0
    start = time.perf_counter()
    min_rounds = 1 if recorder is None else 4
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rnd = Round(traced=recorder is not None and len(rounds) % 2 == 1)
        tracing = recorder.installed() if rnd.traced else contextlib.nullcontext()
        with tracing:
            for op in ops:
                if rnd.traced:
                    recorder.begin_op(op_index)
                latency, failure = run_op(op)
                rnd.ops.append(op_index)
                rnd.latencies.append(latency)
                if failure is not None:
                    rnd.failures.append(f"{op.label}: {failure}")
                if time.perf_counter() - last_ref >= REF_INTERVAL_S:
                    refs.append(time_reference(reference_work))
                    last_ref = time.perf_counter()
                op_index += 1
        rounds.append(rnd)
    return rounds, refs


def ops_per_s(rounds):
    """Ops per CPU second of program time: the inverse of the mean op latency."""
    return sum(len(r.ops) for r in rounds) / sum(x for r in rounds for x in r.latencies)


def end_to_end(rounds, ref, setup_s, attempted, failed):
    """Op costs in refs, plus the same figures in CPU seconds for reading."""
    latencies = [x for r in rounds for x in r.latencies]
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "ops_per_ref": (ops_per_s(rounds) * ref, "1/ref"),
        "op_p50_ref": (deciles[4] / ref, "ref"),
        "op_p90_ref": (deciles[8] / ref, "ref"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    cpu_time = {"samples": len(latencies),
                "beyond_p90": sum(1 for x in latencies if x > deciles[8]),
                "ref_ms": 1e3 * ref,
                "ops_per_s": ops_per_s(rounds),
                "op_p50_ms": 1e3 * deciles[4],
                "op_p90_ms": 1e3 * deciles[8]}
    return metrics, cpu_time


def per_layer(rounds, recorder, ops_per_round):
    """Per-op layer metrics from the traced rounds.

    Counters come from the first traced round and must repeat exactly in
    every other one; self times are averaged over all traced ops.
    """
    traced = [r for r in rounds if r.traced]
    tallies = [spans.tally(recorder.spans, r.ops) for r in traced]
    counters = tallies[0][0]
    counters_repeat = all(t[0] == counters for t in tallies)
    traced_ops = ops_per_round * len(traced)
    metrics = {}
    for mod, fn in spans.LAYERS:
        name = f"{mod}.{fn}"
        calls = counters[f"{name}.calls"]
        metrics[f"{name}.calls"] = (calls / ops_per_round, "count")
        metrics[f"{name}.self_ms"] = (sum(t[1][name] for t in tallies) / traced_ops, "ms")
        if name in spans.KEYED:
            metrics[f"{name}.repeat_share"] = (
                counters[f"{name}.repeats"] / calls if calls else 0.0, "share")
        if name in spans.FAILING:
            metrics[f"{name}.fail_share"] = (
                counters[f"{name}.failures"] / calls if calls else 0.0, "share")
    metrics["arcs.trace.root_solves"] = (counters["arcs.trace.root_solves"] / ops_per_round,
                                         "count")
    untraced = [r for r in rounds if not r.traced]
    metrics["tracing.ops_per_s_ratio"] = (ops_per_s(traced) / ops_per_s(untraced), "ratio")
    return metrics, counters_repeat, counters


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(np, args):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "chebotarev").is_dir() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no src/chebotarev or fixtures/ to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = clock()
    import numpy as np
    import reference
    import workloads
    import_s = clock() - t0

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    c0 = clock()
    ops = build_ops(workloads, args.workload, workdir, args.seed)
    prepare_s = clock() - c0
    warmup_s, warmup_refs, warmup_failures, setup_ref = warm_up(ops, reference.reference_work)
    setup_s = ((import_s + prepare_s) / setup_ref + warmup_refs) * NOMINAL_REF_S

    recorder = spans.Recorder() if args.trace else None
    rounds, refs = measure(ops, args.seconds, recorder, reference.reference_work)
    failures = warmup_failures + [f for r in rounds for f in r.failures]
    attempted = len(ops) + sum(len(r.ops) for r in rounds)  # warm-up included
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)

    info = {"environment": environment(np, args),
            "setup": {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s,
                      "warmup_refs": warmup_refs, "ref_ms": 1e3 * setup_ref},
            "rounds": len(rounds), "ops_per_round": len(ops)}
    correct = not failures
    if args.trace:
        metrics, counters_repeat, counters = per_layer(rounds, recorder, len(ops))
        recorder.write(workdir / "spans.jsonl", t0)
        info["counters_per_round"] = counters
        info["counters_repeat"] = counters_repeat
        info["spans"] = str((workdir / "spans.jsonl").relative_to(ROOT))
        correct = correct and counters_repeat
    else:
        metrics, info["cpu_time"] = end_to_end(rounds, statistics.median(refs), setup_s,
                                               attempted, len(failures))
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
