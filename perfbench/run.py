#!/usr/bin/env python3
"""Closed-loop benchmark of daglattice: one process, one client.

    python3 perfbench/run.py --workload train-step|decode|cli-files \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory, so nothing needs installing or building. The next op
starts only when the previous one has returned. Inputs come from the seed
and are generated outside the timed region; every op's output is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run (see
README.md). The exit code is 1 when any output check failed, 2 when the
package source is missing.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 8  # fresh interpreters per run; setup_s is their median
COUNT_OPS = 14  # traced ops whose exact counters are averaged: two train-step cycles
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it

# (metric, unit, per-op key, scale)
PER_LAYER = (
    ("dp.self_ms_per_op", "ms", "dp.self_ns", 1e-6),
    ("dp.forward.calls_per_op", "count", "dp.forward.calls", 1),
    ("dp.backward.calls_per_op", "count", "dp.backward.calls", 1),
    ("dp.cells_per_op", "count", "dp.cells", 1),
    ("dp.computed_mb_per_op", "MB-computed", "dp.computed_bytes", 1e-6),
    ("dp.minor_faults_per_op", "count", "dp.minor_faults", 1),
    ("logspace.logsumexp.calls_per_op", "count", "logspace.logsumexp.calls", 1),
    ("logspace.self_ms_per_op", "ms", "logspace.self_ns", 1e-6),
    ("decode.self_ms_per_op", "ms", "decode.self_ns", 1e-6),
    ("decode.joint_viterbi.self_ms_per_op", "ms", "decode.joint_viterbi.self_ns", 1e-6),
    ("decode.best_path.self_ms_per_op", "ms", "decode.best_path.self_ns", 1e-6),
    ("decode.cells_per_op", "count", "decode.cells", 1),
    ("pipeline.self_ms_per_op", "ms", "pipeline.self_ns", 1e-6),
    ("lattice.save.self_ms_per_op", "ms", "lattice.save.self_ns", 1e-6),
    ("lattice.load.self_ms_per_op", "ms", "lattice.load.self_ns", 1e-6),
    ("lattice.validate.self_ms_per_op", "ms", "lattice.validate.self_ns", 1e-6),
    ("lattice.bytes_written_per_op", "count", "lattice.bytes_written", 1),
    ("lattice.bytes_read_per_op", "count", "lattice.bytes_read", 1),
    ("cli.self_ms_per_op", "ms", "cli.self_ns", 1e-6),
    ("cli.stdout_bytes_per_op", "count", "cli.stdout_bytes", 1),
    ("op.unattributed_ms_per_op", "ms", "op.unattributed_ns", 1e-6),
)


def reference_ms(repeats=5):
    """Median time of a fixed pure-Python plus numpy-exp loop that calls no
    daglattice code; a slow machine shows here, a slow change does not."""
    import numpy as np

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        x = np.linspace(-1.0, 1.0, 4096)
        for _ in range(900):
            x = np.exp(-x * x)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def tail(latencies):
    """(percentile, value, samples beyond): the highest of TAIL_PERCENTILES,
    by nearest rank, that leaves at least TAIL_BEYOND samples beyond it, or
    the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def cold_start(name, seed, index, trace, workdir):
    """One fresh interpreter: (setup_s, lattice layer's set-up ms, cold op's
    output check). A child that fails raises, so the run ends without a
    result."""
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           os.path.join(HERE, "coldstart.py"), name, str(seed), str(index), str(int(trace)), workdir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # -X importtime lines: "import time: self_us | cumulative_us | module"
    import_us = sum(int(line.split("|")[0].split(":")[1])
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")
                    and line.split("|")[-1].strip() == "daglattice.lattice")
    return report["setup_s"], import_us / 1e3 + report["lattice_ms"], report["ok"]


def run_loop(wl, seed, seconds, tracer=None, tamper=None):
    """Closed loop for `seconds` of wall time. With a tracer, ops come in
    pairs of one shape, one traced and one not, in alternating order, and
    the loop runs at least COUNT_OPS traced ops. `tamper(index, workload,
    output)` lets the self-test replace an op's output with a stub's."""
    lat_ns, ok, traced, untraced_ns = [], 0, [], {}
    start = time.perf_counter()
    i = 0
    while True:
        pair_done = tracer is None or i % 2 == 0
        if (pair_done and i > 0 and time.perf_counter() - start >= seconds
                and len(traced) >= (COUNT_OPS if tracer else 0)):
            break
        shape_index = i // 2 if tracer else i
        x = wl.make_input(seed, i, wl.shape(shape_index))
        trace_this = tracer is not None and (i % 2 == 0) == (shape_index % 2 == 0)
        if trace_this:
            tracer.begin_op(i)
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(x)
            if tamper is not None:
                out = tamper(i, wl, out)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            out, error = None, exc
        dt = time.perf_counter_ns() - t0
        if trace_this:
            tracer.end_op(dt, {} if out is None else wl.op_counters(out))
            traced.append((i, shape_index))
        elif tracer is not None:
            untraced_ns[shape_index] = dt
        lat_ns.append(dt)
        try:
            good = error is None and bool(wl.check(x, out))
        except Exception as exc:
            good, error = False, exc
        if good:
            ok += 1
        else:
            print(f"op {i}: output check failed: {error!r}" if error else f"op {i}: output check failed",
                  file=sys.stderr)
        i += 1
    return {"lat_ns": lat_ns, "attempted": i, "ok": ok, "traced": traced, "untraced_ns": untraced_ns}


def layer_metrics(tracer, loop):
    """Per-layer metrics: times averaged over every traced op, exact counters
    over the first COUNT_OPS traced ops, so they repeat for a seed."""
    import layertrace

    rows = tracer.per_op()
    for row in rows.values():
        row["op.unattributed_ns"] = row["op.ns"] - row["op.spanned_ns"]
    traced = [op for op, _ in loop["traced"]]
    counted = traced[:COUNT_OPS]
    metrics = {}
    for metric, unit, key, scale in PER_LAYER:
        ops = counted if key in layertrace.EXACT_COUNTS else traced
        metrics[metric] = {"value": sum(rows[op].get(key, 0) for op in ops) / len(ops) * scale,
                           "unit": unit}
    paired = [(rows[op]["op.ns"], loop["untraced_ns"][shape])
              for op, shape in loop["traced"] if shape in loop["untraced_ns"]]
    overhead = (sum(t for t, _ in paired) / sum(u for _, u in paired) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def run(name, seed, seconds, trace, tamper=None):
    """One benchmark run: returns (result object, human-readable lines).
    Expects SRC and HERE on sys.path."""
    import daglattice
    import workloads

    if not os.path.realpath(daglattice.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"daglattice imported from {daglattice.__file__}, not from {SRC}")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ref_before = reference_ms()
        oracle_ok = workloads.oracle_cross_check(seed)
        # half the cold starts run before the loop and half after it, so that
        # setup_s samples two phases of the machine's speed drift; none runs
        # inside the loop, where it would change the allocator's history
        cold = [cold_start(name, seed, k, trace, workdir) for k in range(SETUP_RUNS // 2)]
        # the warm-up op also refills the caches the fresh interpreters evicted
        wl = workloads.make(name, workdir)
        warm = wl.make_input(seed, workloads.RESERVED_INDEX, wl.shape(0))
        warm_ok = bool(wl.check(warm, wl.run(warm)))
        tracer = None
        if trace:
            import layertrace

            tracer = layertrace.Tracer()
        loop = run_loop(wl, seed, seconds, tracer, tamper)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cold += [cold_start(name, seed, k, trace, workdir) for k in range(SETUP_RUNS // 2, SETUP_RUNS)]
        ref_after = reference_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, ok = loop["attempted"], loop["ok"]
    setup_s = statistics.median(c[0] for c in cold)
    cold_ok = all(c[2] for c in cold)
    lines = [f"{name} seed={seed}: {attempted} ops, {ok} passed output checks; "
             f"cold-start checks {'ok' if cold_ok else 'FAILED'}, "
             f"oracle cross-check {'ok' if oracle_ok else 'FAILED'}, "
             f"warm-up op {'ok' if warm_ok else 'FAILED'}",
             f"machine.ref_ms before={ref_before:.3f} after={ref_after:.3f}"]
    if trace:
        metrics = layer_metrics(tracer, loop)
        metrics["lattice.setup_ms"] = {"value": statistics.median(c[1] for c in cold), "unit": "ms"}
        metrics["machine.ref_ms"] = {"value": (ref_before + ref_after) / 2, "unit": "ms"}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        lat = loop["lat_ns"]
        pct, tail_ns, beyond = tail(lat)
        metrics = {
            "ops_per_s": {"value": ok / (sum(lat) / 1e9), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat) / 1e6, "unit": "ms"},
            "latency_tail_ms": {"value": tail_ns / 1e6, "unit": "ms"},
            "ok_rate": {"value": ok / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        lines.append(f"latency_tail_ms is p{pct:g} of {len(lat)} op latencies "
                     f"({beyond} beyond it)")
    lines += [f"{name:>10}  {metric:<36} {m['value']:.6g} {m['unit']}" for metric, m in metrics.items()]
    correct = ok == attempted and cold_ok and oracle_ok and warm_ok
    result = {"correct": correct, "attempted": attempted, "failed": attempted - ok,
              "metrics": metrics}
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-step", "decode", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "daglattice", "__init__.py")):
        print(f"error: no daglattice package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
