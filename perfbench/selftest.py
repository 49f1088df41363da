#!/usr/bin/env python3
"""Self-test of the benchmark itself, not of daglattice.

    python3 perfbench/selftest.py

1. Wrong outputs lower ok_rate. On every workload a stub in this file
   replaces the output of every third op with a wrong one and makes every
   third op raise. The run must finish and report itself incorrect, and
   exactly the untouched ops may pass their output checks.
2. Exact counters repeat. Two traced runs with the same seed must give
   identical values for every counter in layertrace.EXACT_COUNTS.

Prints one line per check and exits 1 if any fails.
"""

import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class StubFailure(RuntimeError):
    pass


def wrong_output(wl, out):
    """A deliberately wrong version of a correct op output."""
    if wl.name == "train-step":
        return {**out, "d_emit": out["d_emit"] * 1.01}
    if wl.name == "decode":
        jv, la = out
        return dataclasses.replace(jv, joint_logprob=jv.joint_logprob + 1e-6), la
    (code, text), *rest = out
    report = json.loads(text)
    report["outputs"]["nll"] += 1e-9
    return [(code, json.dumps(report)), *rest]


def stub(index, wl, out):
    if index % 3 == 1:
        return wrong_output(wl, out)
    if index % 3 == 2:
        raise StubFailure("stubbed op failure")
    return out


def check_stub_lowers_ok_rate(name):
    result, _ = run.run(name, seed=0, seconds=1.0, trace=False, tamper=stub)
    attempted = result["attempted"]
    expected = len(range(0, attempted, 3))
    ok_rate = result["metrics"]["ok_rate"]["value"]
    passed = (attempted >= 3 and not result["correct"]
              and result["failed"] == attempted - expected and ok_rate == expected / attempted)
    print(f"{'PASS' if passed else 'FAIL'}: {name} stubbed outputs: ok_rate {ok_rate:.4f}, "
          f"expected {expected}/{attempted}, correct={result['correct']}")
    return passed


def check_counters_repeat(wl):
    runs = []
    for _ in range(2):
        tracer = layertrace.Tracer()
        loop = run.run_loop(wl, seed=3, seconds=0.0, tracer=tracer)
        metrics = run.layer_metrics(tracer, loop)
        runs.append({metric: metrics[metric]["value"] for metric, _, key, _ in run.PER_LAYER
                     if key in layertrace.EXACT_COUNTS})
    passed = runs[0] == runs[1] and any(runs[0].values())
    diff = {k: (v, runs[1][k]) for k, v in runs[0].items() if runs[1][k] != v}
    print(f"{'PASS' if passed else 'FAIL'}: {wl.name} exact counters repeat for a seed"
          + (f"; differing: {diff}" if diff else ""))
    return passed


def main():
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        results = []
        for name in workloads.NAMES:
            results.append(check_stub_lowers_ok_rate(name))
            results.append(check_counters_repeat(workloads.make(name, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
