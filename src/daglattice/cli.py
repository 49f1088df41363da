"""Command-line surface: every library operation bound to files.

Every command loads its files, runs and reports through `_run`. stdout
carries exactly one JSON object per invocation; diagnostics go to stderr.
Exit codes: 0 success, 2 parse error, 3 infeasible target (after the report
when an NLL is +inf), 4 dimension/shape error, 1 internal error.
"""

import argparse
import functools
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from . import decode, dp, oracle, pipeline
from .lattice import (
    DimensionError,
    LatticeFormatError,
    build_random,
    integer_at_least,
    load_integers,
    load_lattice,
    load_numbers,
    load_target,
    validate,
)

EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_SHAPE = 4

# each `bench` repeat times enough single calls per size to last at least
# this long, so that its statistics never rest on a few sub-millisecond calls
BENCH_SAMPLE_S = 0.005
BENCH_VOCAB = 16  # the vocabulary of bench's random lattices and targets


def _render(value, pretty, indent=0):
    """JSON with floats at 17 significant digits and infinities as strings."""
    pad = "  " * (indent + 1) if pretty else ""
    end = "\n" if pretty else ""
    sep = "," + (end if pretty else " ")
    close_pad = "  " * indent if pretty else ""
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sep.join(
            f"{pad}{json.dumps(str(k))}: {_render(v, pretty, indent + 1)}"
            for k, v in value.items()
        )
        return "{" + end + items + end + close_pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = sep.join(f"{pad}{_render(v, pretty, indent + 1)}" for v in value)
        return "[" + end + items + end + close_pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        if math.isnan(v):
            return '"nan"'
        return format(v, ".17g")
    if value is None:
        return "null"
    return json.dumps(str(value))


def _exit_for(nll_value):
    """The exit code of a report that carries an NLL: infeasible when +inf."""
    return EXIT_INFEASIBLE if math.isinf(nll_value) else 0


def cmd_score(args, lat, target):
    value = dp.nll(lat, target)
    return {"nll": value, "log_marginal": -value}, _exit_for(value)


def cmd_posterior(args, lat, target):
    post = dp.posterior(lat, target, with_pairwise=args.pairwise)
    outputs = {"gamma": post.gamma.tolist()}
    if post.xi is not None:
        outputs["xi"] = post.xi.tolist()
    return outputs


def cmd_expect(args, lat, target):
    return {"expected_states": dp.expected_states(lat, target).z.tolist()}


def cmd_bestpath(args, lat, target):
    path, score = decode.best_path(lat, target)
    return {"path": list(path.one_based()), "score": score}


def cmd_glance(args, lat, target):
    ga = decode.glance_assign(lat, target, args.tau, args.seed)
    return {
        "path": list(ga.path.one_based()),
        "observed_mask": [bool(b) for b in ga.observed_mask],
        "tau": ga.tau,
        "unmasked": int(ga.observed_mask.sum()),
    }


def cmd_decode(args, lat, target):
    if args.strategy == "lookahead":
        result = decode.lookahead(lat, args.max_steps)
    else:
        result = decode.joint_viterbi(lat, length_select=args.length_select)
    return {
        "strategy": args.strategy,
        "path": list(result.path.one_based()),
        "tokens": [int(t) for t in result.tokens.tokens],
        "joint_logprob": result.joint_logprob,
        "truncated": result.truncated,
    }


def cmd_gradcheck(args, lat, target):
    from .gradcheck import finite_difference_check

    return finite_difference_check(lat, target, step=args.step)


def cmd_oracle(args, lat, target):
    if args.mode != "argmax" and (target is None or args.length is not None):
        raise ValueError(f"--mode {args.mode} takes --target and no --length")
    if args.mode == "logprob":
        lm = oracle.enumerate_logprob(lat, target)
        return {"log_marginal": lm, "nll": -lm}, _exit_for(-lm)
    if args.mode == "posterior":
        post = oracle.enumerate_posterior(lat, target)
        return {"gamma": post.gamma.tolist(), "xi": post.xi.tolist()}
    path, toks, score = oracle.enumerate_argmax(lat, target, args.length)
    return {"path": [v + 1 for v in path], "tokens": [int(t) for t in toks], "score": score}


def cmd_pipeline(args, lat, target):
    if (lat is None) != (target is None):
        raise ValueError("--target is required with --lattice" if target is None
                         else "--lattice is required with --target")
    frames = pipeline.length_regulate(load_numbers(args.states),
                                      load_integers(args.durations, "durations"))
    outputs = {"frame_count": int(frames.shape[0])}
    if args.emit_frames:
        outputs["frames"] = frames.tolist()
    loss_files = (args.pred_mel, args.gt_mel, args.pred_dur, args.gt_dur,
                  args.pred_pitch, args.gt_pitch, args.pred_energy, args.gt_energy)
    if any(f is not None for f in loss_files):
        if any(f is None for f in loss_files):
            raise pipeline.ShapeMismatch("all eight pred/gt loss files are required together")
        tts = pipeline.tts_losses(*(load_numbers(f) for f in loss_files))
        outputs["tts"] = {
            "l1": tts.l1, "dur_mse": tts.dur_mse, "pitch_mse": tts.pitch_mse,
            "energy_mse": tts.energy_mse, "total": tts.total,
        }
    if lat is None:
        return outputs
    outputs["nll"] = dp.nll(lat, target)
    if "tts" in outputs:
        outputs["combined"] = dp.composite_loss(outputs["nll"], outputs["tts"]["total"], args.mu)
    return outputs, _exit_for(outputs["nll"])


def _forward_backward_s(lat, target):
    """Seconds one forward and one backward pass take."""
    t0 = time.perf_counter()
    dp.forward(lat, target)
    dp.backward(lat, target)
    return time.perf_counter() - t0


def _calls_per_sample(lat, target):
    """Calls per timed sample, timeit-style: single calls are timed until
    they add up to BENCH_SAMPLE_S, and a sample makes enough calls to last
    that long at the fastest of them, which no slow outlier can shrink."""
    times = []
    while sum(times) < BENCH_SAMPLE_S:
        times.append(_forward_backward_s(lat, target))
    return math.ceil(BENCH_SAMPLE_S / min(times))


def cmd_bench(args, lat, target):
    integer_at_least(args.repeats, "--repeats", 1)
    integer_at_least(args.target_len, "--target-len", 1)
    sizes = [int(s) for s in args.sizes.split(",")]
    if sizes != sorted(sizes):
        raise ValueError("--sizes must be ascending")
    args.sizes = sizes  # the report echoes the parsed sizes
    rng = np.random.default_rng(args.seed)
    lats = [build_random(L, BENCH_VOCAB, 0, args.seed) for L in sizes]
    target = rng.integers(0, BENCH_VOCAB, size=args.target_len)
    for lat in lats:  # warm-up, excluded from timing
        _forward_backward_s(lat, target)
    numbers = [_calls_per_sample(lat, target) for lat in lats]
    times = [[] for _ in sizes]
    for _ in range(args.repeats):
        # calls alternate across sizes within each sample, so that every
        # size sees the same machine speed and drift cancels in the ratios;
        # the statistics are over single calls, so the median shrugs off a
        # call that a preemption stretched
        for k in range(max(numbers)):
            for slot, lat, number in zip(times, lats, numbers):
                if k < number:
                    slot.append(_forward_backward_s(lat, target) * 1000.0)
    rows = []
    prev_med = None
    for L, slot in zip(sizes, times):
        mean_ms = sum(slot) / len(slot)
        med_ms = statistics.median(slot)
        rows.append({
            "L": L,
            "mean_ms": mean_ms,
            "median_ms": med_ms,
            "ratio_to_prev": None if prev_med is None else med_ms / prev_med,
        })
        prev_med = med_ms
    return {"rows": rows}


def _run(args):
    """Load what the command declares, run it, print its one JSON report and
    return the exit code. A command returns its outputs, or (outputs, exit
    code) when it can fail after producing them."""
    start = time.perf_counter()
    lat = target = None
    if "lattice" in args.inputs and args.lattice is not None:
        lat = load_lattice(args.lattice)
        if not args.skip_validation:
            report = validate(lat)
            if not report.ok:
                worst = report.violations[0]
                raise DimensionError(
                    f"lattice failed validation ({len(report.violations)} violations; "
                    f"first: {worst.kind} at row {worst.index}, deviation {worst.deviation}); "
                    f"pass --skip-validation to force"
                )
    if "target" in args.inputs and args.target is not None:
        target = load_target(args.target)
    has_seed = "seed" in vars(args)
    if has_seed and args.seed is None:
        env = os.environ.get("DAGLATTICE_SEED")
        args.seed = int(env) if env else 0
    outputs = args.fn(args, lat, target)
    code = 0
    if isinstance(outputs, tuple):
        outputs, code = outputs
    inputs = {name: getattr(args, name) for name in args.inputs
              if getattr(args, name) is not None}
    report = {"command": args.subcommand, "inputs": inputs, "outputs": outputs}
    if not args.no_timing:
        report["wall_time_ms"] = (time.perf_counter() - start) * 1000.0
    if has_seed:
        report["seed"] = int(args.seed)
    print(_render(report, args.pretty))
    return code


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="daglattice",
        description="Dynamic programming and decoding over DAG translation lattices",
    )
    parser.add_argument("--pretty", action="store_true", help="indented JSON output")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit wall_time_ms (for byte-level output comparison)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    skip_help = ("skip the normalisation and positive-entry checks; an edge on or below "
                 "the diagonal of log E is still an error (exit 4)")

    def add(name, fn, inputs=("lattice", "target"), optional=()):
        """Subcommand whose report echoes the named arguments as its inputs;
        the runner loads --lattice and --target when they are named and
        given. Both are required unless named in `optional`."""
        p = sub.add_parser(name)
        if "lattice" in inputs:
            p.add_argument("--lattice", required="lattice" not in optional)
            p.add_argument("--skip-validation", action="store_true", help=skip_help)
        if "target" in inputs:
            p.add_argument("--target", required="target" not in optional)
        p.set_defaults(fn=fn, inputs=inputs)
        return p

    add("score", cmd_score)
    p = add("posterior", cmd_posterior)
    p.add_argument("--pairwise", action="store_true")
    add("expect", cmd_expect)
    add("bestpath", cmd_bestpath)
    p = add("glance", cmd_glance)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--seed", type=int)
    p = add("decode", cmd_decode, ("lattice",))
    p.add_argument("--strategy", choices=["lookahead", "viterbi"], required=True)
    p.add_argument("--length-select", choices=["raw", "normalized"], default="normalized")
    p.add_argument("--max-steps", type=int)
    p = add("gradcheck", cmd_gradcheck)
    p.add_argument("--step", type=float, default=1e-6)
    p = add("oracle", cmd_oracle, ("lattice", "mode", "target", "length"), optional=("target",))
    p.add_argument("--mode", choices=["logprob", "posterior", "argmax"], required=True)
    p.add_argument("--length", type=int)
    p = add("pipeline", cmd_pipeline, ("states", "durations", "lattice", "target"),
            optional=("lattice", "target"))
    p.add_argument("--states", required=True)
    p.add_argument("--durations", required=True)
    p.add_argument("--emit-frames", action="store_true")
    for flag in ("pred-mel", "gt-mel", "pred-dur", "gt-dur",
                 "pred-pitch", "gt-pitch", "pred-energy", "gt-energy"):
        p.add_argument(f"--{flag}")
    p.add_argument("--mu", type=float, default=5.0)
    p = add("bench", cmd_bench, ("sizes", "target_len", "repeats"))
    p.add_argument("--sizes", required=True, help="comma-separated ascending graph sizes")
    p.add_argument("--target-len", type=int, default=32)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except LatticeFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (dp.InfeasibleTarget, oracle.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # DimensionError, MissingHiddenStates, pipeline's, bad arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
