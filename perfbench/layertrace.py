"""Per-layer tracing from outside the program.

The tracer replaces each traced function with a wrapper under the name its
callers look up. daglattice modules import functions by name, so one
function can have several such names: ``dp`` calls ``dp.logsumexp``,
``validate`` calls ``lattice.logsumexp``, ``cli`` calls ``cli.load_lattice``
and ``cli.validate``, while ``dp.forward`` is looked up on the ``dp`` module
by ``dp.nll``, ``dp.posterior`` and ``pipeline``.

A span records (name, layer, start, end, parent span, op id) plus the
counters its call added. Spans stay in memory; ``write`` dumps them at the
end of the run. A span's self time is its duration minus the durations of
its direct children; the benchmark runs one thread, so children never
overlap.
"""

import json
import os
import resource
import time

import numpy as np

from daglattice import cli, decode, dp, lattice, pipeline

NAME, LAYER, START, END, PARENT, OP, COUNTS = range(7)
F64 = 8


def _m(target):
    return int(np.asarray(getattr(target, "tokens", target)).size)


def _pass_counts(args, kwargs, result):
    lat, target = args[0], args[1]
    cells = _m(target) * lat.graph_size ** 2
    # model: each of the M-1 steps materialises about four L x L float64
    # arrays (transition read, broadcast sum, shifted values, exponentials)
    return {"dp.cells": cells, "dp.computed_bytes": 4 * F64 * cells}


def _posterior_counts(args, kwargs, result):
    if result.xi is None:
        return {}
    # pairwise posterior: three L x L temporaries plus the xi slice per step
    return {"dp.computed_bytes": 4 * F64 * result.xi.size}


def _viterbi_counts(args, kwargs, result):
    return {"decode.cells": args[0].graph_size ** 3}


def _best_path_counts(args, kwargs, result):
    return {"decode.cells": _m(args[1]) * args[0].graph_size ** 2}


def _written(args, kwargs, result):
    return {"lattice.bytes_written": os.path.getsize(args[1])}


def _read(args, kwargs, result):
    return {"lattice.bytes_read": os.path.getsize(args[0])}


# (module, attribute, span name, counter function)
TARGETS = (
    (dp, "forward", "dp.forward", _pass_counts),
    (dp, "backward", "dp.backward", _pass_counts),
    (dp, "posterior", "dp.posterior", _posterior_counts),
    (dp, "log_marginal", "dp.log_marginal", None),
    (dp, "nll", "dp.nll", None),
    (dp, "nll_grad", "dp.nll_grad", None),
    (dp, "expected_states", "dp.expected_states", None),
    (dp, "composite_loss", "dp.composite_loss", None),
    (dp, "logsumexp", "logspace.logsumexp", None),
    (lattice, "logsumexp", "logspace.logsumexp", None),
    (decode, "best_path", "decode.best_path", _best_path_counts),
    (decode, "lookahead", "decode.lookahead", None),
    (decode, "joint_viterbi", "decode.joint_viterbi", _viterbi_counts),
    (decode, "glance_assign", "decode.glance_assign", None),
    (decode, "tau_schedule", "decode.tau_schedule", None),
    (decode, "unmask_count", "decode.unmask_count", None),
    (pipeline, "length_regulate", "pipeline.length_regulate", None),
    (pipeline, "tts_losses", "pipeline.tts_losses", None),
    (pipeline, "combined_loss", "pipeline.combined_loss", None),
    (lattice, "save_lattice", "lattice.save", _written),
    (lattice, "save_target", "lattice.save", _written),
    (cli, "load_lattice", "lattice.load", _read),
    (cli, "load_target", "lattice.load", _read),
    (cli, "validate", "lattice.validate", None),
    (cli, "main", "cli.main", None),
)

# Counters that are a pure function of the op inputs; they repeat exactly
# for a seed and are averaged over a fixed prefix of traced ops.
EXACT_COUNTS = (
    "dp.forward.calls", "dp.backward.calls", "dp.cells", "dp.computed_bytes",
    "logspace.logsumexp.calls", "decode.cells", "lattice.bytes_written",
    "lattice.bytes_read", "cli.stdout_bytes",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.op_ns = {}  # op id -> wall time of the op
        self.op_counts = {}  # op id -> counters reported by the workload
        self.dp_faults = {}  # op id -> minor faults inside outermost dp spans
        self._dp_depth = 0
        self._originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        self._wrappers = [self._wrap(orig, name, count)
                          for (_, _, orig), (_, _, name, count) in zip(self._originals, TARGETS)]

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        layer = name.split(".", 1)[0]
        is_dp = layer == "dp"

        def wrapper(*args, **kwargs):
            outermost_dp = is_dp and self._dp_depth == 0
            if is_dp:
                self._dp_depth += 1
            if outermost_dp:
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if is_dp:
                    self._dp_depth -= 1
            if outermost_dp:
                delta = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                self.dp_faults[self.op_id] = self.dp_faults.get(self.op_id, 0) + delta
            if count is not None:
                rec[COUNTS] = count(args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, op_id):
        self.op_id = op_id
        for (mod, attr, _), wrapper in zip(self._originals, self._wrappers):
            setattr(mod, attr, wrapper)

    def end_op(self, op_ns, counts):
        for mod, attr, orig in self._originals:
            setattr(mod, attr, orig)
        self.op_ns[self.op_id] = op_ns
        self.op_counts[self.op_id] = counts
        self.op_id = None

    def per_op(self):
        """{op id: {metric: value}} of self times (ns) and counters."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        ops = {op: {"op.ns": ns, "op.spanned_ns": 0, "dp.minor_faults": self.dp_faults.get(op, 0),
                    **self.op_counts[op]}
               for op, ns in self.op_ns.items()}
        for rec, child in zip(spans, child_ns):
            row = ops[rec[OP]]
            dur = rec[END] - rec[START]
            own = dur - child
            name, layer = rec[NAME], rec[LAYER]
            row[f"{layer}.self_ns"] = row.get(f"{layer}.self_ns", 0) + own
            row[f"{name}.self_ns"] = row.get(f"{name}.self_ns", 0) + own
            row[f"{name}.calls"] = row.get(f"{name}.calls", 0) + 1
            if rec[PARENT] < 0:
                row["op.spanned_ns"] += dur
            for key, value in (rec[COUNTS] or {}).items():
                row[key] = row.get(key, 0) + value
        return ops

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start_ns": rec[START], "end_ns": rec[END],
                                     "parent": rec[PARENT], "op": rec[OP]}) + "\n")
