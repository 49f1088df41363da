"""Program set-up in a fresh interpreter: import daglattice, then one cold op.

    python3 perfbench/coldstart.py WORKLOAD SEED INDEX TRACE WORKDIR

Times ``import daglattice`` (with its ``cli`` module) plus the first call
of the workload's op, and prints one JSON line with ``setup_s``, the
op's output check, and, when TRACE is 1, the lattice layer's self time in
that op. Input generation is not timed. run.py starts this several times
per run and reports the median.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main():
    name, seed, index, trace, workdir = sys.argv[1:6]
    t0 = time.perf_counter()
    import daglattice  # noqa: F401
    import daglattice.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads

    wl = workloads.make(name, workdir)
    x = wl.make_input(int(seed), workloads.RESERVED_INDEX + 1 + int(index), wl.cold_shape)
    tracer = None
    if trace == "1":
        import layertrace

        tracer = layertrace.Tracer()
        tracer.begin_op(0)
    t1 = time.perf_counter_ns()
    out = wl.run(x)
    op_ns = time.perf_counter_ns() - t1
    lattice_ms = 0.0
    if tracer is not None:
        tracer.end_op(op_ns, {})
        lattice_ms = tracer.per_op()[0].get("lattice.self_ns", 0) / 1e6
    print(json.dumps({"setup_s": import_s + op_ns / 1e9, "ok": bool(wl.check(x, out)),
                      "lattice_ms": lattice_ms}))


if __name__ == "__main__":
    main()
