"""The BLAS-backed dp kernels and the shared max-plus step against the plain
log-space recurrences in reference_kernels, on lattices built to hit the
numerical edge cases: entries down to -900 nats, masked edges, columns whose
every finite in-edge underflows exp, and unnormalized entries above +709.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from daglattice import DagLattice, InfeasibleTarget, build_random, decode, dp, nll_grad, posterior
from daglattice.cli import main
from daglattice.decode import _viterbi_tables
from daglattice.lattice import (BINARY_MAGIC, BINARY_VERSION, LatticeFormatError, aligned_empty,
                                load_lattice)
from daglattice.logspace import NEG_INF

LOG_TOL = 1e-12  # relative when |x| >= 1, absolute below
PROB_TOL = 1e-9  # absolute, for gamma, dE and dP


def _log_entries(rng, shape, mask_p):
    """Log weights: mostly moderate, a share down to -900, some masked."""
    scale = rng.choice([5.0, 50.0, 900.0], size=shape, p=[0.5, 0.3, 0.2])
    out = -rng.random(shape) * scale
    out[rng.random(shape) < mask_p] = NEG_INF
    return out


def _edge_case_lattice(rng, underflow_column=False, huge_entry=False):
    L = int(rng.integers(2, 25))
    V = int(rng.integers(2, 6))
    lt = np.triu(_log_entries(rng, (L, L), rng.choice([0.0, 0.3, 0.6])), k=1)
    lt[np.tril_indices(L)] = NEG_INF
    # keep the chain so that at least the length-L target is feasible
    lt[np.arange(L - 1), np.arange(1, L)] = -rng.random(L - 1) * 50.0
    le = _log_entries(rng, (L, V), 0.2)
    le[:, 0] = np.maximum(le[:, 0], -50.0)  # every vertex can emit token 0
    if underflow_column and L > 2:
        j = int(rng.integers(2, L))
        finite = np.isfinite(lt[:, j])
        lt[finite, j] = rng.uniform(-900.0, -746.0, size=int(finite.sum()))
    if huge_entry and L > 2:
        k = int(rng.integers(0, L - 1))
        lt[k, int(rng.integers(k + 1, L))] = rng.uniform(710.0, 750.0)
    M = L if rng.random() < 0.3 else int(rng.integers(2, L + 1))
    y = rng.integers(0, V, size=M)
    if rng.random() < 0.5:
        y[:] = 0
    return DagLattice(L, V, 0, lt, le), y


def _lattice_mix(n, seed):
    rng = np.random.default_rng(seed)
    for t in range(n):
        yield _edge_case_lattice(rng, underflow_column=t % 3 == 1, huge_entry=t % 5 == 2)


def _assert_log_close(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    fin = np.isfinite(want)
    err = np.abs(got[fin] - want[fin])
    assert np.all(err <= LOG_TOL * np.maximum(1.0, np.abs(want[fin])))


def test_forward_backward_posterior_grad_match_reference():
    feasible = 0
    for lat, y in _lattice_mix(300, seed=11):
        la, lb = ref.forward(lat, y), ref.backward(lat, y)
        _assert_log_close(dp.forward(lat, y).log_alpha, la)
        _assert_log_close(dp.backward(lat, y).log_beta, lb)
        if la[-1, -1] == NEG_INF:
            with pytest.raises(InfeasibleTarget):
                nll_grad(lat, y)
            continue
        feasible += 1
        gamma, _ = ref.posterior(lat, y)
        assert np.max(np.abs(posterior(lat, y).gamma - gamma)) <= PROB_TOL
        dE, dP = nll_grad(lat, y)
        ref_dE, ref_dP = ref.nll_grad(lat, y)
        assert np.max(np.abs(dE - ref_dE)) <= PROB_TOL
        assert np.max(np.abs(dP - ref_dP)) <= PROB_TOL
    assert feasible >= 150


def test_underflowing_column_takes_the_exact_fallback(monkeypatch):
    calls = []
    real = dp.logsumexp

    def counting(a, axis=None):
        calls.append(np.shape(a))
        return real(a, axis=axis)

    monkeypatch.setattr(dp, "logsumexp", counting)
    lat = build_random(6, 3, 0, 4)
    lt = np.array(lat.log_transition)
    lt[:4, 4] = [-800.0, -760.0, -900.0, -750.0]  # every in-edge of vertex 4
    lat = DagLattice(6, 3, 0, lt, lat.log_emission)
    y = [0, 1, 2, 0, 1]
    _assert_log_close(dp.forward(lat, y).log_alpha, ref.forward(lat, y))
    assert calls, "the underflowing column never reached the exact fallback"


def test_benchmark_shaped_lattice_needs_no_fallback(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("exact fallback used on a normalized lattice")

    lat = build_random(64, 20, 0, 9)
    y = np.random.default_rng(9).integers(0, 20, size=24)
    want_a, want_b = ref.forward(lat, y), ref.backward(lat, y)
    monkeypatch.setattr(dp, "logsumexp", fail)
    _assert_log_close(dp.forward(lat, y).log_alpha, want_a)
    _assert_log_close(dp.backward(lat, y).log_beta, want_b)


def test_entries_just_inside_the_construction_bound_never_overflow():
    """Entries below the largest float over 8 L in magnitude build, and no
    table, gradient or decoder overflows on them: pytest turns every
    RuntimeWarning into an error. Two such entries in one path sum to
    about 2 * 7.5e306, which is still finite."""
    b = np.nextafter(np.finfo(np.float64).max / 24, 0)
    lt = np.full((3, 3), NEG_INF)
    lt[0, 1] = lt[1, 2] = -b
    lt[0, 2] = -1.0
    lat = DagLattice(3, 2, 0, lt, np.array([[-b, -0.5], [-0.5, -b], [-1.0, -2.0]]))
    for y in ([1, 0, 0], [0, 1, 1], [1, 0]):
        _assert_log_close(dp.forward(lat, y).log_alpha, ref.forward(lat, y))
        _assert_log_close(dp.backward(lat, y).log_beta, ref.backward(lat, y))
        assert np.isfinite(dp.nll(lat, y))
        nll_grad(lat, y)
        decode.best_path(lat, y)
    assert dp.nll(lat, [1, 0, 0]) == pytest.approx(2 * b)  # the emissions are below an ulp
    for select in ("normalized", "raw"):
        assert decode.joint_viterbi(lat, select).path.vertices == (0, 2)


def _same_as_stepwise(lat, y):
    return (np.array_equal(dp.forward(lat, y).log_alpha, ref.stepwise_forward(lat, y))
            and np.array_equal(dp.backward(lat, y).log_beta, ref.stepwise_backward(lat, y)))


def test_sweep_bit_identical_to_stepwise_on_the_lattice_mix():
    assert all(_same_as_stepwise(lat, y) for lat, y in _lattice_mix(300, seed=11))


def test_sweep_bit_identical_to_stepwise_on_benchmark_shaped_lattices():
    rng = np.random.default_rng(5)
    for seed in range(2):
        lat = build_random(256, 1000, 0, seed)
        for M in (16, 40, 64):
            assert _same_as_stepwise(lat, rng.integers(0, 1000, size=M))


FAR = -800.0  # below every other entry by more than the fast path's range


@st.composite
def engineered_misses(draw):
    """(lattice, target, first): a lattice whose forward pass first has a
    column out of range at step `first` for the target, or none (first 0).

    Every edge above the diagonal is in [-5, -0.1) and tokens 0 and 2 emit
    in [-3, -0.1), so no step of a pass over them misses. A FAR edge out of
    vertex 0 makes step 1 miss, when it is not the largest edge. Token 1
    emits FAR everywhere but at one vertex v: at the first step t >= 2
    with y[t-1] = 1, alpha's maximum sits at v >= t, and the columns in
    [t, v] get only FAR terms. Later token-1 steps add more misses, or
    none."""
    L = draw(st.integers(1, 12))
    M = draw(st.integers(1, max(L, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lt = np.full((L, L), NEG_INF)
    upper = np.triu_indices(L, 1)
    lt[upper] = rng.uniform(-5.0, -0.1, size=upper[0].size)
    le = rng.uniform(-3.0, -0.1, size=(L, 3))
    y = rng.choice([0, 2], size=M)
    # with L = 2 a FAR edge would be the largest, which the pass matrix shifts by
    first = draw(st.integers(0, min(M, L) - 1).filter(lambda t: t != 1 or L > 2))
    if first == 1:
        lt[0, draw(st.integers(1, L - 1))] = FAR
    v = draw(st.integers(max(first, 1), L - 1)) if L > 1 else 0
    le[:, 1] = FAR
    le[v, 1] = -0.1
    for t in draw(st.sets(st.integers(first + 1, M - 1), max_size=3)) if 0 < first < M - 1 else ():
        y[t - 1] = 1
    if first >= 2:
        y[first - 1] = 1
    return DagLattice(L, 3, 0, lt, le), y, first


@settings(max_examples=300, deadline=None)
@given(case=engineered_misses())
def test_sweep_reruns_from_the_first_miss_bit_identical_to_stepwise(case):
    lat, y, first = case
    calls = {"_matmul": 0, "logsumexp": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            def counted(*args, _name=name, _real=getattr(dp, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            mp.setattr(dp, name, counted)
        la = dp.forward(lat, y).log_alpha
        forward_calls = dict(calls)
        lb = dp.backward(lat, y).log_beta
    assert np.array_equal(la, ref.stepwise_forward(lat, y))
    assert np.array_equal(lb, ref.stepwise_backward(lat, y))
    # one product per step, and steps first..M-1 rerun
    assert forward_calls["_matmul"] == len(y) - 1 + (len(y) - first if first else 0)
    assert (forward_calls["logsumexp"] > 0) == (first > 0)


def test_several_misses_in_one_pass(monkeypatch):
    """Every in-edge of vertex 6 is FAR, so steps 1 to 6 of the forward pass
    miss there (and later ones where alpha's FAR mass at vertex 6 is all a
    column gets), and every out-edge is FAR, which does the same to the
    backward pass: in each pass every step reruns, and the exact reduction
    runs on each miss."""
    products, calls = [], []
    real_matmul, real = dp._matmul, dp.logsumexp
    monkeypatch.setattr(dp, "_matmul", lambda *a, **kw: products.append(1) or real_matmul(*a, **kw))
    monkeypatch.setattr(dp, "logsumexp", lambda a, axis=None: calls.append(1) or real(a, axis))
    lat = build_random(12, 3, 0, 5)
    lt = np.array(lat.log_transition)
    lt[:6, 6] = FAR
    lt[6, 7:] = FAR
    lat = DagLattice(12, 3, 0, lt, lat.log_emission)
    y = np.zeros(10, dtype=np.int64)
    la = dp.forward(lat, y).log_alpha
    assert len(products) == 18  # 9 steps, each run twice
    assert len(calls) >= 6
    del products[:], calls[:]
    lb = dp.backward(lat, y).log_beta
    assert len(products) == 18
    assert len(calls) >= 6
    assert np.array_equal(la, ref.stepwise_forward(lat, y))
    assert np.array_equal(lb, ref.stepwise_backward(lat, y))


def _band(n, L, width):
    """(n, L) mask of the entries _viterbi_tables computes: row 0 is vertex 0
    alone, row i >= 1 the vertices [i, min(i + width, L))."""
    i, j = np.indices((n, L))
    band = (j >= i) & (j < i + width)
    band[0] = False
    band[0, 0] = True
    return band


def test_viterbi_tables_match_axis0_reference():
    for lat, y in _lattice_mix(300, seed=12):
        logE, logP = lat.log_transition, lat.log_emission
        L, M = lat.graph_size, len(y)
        best_emit = logP[np.arange(L), np.argmax(logP, axis=1)]
        for emit, width in ((logP[:, y].T, L - M + 1), (np.broadcast_to(best_emit, (L, L)), L)):
            delta, phi = _viterbi_tables(logE, emit, width)
            ref_delta, ref_phi = ref.viterbi_tables(logE, emit)
            band = _band(*emit.shape, width)
            # inside the band bit-identical to the full table, outside untouched
            assert np.array_equal(delta[band], ref_delta[band])
            assert np.array_equal(phi[band], ref_phi[band])
            assert np.all(delta[~band] == NEG_INF)
            assert np.all(phi[~band] == 0)


def test_stopped_viterbi_sweep_keeps_at_most_twice_its_rows():
    """A sweep whose stopping rule fires at step s grows its tables to at
    most 2(s+1) rows: rows 0..s bit-identical to the full sweep's, the rest
    -inf/0, and the rule sees each row as the full sweep has it."""
    lats = [lat for lat, _ in _lattice_mix(40, seed=14)] + [build_random(64, 50, 0, 3)]
    for lat in lats:
        logE, logP = lat.log_transition, lat.log_emission
        L = lat.graph_size
        best_emit = np.broadcast_to(logP[np.arange(L), np.argmax(logP, axis=1)], (L, L))
        for width in (L, max(1, L // 2)):
            full_delta, full_phi = _viterbi_tables(logE, best_emit, width)
            for s in range(1, L):
                seen = []

                def done(i, row):
                    seen.append(row.tobytes() == full_delta[i].tobytes())
                    return i == s

                delta, phi = _viterbi_tables(logE, best_emit, width, done)
                n = delta.shape[0]
                ran = min(s, n - 1, L - 1)
                assert phi.shape == delta.shape and ran + 1 <= n <= 2 * (s + 1)
                assert all(seen) and len(seen) == ran
                assert delta[: ran + 1].tobytes() == full_delta[: ran + 1].tobytes()
                assert np.array_equal(phi[: ran + 1], full_phi[: ran + 1])
                assert np.all(delta[ran + 1 :] == NEG_INF) and np.all(phi[ran + 1 :] == 0)


def _greedy_cases(rng):
    """Tie-heavy and masked lattices, one with rows that are entirely -inf,
    and a benchmark-shaped one with tied maxima and -inf rows."""
    for t in range(60):
        yield (_tie_heavy_lattice, _masked_lattice)[t % 2](rng)
    le = np.where(rng.random((9, 4)) < 0.5, -0.5, -1.5)
    le[[0, 4, 8]] = NEG_INF
    lt = np.triu(np.full((9, 9), -1.0), k=1)
    lt[np.tril_indices(9)] = NEG_INF
    yield DagLattice(9, 4, 0, lt, le)
    big = build_random(256, 1000, 0, 9)
    le = big.log_emission.copy()
    le[::7] = NEG_INF
    le[1::5, ::97] = 0.0  # several exact ties at the row maximum
    yield DagLattice(256, 1000, 0, big.log_transition, le)


@pytest.mark.parametrize("block", [1, 5, decode._GREEDY_BLOCK])
def test_greedy_matches_argmax_of_a_writable_copy(monkeypatch, block):
    """Block by block, the greedy tokens are np.argmax of the whole log P
    (first maximum, 0 on a row of -inf), and their scores its entries."""
    monkeypatch.setattr(decode, "_GREEDY_BLOCK", block)
    for lat in _greedy_cases(np.random.default_rng(15)):
        logP = lat.log_emission.copy()  # writable
        want = np.argmax(logP, axis=1)
        toks, logp = decode._greedy(lat)
        assert np.array_equal(toks, want)
        assert logp.tobytes() == logP[np.arange(lat.graph_size), want].tobytes()


def test_greedy_peak_memory_stays_under_a_megabyte():
    lat = build_random(256, 1000, 0, 2)
    assert not lat.log_emission.flags.writeable
    tracemalloc.start()
    try:
        decode._greedy(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # np.argmax copies a read-only log P whole: 2.05 MB at this shape
    assert peak < 2**20, f"_greedy peak {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("shape", [(0,), (0, 7), (1, 1), (5, 3), (241, 256), (256, 256)])
def test_aligned_empty_starts_on_a_cache_line(shape):
    # eight live arrays, so that one of malloc's 16-byte layouts cannot pass by luck
    for a in [aligned_empty(shape) for _ in range(8)]:
        assert a.ctypes.data % 64 == 0
        assert a.shape == shape and a.dtype == np.float64
        assert a.flags.c_contiguous and a.flags.writeable


@pytest.mark.parametrize("L", [1, 5, 37, 256])
def test_kernel_scratch_starts_on_a_cache_line(L):
    lat = build_random(L, 8, 0, L)
    expE = dp._pass_matrix(lat)[0]
    assert expE.ctypes.data % 64 == 0
    assert not expE.flags.writeable
    w = decode._suffix_bound(lat.log_transition, decode._greedy(lat)[1], -1.0)[0]
    assert w.ctypes.data % 64 == 0


def _tie_heavy_lattice(rng):
    """Entries from a two-value set, so many candidates tie exactly."""
    L = int(rng.integers(1, 16))
    V = int(rng.integers(1, 4))
    lt = np.where(rng.random((L, L)) < 0.5, -1.0, -2.0)
    lt[np.tril_indices(L)] = NEG_INF
    le = np.where(rng.random((L, V)) < 0.5, -0.5, -1.5)
    return DagLattice(L, V, 0, lt, le)


def _masked_lattice(rng):
    """Random entries with a share of edges and emissions masked to -inf."""
    L = int(rng.integers(1, 20))
    V = int(rng.integers(1, 5))
    lt = _log_entries(rng, (L, L), rng.choice([0.3, 0.6, 0.9]))
    lt[np.tril_indices(L)] = NEG_INF
    le = _log_entries(rng, (L, V), 0.3)
    return DagLattice(L, V, 0, lt, le)


def _decode_mix(seed):
    rng = np.random.default_rng(seed)
    yield DagLattice(1, 2, 0, np.full((1, 1), NEG_INF), np.log([[0.25, 0.75]]))
    for t in range(120):
        yield (_tie_heavy_lattice, _masked_lattice)[t % 2](rng)
    for lat, _ in _lattice_mix(60, seed + 1):
        yield lat


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasibleTarget as exc:
        return str(exc)


def test_decoders_bit_identical_to_full_table_decode(monkeypatch):
    """best_path and joint_viterbi give the same paths, tokens and scores,
    bit for bit, as the same decoders run on full (n, L) tables."""
    rng = np.random.default_rng(13)
    cases = []
    for lat in _decode_mix(seed=13):
        L, V = lat.graph_size, lat.vocab_size
        targets = [rng.integers(0, V, size=M) for M in sorted({1, L, L + 1, int(rng.integers(1, L + 1))})]
        cases.append((lat, targets))

    def run_all():
        out = []
        for lat, targets in cases:
            for select in ("normalized", "raw"):
                r = _outcome(decode.joint_viterbi, lat, select)
                out.append(r if isinstance(r, str)
                           else (r.path.vertices, r.tokens.tokens.tolist(), r.joint_logprob))
            for y in targets:
                out.append(_outcome(decode.best_path, lat, y))
        return out

    got = run_all()
    # the reference ignores the stopping rule too: full tables, every length scored
    monkeypatch.setattr(decode, "_viterbi_tables",
                        lambda logE, emit, width, done=None: ref.viterbi_tables(logE, emit))
    want = run_all()
    assert got == want  # floats compare with ==, so scores match bit for bit
    assert sum(isinstance(o, str) for o in got) >= 30  # infeasible targets covered
    assert sum(isinstance(o, tuple) and len(o) == 2 for o in got) >= 100  # feasible ones


@pytest.fixture
def callers_bufsize():
    """Sets the caller's ufunc buffer size for a test and restores numpy's
    value afterwards, whatever the test left."""
    before = np.getbufsize()
    yield np.setbufsize
    np.setbufsize(before)


def test_decoders_bit_identical_under_any_callers_ufunc_buffer(callers_bufsize):
    """best_path, joint_viterbi in both modes and _viterbi_tables give the
    same bits whether the caller's ufunc buffer holds 16, 8192 (numpy's
    default) or 65536 entries; only large bands fill a buffer, so the
    benchmark shape is in the mix."""
    rng = np.random.default_rng(16)
    lats = [lat for lat, _ in zip(_decode_mix(seed=16), range(40))]
    lats += [build_random(64, 50, 0, 4), build_random(256, 1000, 0, 5)]
    cases = [(lat, rng.integers(0, lat.vocab_size, size=M))
             for lat in lats for M in sorted({1, lat.graph_size // 4 + 1, lat.graph_size})]

    def run_all():
        out = []
        for lat, y in cases:
            for select in ("normalized", "raw"):
                r = _outcome(decode.joint_viterbi, lat, select)
                out.append(r if isinstance(r, str)
                           else (r.path.vertices, r.tokens.tokens.tolist(), r.joint_logprob))
            out.append(_outcome(decode.best_path, lat, y))
            L, M = lat.graph_size, y.size
            delta, phi = _viterbi_tables(lat.log_transition, lat.log_emission[:, y].T, L - M + 1)
            out.append((delta.tobytes(), phi.tobytes()))
        return out

    results = []
    for size in (16, 8192, 65536):
        callers_bufsize(size)
        results.append(run_all())
        assert np.getbufsize() == size
    assert results[0] == results[1] == results[2]  # floats compare with ==: bit for bit


def _infeasible_target():
    """A lattice whose target token is -inf at every vertex."""
    lt = np.triu(np.full((4, 4), -1.0), k=1)
    lt[np.tril_indices(4)] = NEG_INF
    le = np.array([[-0.5, NEG_INF]] * 4)
    return DagLattice(4, 2, 0, lt, le), np.array([0, 1, 0])


def _no_path_to_the_end():
    """A lattice with no edge at all, so no path reaches the last vertex."""
    return DagLattice(3, 2, 0, np.full((3, 3), NEG_INF), np.log([[0.5, 0.5]] * 3))


@pytest.mark.parametrize("size", [16, 8192, 65536])
def test_viterbi_steps_restore_the_callers_ufunc_buffer(callers_bufsize, size):
    """The steps, and a done callback, run with the small buffer; the
    caller's size is back after a return, an InfeasibleTarget and a done
    that raises."""
    callers_bufsize(size)
    lat = build_random(32, 8, 0, 6)
    decode.best_path(lat, np.zeros(8, dtype=np.int64))
    assert np.getbufsize() == size
    decode.joint_viterbi(lat)
    assert np.getbufsize() == size
    lat_y = _infeasible_target()
    with pytest.raises(InfeasibleTarget):
        decode.best_path(*lat_y)
    assert np.getbufsize() == size
    with pytest.raises(InfeasibleTarget):
        decode.joint_viterbi(_no_path_to_the_end())
    assert np.getbufsize() == size

    seen = []

    def done(i, row):
        seen.append(np.getbufsize())
        if i == 3:
            raise RuntimeError("stop")
        return False

    logE, logP = lat.log_transition, lat.log_emission
    with pytest.raises(RuntimeError, match="stop"):
        _viterbi_tables(logE, np.broadcast_to(logP[:, 0], (32, 32)), 32, done)
    assert seen == [256, 256, 256]
    assert np.getbufsize() == size


def test_nll_grad_never_builds_pairwise_tensor():
    lat = build_random(256, 1000, 0, 1)
    y = np.random.default_rng(1).integers(0, 1000, size=64)
    nll_grad(lat, y)  # warm-up outside the measurement
    tracemalloc.start()
    try:
        nll_grad(lat, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (M-1, L, L) float64 tensor alone would be 33 MB
    assert peak < 8 * 2**20, f"nll_grad peak {peak / 2**20:.1f} MB"


def _binary_header(L, V, d):
    return BINARY_MAGIC + struct.pack("<IIII", BINARY_VERSION, L, V, d)


@pytest.mark.parametrize("dims", [(60000, 60000, 0), (2**31, 4, 0)])
def test_binary_header_larger_than_file_is_parse_error(tmp_path, capsys, dims):
    path = tmp_path / "huge.bin"
    path.write_bytes(_binary_header(*dims))
    assert len(path.read_bytes()) == 20
    with pytest.raises(LatticeFormatError):
        load_lattice(path)
    target = tmp_path / "tgt.json"
    target.write_text("[0, 1]")
    assert main(["score", "--lattice", str(path), "--target", str(target)]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_binary_trailing_bytes_is_parse_error(tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(_binary_header(1, 1, 0) + np.zeros(3).tobytes())
    with pytest.raises(LatticeFormatError):
        load_lattice(path)
