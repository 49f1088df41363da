"""The BLAS-backed dp kernels and the shared max-plus step against the plain
log-space recurrences in reference_kernels, on lattices built to hit the
numerical edge cases: entries down to -900 nats, masked edges, columns whose
every finite in-edge underflows exp, and unnormalized entries above +709.
"""

import struct
import tracemalloc

import numpy as np
import pytest

import reference_kernels as ref
from daglattice import DagLattice, InfeasibleTarget, build_random, decode, dp, nll_grad, posterior
from daglattice.cli import main
from daglattice.decode import _viterbi_tables
from daglattice.lattice import BINARY_MAGIC, BINARY_VERSION, LatticeFormatError, load_lattice
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
                r = decode.joint_viterbi(lat, select)
                out.append((r.path.vertices, r.tokens.tokens.tolist(), r.joint_logprob))
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
