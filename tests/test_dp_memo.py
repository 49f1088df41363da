"""The per-lattice memo entries (lattice.memo) of DP tables: one forward
and one backward pass per (lattice, target), results identical to an
unmemoised computation, and forward/backward themselves left uncached. Also
the per-lattice pass matrix and the greedy tokens that the decoders share."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from daglattice import DagLattice, build_random, decode, dp, oracle, save_lattice
from daglattice.dp import InfeasibleTarget

GRAPH, VOCAB, HIDDEN, SEED = 24, 6, 4, 7


def fresh():
    return build_random(GRAPH, VOCAB, HIDDEN, SEED)


def targets():
    rng = np.random.default_rng(3)
    a = rng.integers(0, VOCAB, size=6)
    b = rng.integers(0, VOCAB, size=9)
    infeasible = rng.integers(0, VOCAB, size=GRAPH + 1)  # longer than any path
    return a, b, infeasible


def same(x, y):
    """Bit-for-bit equality of two arrays."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def step(lat, y):
    """The three calls of a training step, with their results or exceptions."""
    out = {"nll": dp.nll(lat, y)}
    try:
        out["grad"] = dp.nll_grad(lat, y)
        out["z"] = dp.expected_states(lat, y).z
        out["gamma"] = dp.posterior(lat, y).gamma
    except InfeasibleTarget:
        out["infeasible"] = True
    return out


def assert_same_step(got, want):
    assert got.keys() == want.keys()
    assert got["nll"] == want["nll"]
    if "infeasible" in want:
        return
    assert same(got["grad"][0], want["grad"][0])
    assert same(got["grad"][1], want["grad"][1])
    assert same(got["z"], want["z"])
    assert same(got["gamma"], want["gamma"])


@pytest.fixture
def pass_counts(monkeypatch):
    counts = {"forward": 0, "backward": 0}
    for name in counts:
        original = getattr(dp, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dp, name, counted)
    return counts


def test_one_forward_and_one_backward_per_training_step(pass_counts):
    lat = fresh()
    y = targets()[0]
    dp.nll(lat, y)
    dp.nll_grad(lat, y)
    dp.expected_states(lat, y)
    assert pass_counts == {"forward": 1, "backward": 1}


def test_infeasible_target_skips_the_backward_pass(pass_counts):
    # a target longer than the lattice is answered by its length, with no pass
    lat = fresh()
    y = targets()[2]
    assert dp.nll(lat, y) == float("inf")
    for _ in range(2):
        with pytest.raises(InfeasibleTarget):
            dp.nll_grad(lat, y)
    assert pass_counts == {"forward": 0, "backward": 0}
    # one that fits but whose token no vertex emits takes one forward pass
    le = np.array(lat.log_emission)
    le[:, 0] = -np.inf
    lat = DagLattice(GRAPH, VOCAB, HIDDEN, lat.log_transition, le, lat.hidden_states)
    y = np.zeros(6, dtype=np.int64)
    assert dp.nll(lat, y) == float("inf")
    for _ in range(2):
        with pytest.raises(InfeasibleTarget):
            dp.nll_grad(lat, y)
    assert pass_counts == {"forward": 1, "backward": 0}


def test_alternating_targets_match_a_fresh_lattice():
    a, b, infeasible = targets()
    lat = fresh()
    for y in (a, b, a, infeasible, b, infeasible, a):
        got = step(lat, y)
        want = step(fresh(), y)
        assert_same_step(got, want)
    out = step(lat, infeasible)
    assert out["nll"] == float("inf") and "infeasible" in out


def test_memo_key_is_the_token_values(pass_counts):
    lat = fresh()
    y = targets()[0]
    dp.nll_grad(lat, y)
    dp.nll_grad(lat, list(y))
    dp.nll_grad(lat, y.copy())
    assert pass_counts == {"forward": 1, "backward": 1}
    changed = y.copy()
    changed[0] = (changed[0] + 1) % VOCAB
    dp.nll_grad(lat, changed)
    assert pass_counts == {"forward": 2, "backward": 2}


def test_forward_and_backward_stay_uncached(monkeypatch):
    products = []
    original = dp._matmul

    def counted(a, b, out=None):
        products.append(a.shape)
        return original(a, b, out)

    monkeypatch.setattr(dp, "_matmul", counted)
    lat = fresh()
    y = targets()[0]
    # a pass makes one (2, L) product per step, and none more: no step of
    # this normalized lattice reruns through the exact fallback
    steps = [(2, GRAPH)] * (y.size - 1)
    dp.nll(lat, y)
    assert products == steps
    first = dp.forward(lat, y)
    second = dp.forward(lat, y)
    assert products == 3 * steps
    dp.backward(lat, y)
    dp.backward(lat, y)
    assert products == 5 * steps
    assert first.log_alpha is not second.log_alpha
    assert same(first.log_alpha, second.log_alpha)


def test_pass_matrix_built_once_per_lattice():
    lat = fresh()
    a, b = targets()[:2]
    dp.forward(lat, a)
    key, (expE, top) = vars(lat)["_pass_matrix"]
    assert key is None and not expE.flags.writeable
    for y in (a, b):
        dp.nll_grad(lat, y)
        dp.backward(lat, y)
    assert vars(lat)["_pass_matrix"][1][0] is expE
    assert vars(lat)["_pass_matrix"][1][1] == top


def test_callers_own_their_outputs():
    lat = fresh()
    y = targets()[0]
    want = step(fresh(), y)

    post = dp.posterior(lat, y)
    post.gamma[:] = -1.0
    dE, dP = dp.nll_grad(lat, y)
    dE[:] = 5.0
    dP[:] = 5.0
    z = dp.expected_states(lat, y).z
    z[:] = 5.0
    dp.forward(lat, y).log_alpha[:] = 0.0
    dp.backward(lat, y).log_beta[:] = 0.0

    assert_same_step(step(lat, y), want)


def test_views_kept_by_the_caller_cannot_stale_the_memo():
    base = fresh()
    lt = np.array(base.log_transition)
    le = np.array(base.log_emission)
    hs = np.array(base.hidden_states)
    views = (lt[:, 1:], le[::2], hs.T)  # taken before construction
    lat = DagLattice(GRAPH, VOCAB, HIDDEN, lt, le, hs)
    for arr, own in zip((lt, le, hs), (lat.log_transition, lat.log_emission, lat.hidden_states)):
        assert not np.shares_memory(arr, own)
    y = targets()[0]
    before = step(lat, y)
    views[0][0] -= 0.25
    views[1][0] -= 0.5
    views[2][0] += 1.0
    assert_same_step(step(lat, y), before)
    assert_same_step(before, step(fresh(), y))


def test_memo_is_invisible_to_equality_repr_and_saving(tmp_path):
    used, unused = fresh(), fresh()
    dp.nll_grad(used, targets()[0])
    decode.joint_viterbi(used)
    memos = ("_dp_forward", "_dp_smoothed", "_pass_matrix", "_greedy")
    assert all(name in vars(used) for name in memos)
    assert not any(name in vars(unused) for name in memos)
    assert used == unused
    assert repr(used) == repr(unused)
    for fmt in ("json", "binary"):
        save_lattice(used, tmp_path / f"used.{fmt}", fmt)
        save_lattice(unused, tmp_path / f"unused.{fmt}", fmt)
        assert (tmp_path / f"used.{fmt}").read_bytes() == (tmp_path / f"unused.{fmt}").read_bytes()


def test_greedy_tokens_computed_once_per_lattice(monkeypatch):
    """Three decoder calls build the greedy tokens once: each row of log P
    is copied into the argmax buffer once in all, and log P itself never
    reaches np.argmax, which would copy it whole."""
    lat = fresh()
    rows_copied, argmax_on_log_p = [], []
    real_copyto, real_argmax = np.copyto, np.argmax

    def copyto(dst, src, *args, **kwargs):
        if isinstance(src, np.ndarray) and np.shares_memory(src, lat.log_emission):
            rows_copied.append(src.shape[0])
        return real_copyto(dst, src, *args, **kwargs)

    def argmax(a, *args, **kwargs):
        argmax_on_log_p.append(a is lat.log_emission)
        return real_argmax(a, *args, **kwargs)

    monkeypatch.setattr(np, "copyto", copyto)
    monkeypatch.setattr(np, "argmax", argmax)
    first = decode.joint_viterbi(lat)
    decode.lookahead(lat)
    decode.joint_viterbi(lat, "raw")
    assert sum(rows_copied) == GRAPH
    assert argmax_on_log_p and not any(argmax_on_log_p)
    monkeypatch.undo()
    assert decode.joint_viterbi(lat) == first
    toks, logp = decode._greedy(lat)
    assert not toks.flags.writeable and not logp.flags.writeable
    assert np.array_equal(toks, oracle.greedy_tokens(lat))


def test_two_threads_sharing_one_lattice():
    a, b = targets()[:2]
    reference = {}
    for name, y in (("a", a), ("b", b)):
        lat = fresh()
        reference[name] = (dp.nll_grad(lat, y), dp.expected_states(lat, y).z)

    shared = fresh()

    def call(i):
        name, y = ("a", a) if i % 2 == 0 else ("b", b)
        if (i // 2) % 2 == 0:
            return name, "grad", dp.nll_grad(shared, y)
        return name, "z", dp.expected_states(shared, y).z

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's check-then-set too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(call, range(200), timeout=60))
    finally:
        sys.setswitchinterval(interval)

    for name, kind, value in results:
        grad, z = reference[name]
        if kind == "grad":
            assert same(value[0], grad[0]) and same(value[1], grad[1])
        else:
            assert same(value, z)
