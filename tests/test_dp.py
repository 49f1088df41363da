import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daglattice import (
    InfeasibleTarget,
    MissingHiddenStates,
    TargetSequence,
    backward,
    build_random,
    composite_loss,
    expected_states,
    forward,
    nll,
    nll_grad,
    posterior,
)
from daglattice import dp, oracle
from daglattice.decode import best_path
from daglattice.dp import log_marginal
from daglattice.gradcheck import finite_difference_check
from daglattice.logspace import NEG_INF, logsumexp

import reference_kernels as ref
from conftest import lattice_from_probs


class TestForward:
    def test_single_path_product(self, single_path_lattice, single_path_target):
        ft = forward(single_path_lattice, single_path_target)
        assert ft.log_alpha[1, 1] == pytest.approx(math.log(0.125), abs=1e-12)
        # first row is one-hot at vertex 1
        assert ft.log_alpha[0, 0] == pytest.approx(math.log(0.5))
        assert ft.log_alpha[0, 1] == NEG_INF

    def test_degenerate_single_vertex(self):
        lat = lattice_from_probs([[0.0]], [[0.3, 0.7]])
        ft = forward(lat, [0])
        assert ft.log_alpha[0, 0] == pytest.approx(math.log(0.3), abs=1e-12)

    def test_matches_enumeration(self):
        lat = build_random(6, 4, 0, 13)
        y = [2, 0, 3, 1]
        ft = forward(lat, y)
        assert ft.log_alpha[3, 5] == pytest.approx(
            oracle.enumerate_logprob(lat, y), abs=1e-9
        )

    def test_rejects_out_of_vocab_token(self):
        lat = build_random(4, 3, 0, 0)
        with pytest.raises(ValueError):
            forward(lat, [0, 3])

    @pytest.mark.parametrize("target", [
        [1.7, 2.2], [1.0, 2.0], [True, False], [1, True], (np.int64(1), np.True_),
        np.array([1, 2], dtype=np.uint64), ["1", "2"],
    ])
    def test_rejects_targets_that_are_not_integers(self, target):
        lat = build_random(4, 3, 0, 0)
        for call in (forward, nll, lambda lat, y: TargetSequence(y)):
            with pytest.raises(ValueError, match="target must hold 64-bit integers"):
                call(lat, target)

    def test_integer_dtypes_are_targets(self):
        lat = build_random(4, 3, 0, 0)
        want = nll(lat, [1, 2])
        for dtype in (np.int8, np.uint8, np.int32, np.uint32, np.int64):
            y = np.array([1, 2], dtype=dtype)
            assert nll(lat, y) == want
            assert nll(lat, TargetSequence(y)) == want
            assert y.flags.writeable  # TargetSequence holds a copy of its own


class TestBackward:
    def test_single_path_continuation(self, single_path_lattice, single_path_target):
        bt = backward(single_path_lattice, single_path_target)
        # beta_1(1) = E[1,2] * P[2, y2] = 1 * 0.25
        assert bt.log_beta[0, 0] == pytest.approx(math.log(0.25), abs=1e-12)

    def test_last_row_one_hot_at_final_vertex(self):
        lat = build_random(5, 3, 0, 2)
        bt = backward(lat, [0, 1, 2])
        assert bt.log_beta[2, 4] == 0.0
        assert np.all(bt.log_beta[2, :4] == NEG_INF)

    def test_consistency_with_forward(self):
        lat = build_random(6, 4, 0, 13)
        y = [2, 0, 3, 1]
        ft, bt = forward(lat, y), backward(lat, y)
        total = ft.log_marginal
        for i in range(len(y)):
            assert logsumexp(ft.log_alpha[i] + bt.log_beta[i]) == pytest.approx(
                total, abs=1e-9
            )


class TestNll:
    def test_single_path(self, single_path_lattice, single_path_target):
        assert nll(single_path_lattice, single_path_target) == pytest.approx(
            -math.log(0.125), abs=1e-7
        )

    def test_target_longer_than_graph_is_infeasible(self):
        lat = build_random(3, 4, 0, 0)
        assert nll(lat, [0, 1, 2, 3]) == math.inf

    def test_target_far_longer_than_graph_is_answered_by_its_length(self):
        """M > L has no path: every call answers as the full computation
        would, without gathering log P[:, y] or building an (M, L) table."""
        lat = build_random(6, 4, 3, 0)
        y = np.zeros(10**5, dtype=np.int64)  # 0.8 MB; an (M, L) table is 4.8 MB
        no_path = "target of length 100000 has no path in a 6-vertex lattice"
        calls = [
            (log_marginal, lambda v: v == -math.inf),
            (nll, lambda v: v == math.inf),
            (posterior, no_path),
            (expected_states, no_path),
            (nll_grad, no_path),
            (best_path, "no finite-probability length-100000 path in a 6-vertex lattice"),
        ]
        for f, want in calls:
            tracemalloc.start()
            try:
                if isinstance(want, str):
                    with pytest.raises(InfeasibleTarget, match=f"^{want}$"):
                        f(lat, y)
                else:
                    assert want(f(lat, y))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, f"{f.__name__} peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("seed", range(6))
    def test_over_long_tables_sweep_only_reachable_rows(self, seed, monkeypatch):
        """Forward sweeps rows 1..min(M, L)-1 and backward rows
        max(0, M-L)..M-2; every table equals the stepwise reference, which
        runs all M-1 steps, bit for bit."""
        products = []
        real = dp._matmul
        monkeypatch.setattr(dp, "_matmul", lambda *a, **kw: products.append(1) or real(*a, **kw))
        lat = build_random(2 + 3 * seed, 5, 0, seed)
        L = lat.graph_size
        for M in (1, L - 1, L, L + 1, 2 * L + 3):
            y = np.random.default_rng(seed).integers(0, 5, size=M)
            products.clear()
            la, lb = forward(lat, y).log_alpha, backward(lat, y).log_beta
            assert len(products) == 2 * (min(y.size, L) - 1)
            assert np.array_equal(la, ref.stepwise_forward(lat, y))
            assert np.array_equal(lb, ref.stepwise_backward(lat, y))

    def test_length_one_target_on_multi_vertex_graph_is_infeasible(self):
        lat = build_random(3, 4, 0, 0)
        assert nll(lat, [0]) == math.inf

    def test_two_path_sum_by_hand(self):
        lat = build_random(4, 3, 0, 99)
        y = [1, 2, 0]
        # only length-3 paths in a 4-vertex graph
        hand = logsumexp(np.array([
            oracle.path_joint_logprob(lat, y, (0, 1, 3)),
            oracle.path_joint_logprob(lat, y, (0, 2, 3)),
        ]))
        assert nll(lat, y) == pytest.approx(-hand, abs=1e-9)


class TestPosterior:
    def test_single_path_is_one_hot(self, single_path_lattice, single_path_target):
        post = posterior(single_path_lattice, single_path_target)
        assert post.gamma == pytest.approx(np.eye(2), abs=1e-12)

    def test_matches_enumeration(self):
        lat = build_random(7, 4, 0, 5)
        y = [3, 1, 0, 2]
        post = posterior(lat, y, with_pairwise=True)
        ref = oracle.enumerate_posterior(lat, y)
        assert np.max(np.abs(post.gamma - ref.gamma)) <= 1e-9
        assert np.max(np.abs(post.xi - ref.xi)) <= 1e-9

    def test_xi_marginalizes_to_gamma(self):
        lat = build_random(7, 4, 0, 5)
        y = [3, 1, 0, 2]
        post = posterior(lat, y, with_pairwise=True)
        for i in range(len(y) - 1):
            assert post.xi[i].sum(axis=1) == pytest.approx(post.gamma[i], abs=1e-9)
            assert post.xi[i].sum(axis=0) == pytest.approx(post.gamma[i + 1], abs=1e-9)

    def test_infeasible_raises(self):
        lat = build_random(3, 4, 0, 0)
        with pytest.raises(InfeasibleTarget):
            posterior(lat, [0, 1, 2, 3])

    def test_endpoint_rows_pinned(self):
        lat = build_random(6, 4, 0, 8)
        post = posterior(lat, [1, 2, 3])
        assert post.gamma[0, 1:] == pytest.approx(0.0, abs=0.0)
        assert post.gamma[-1, :-1] == pytest.approx(0.0, abs=0.0)


class TestExpectedStates:
    def test_single_path_selects_rows(self):
        hidden = np.array([[1.0, 2.0], [3.0, 4.0]])
        lat = lattice_from_probs(
            [[0.0, 1.0], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]], hidden
        )
        z = expected_states(lat, [0, 1]).z
        assert z == pytest.approx(hidden, abs=1e-12)

    def test_constant_states_are_fixed_point(self):
        lat = build_random(6, 4, 3, 21)
        c = np.full((6, 3), 2.5)
        lat = type(lat)(6, 4, 3, lat.log_transition, lat.log_emission, c)
        z = expected_states(lat, [0, 1, 2, 3]).z
        assert z == pytest.approx(np.full((4, 3), 2.5), abs=1e-12)

    def test_matches_enumeration(self):
        lat = build_random(6, 4, 3, 21)
        y = [0, 2, 1, 3]
        z = expected_states(lat, y).z
        ref = oracle.enumerate_expected_states(lat, y)
        assert np.max(np.abs(z - ref)) <= 1e-9

    def test_requires_hidden_states(self):
        lat = build_random(4, 3, 0, 0)
        with pytest.raises(MissingHiddenStates):
            expected_states(lat, [0, 1])


class TestNllGrad:
    def test_single_path_emission_grads(self, single_path_lattice, single_path_target):
        dE, dP = nll_grad(single_path_lattice, single_path_target)
        expected = np.zeros((2, 2))
        expected[0, 0] = -1.0
        expected[1, 1] = -1.0
        assert dP == pytest.approx(expected, abs=1e-12)
        assert dE[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_finite_differences(self):
        lat = build_random(6, 4, 0, 3)
        result = finite_difference_check(lat, [1, 3, 0, 2], step=1e-6)
        assert result["max_rel_err"] <= 1e-5
        assert result["checked"] > 0

    def test_emission_grads_sum_to_minus_m(self):
        lat = build_random(6, 4, 0, 3)
        y = [1, 3, 0, 2]
        _, dP = nll_grad(lat, y)
        assert dP.sum() == pytest.approx(-len(y), abs=1e-9)


class TestCompositeLoss:
    def test_weighted_sum(self):
        assert composite_loss(2.0, 0.5, 5.0) == pytest.approx(4.5)

    def test_mu_zero_is_identity(self):
        assert composite_loss(1.25, 99.0, 0.0) == 1.25

    def test_infeasibility_propagates(self):
        assert composite_loss(math.inf, 1.0, 5.0) == math.inf

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            composite_loss(1.0, 1.0, -0.1)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_forward_backward_consistency_property(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(2, 9))
    M = int(rng.integers(2, min(L, 6) + 1))
    V = int(rng.integers(2, 6))
    lat = build_random(L, V, 0, seed)
    y = rng.integers(0, V, size=M)
    ft, bt = forward(lat, y), backward(lat, y)
    total = ft.log_marginal
    for i in range(M):
        assert logsumexp(ft.log_alpha[i] + bt.log_beta[i]) == pytest.approx(
            total, abs=1e-9
        )
    post = posterior(lat, y)
    assert post.gamma.sum(axis=1) == pytest.approx(np.ones(M), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 10), min_size=0, max_size=20))
def test_logsumexp_matches_reference(xs):
    arr = np.array(xs)
    if arr.size == 0:
        assert logsumexp(arr) == NEG_INF
    else:
        ref = math.log(sum(math.exp(x) for x in xs))
        assert logsumexp(arr) == pytest.approx(ref, rel=1e-12)
