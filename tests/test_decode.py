import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daglattice import (
    DagLattice,
    InfeasibleTarget,
    best_path,
    build_random,
    glance_assign,
    joint_viterbi,
    lookahead,
    nll,
    tau_schedule,
)
from daglattice import oracle
from daglattice.decode import unmask_count
from daglattice.logspace import NEG_INF

from conftest import lattice_from_probs


class TestBestPath:
    def test_single_path(self, single_path_lattice, single_path_target):
        path, score = best_path(single_path_lattice, single_path_target)
        assert path.vertices == (0, 1)
        assert score == pytest.approx(math.log(0.125), abs=1e-12)

    def test_matches_enumeration(self):
        lat = build_random(8, 5, 0, 17)
        y = [4, 0, 2, 1, 3]
        path, score = best_path(lat, y)
        ref_path, _, ref_score = oracle.enumerate_argmax(lat, y)
        assert path.vertices == ref_path
        assert score == pytest.approx(ref_score, abs=1e-9)

    def test_constructed_dominance(self):
        # two length-3 paths; the one through vertex 3 wins by log(0.5/0.45)
        trans = np.zeros((4, 4))
        trans[0, 1], trans[0, 2], trans[0, 3] = 0.45, 0.5, 0.05
        trans[1, 3] = 1.0
        trans[2, 3] = 1.0
        emit = np.full((4, 2), 0.5)
        lat = lattice_from_probs(trans, emit)
        path, _ = best_path(lat, [0, 1, 0])
        assert path.one_based() == (1, 3, 4)

    def test_score_bounded_by_log_marginal(self):
        lat = build_random(8, 5, 0, 17)
        y = [4, 0, 2, 1, 3]
        _, score = best_path(lat, y)
        assert score <= -nll(lat, y) + 1e-12

    def test_infeasible_raises(self):
        lat = build_random(3, 4, 0, 0)
        with pytest.raises(InfeasibleTarget):
            best_path(lat, [0, 1, 2, 0])


class TestLookahead:
    def test_single_path_chain(self):
        # chain 1 -> 2 -> 3 with distinct argmax tokens per vertex
        trans = np.zeros((3, 3))
        trans[0, 1], trans[1, 2] = 1.0, 1.0
        emit = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        result = lookahead(lattice_from_probs(trans, emit))
        assert result.path.vertices == (0, 1, 2)
        assert list(result.tokens.tokens) == [0, 1, 0]
        assert not result.truncated

    def test_constructed_first_hop(self):
        # E[1,2]*max P[2] = 0.9*0.9 beats E[1,3]*max P[3] = 0.1*0.9
        trans = np.zeros((3, 3))
        trans[0, 1], trans[0, 2] = 0.9, 0.1
        trans[1, 2] = 1.0
        emit = np.array([[0.5, 0.5], [0.9, 0.1], [0.1, 0.9]])
        result = lookahead(lattice_from_probs(trans, emit))
        assert result.path.vertices == (0, 1, 2)

    def test_deterministic_across_runs(self):
        lat = build_random(8, 5, 0, 29)
        a = lookahead(lat)
        b = lookahead(lat)
        assert a.path.vertices == b.path.vertices
        assert np.array_equal(a.tokens.tokens, b.tokens.tokens)
        assert a.joint_logprob == b.joint_logprob

    def test_joint_logprob_recomputes(self):
        lat = build_random(8, 5, 0, 29)
        r = lookahead(lat)
        score = sum(
            lat.log_transition[a, b]
            for a, b in zip(r.path.vertices, r.path.vertices[1:])
        ) + sum(
            lat.log_emission[j, t] for j, t in zip(r.path.vertices, r.tokens.tokens)
        )
        assert r.joint_logprob == pytest.approx(score, abs=1e-9)

    def test_stops_at_a_dead_end(self):
        # vertex 0's only edge runs to vertex 2, which has no out-edge
        trans = np.zeros((5, 5))
        trans[0, 2] = 1.0
        trans[1, 2:] = 1.0 / 3
        trans[3, 4] = 1.0
        emit = np.array([[0.6, 0.4], [0.5, 0.5], [0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        result = lookahead(lattice_from_probs(trans, emit))
        assert result.path.vertices == (0, 2)
        assert list(result.tokens.tokens) == [0, 1]
        assert result.joint_logprob == pytest.approx(math.log(0.6 * 0.8), abs=1e-12)
        assert result.truncated

    def test_max_steps_truncation(self):
        lat = build_random(8, 5, 0, 29)
        r = lookahead(lat, max_steps=2)
        assert len(r.path) <= 2
        if r.path.vertices[-1] != 7:
            assert r.truncated

    @pytest.mark.parametrize("steps", [2.9, 2.0, math.inf, math.nan, True, "2", 0, -1])
    def test_max_steps_must_be_a_positive_integer(self, steps):
        lat = build_random(8, 5, 0, 29)
        with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
            lookahead(lat, max_steps=steps)

    def test_max_steps_accepts_numpy_integers(self):
        lat = build_random(8, 5, 0, 29)
        assert lookahead(lat, max_steps=np.int32(2)) == lookahead(lat, max_steps=2)


class TestJointViterbi:
    def test_single_path_beats_lookahead(self, single_path_lattice):
        jv = joint_viterbi(single_path_lattice)
        la = lookahead(single_path_lattice)
        assert jv.path.vertices == (0, 1)
        assert jv.joint_logprob >= la.joint_logprob - 1e-12

    def test_optimal_at_selected_length(self):
        lat = build_random(8, 5, 0, 31)
        jv = joint_viterbi(lat)
        _, _, ref_score = oracle.enumerate_argmax(lat, length=len(jv.path))
        assert jv.joint_logprob == pytest.approx(ref_score, abs=1e-9)

    def test_length_normalization_prefers_better_average(self):
        # single-token vocab: scores are pure transition products.
        # direct edge 1->4: log 'raw' score -3 (length 2, avg -1.5);
        # chain 1->2->3->4: total -4 (length 4, avg -1).
        lt = np.full((4, 4), NEG_INF)
        lt[0, 3] = -3.0
        lt[0, 1] = lt[1, 2] = lt[2, 3] = -4.0 / 3.0
        le = np.zeros((4, 1))
        lat = DagLattice(4, 1, 0, lt, le)
        assert joint_viterbi(lat).path.vertices == (0, 1, 2, 3)
        assert joint_viterbi(lat, length_select="raw").path.vertices == (0, 3)

    def test_joint_logprob_recomputes(self):
        lat = build_random(8, 5, 0, 31)
        r = joint_viterbi(lat)
        score = sum(
            lat.log_transition[a, b]
            for a, b in zip(r.path.vertices, r.path.vertices[1:])
        ) + sum(
            lat.log_emission[j, t] for j, t in zip(r.path.vertices, r.tokens.tokens)
        )
        assert r.joint_logprob == pytest.approx(score, abs=1e-9)

    def test_single_vertex_lattice(self):
        lat = build_random(1, 3, 0, 7)
        r = joint_viterbi(lat)
        assert r.path.vertices == (0,)
        assert len(r.tokens.tokens) == 1

    @pytest.mark.parametrize("select", ["normalized", "raw"])
    def test_unreachable_final_vertex_is_infeasible(self, select):
        # L = 3 with the single edge 0 -> 1: no path reaches vertex 2
        lt = np.full((3, 3), NEG_INF)
        lt[0, 1] = 0.0
        lat = DagLattice(3, 2, 0, lt, np.log(np.full((3, 2), 0.5)))
        with pytest.raises(InfeasibleTarget, match="no finite-probability path"):
            joint_viterbi(lat, select)

    def test_single_vertex_without_a_finite_emission_is_infeasible(self):
        lat = DagLattice(1, 2, 0, np.full((1, 1), NEG_INF), np.full((1, 2), NEG_INF))
        with pytest.raises(InfeasibleTarget):
            joint_viterbi(lat)

    def test_unknown_length_select(self):
        with pytest.raises(ValueError, match="unknown length_select 'longest'"):
            joint_viterbi(build_random(4, 2, 0, 0), "longest")


class TestGlance:
    def test_tau_zero_all_masked(self):
        lat = build_random(8, 5, 0, 11)
        ga = glance_assign(lat, [1, 2, 3, 0, 4], 0.0, seed=1)
        assert not ga.observed_mask.any()

    def test_tau_one_all_unmasked(self):
        lat = build_random(8, 5, 0, 11)
        ga = glance_assign(lat, [1, 2, 3, 0, 4], 1.0, seed=1)
        assert ga.observed_mask.all()

    def test_half_tau_count_and_determinism(self):
        lat = build_random(8, 5, 0, 11)
        y = [1, 2, 3, 0, 4]
        a = glance_assign(lat, y, 0.5, seed=3)
        b = glance_assign(lat, y, 0.5, seed=3)
        assert a.observed_mask.sum() == 3  # ceil(2.5)
        assert np.array_equal(a.observed_mask, b.observed_mask)
        assert a.path.vertices == b.path.vertices

    def test_path_is_best_path(self):
        lat = build_random(8, 5, 0, 11)
        y = [1, 2, 3, 0, 4]
        ga = glance_assign(lat, y, 0.3, seed=9)
        ref, _ = best_path(lat, y)
        assert ga.path.vertices == ref.vertices

    @pytest.mark.parametrize("seed", [1.5, -1, True, None, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        lat = build_random(8, 5, 0, 11)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            glance_assign(lat, [1, 2, 3, 0, 4], 0.5, seed=seed)

    def test_seed_accepts_numpy_integers(self):
        lat = build_random(8, 5, 0, 11)
        a = glance_assign(lat, [1, 2, 3, 0, 4], 0.5, seed=np.uint8(3))
        b = glance_assign(lat, [1, 2, 3, 0, 4], 0.5, seed=3)
        assert np.array_equal(a.observed_mask, b.observed_mask)


class TestTauSchedule:
    def test_anneal_start(self):
        assert tau_schedule(0, 100, 0.5, 0.1) == pytest.approx(0.5)

    def test_anneal_end(self):
        assert tau_schedule(100, 100, 0.5, 0.1) == pytest.approx(0.1)

    def test_midpoint(self):
        assert tau_schedule(50, 100, 0.5, 0.1) == pytest.approx(0.3)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            tau_schedule(5, 4)

    @pytest.mark.parametrize("step, total, name", [
        (2.5, 10, "step"), (True, 10, "step"), (-1, 10, "step"), ("1", 10, "step"),
        (2, 10.0, "total_steps"), (1, True, "total_steps"), (0, 0, "total_steps"),
    ])
    def test_arguments_must_be_integers(self, step, total, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            tau_schedule(step, total)

    def test_numpy_integers_accepted(self):
        assert tau_schedule(np.int64(50), np.uint16(100)) == tau_schedule(50, 100)


@settings(max_examples=100, deadline=None)
@given(
    tenths=st.integers(0, 10),
    m=st.integers(1, 10),
)
def test_unmask_count_matches_exact_ceil(tenths, m):
    from fractions import Fraction

    assert unmask_count(tenths / 10, m) == math.ceil(Fraction(tenths, 10) * m)


@pytest.mark.parametrize("length", [-3, 2.5, 2.0, True, math.nan])
def test_unmask_count_length_must_be_a_non_negative_integer(length):
    with pytest.raises(ValueError, match="length must be an integer >= 0"):
        unmask_count(0.5, length)
    assert unmask_count(0.5, np.int64(3)) == unmask_count(0.5, 3) == 2


@pytest.mark.parametrize("tau", [-0.1, 1.5, math.nan, math.inf])
def test_unmask_count_tau_must_be_in_the_unit_interval(tau):
    with pytest.raises(ValueError, match=r"tau must be in \[0, 1\]"):
        unmask_count(tau, 4)
