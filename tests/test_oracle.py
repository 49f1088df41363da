import math

import numpy as np
import pytest

from daglattice import DagLattice, InfeasibleTarget, MissingHiddenStates, build_random, dp
from daglattice import oracle
from daglattice.oracle import (
    CapExceeded,
    enumerate_argmax,
    enumerate_logprob,
    enumerate_paths,
    enumerate_posterior,
)

from conftest import lattice_from_probs


def test_path_count_closed_form():
    for L in range(2, 13):
        for M in range(2, L + 1):
            assert sum(1 for _ in enumerate_paths(L, M)) == math.comb(L - 2, M - 2)


def test_degenerate_single_vertex_path():
    assert list(enumerate_paths(1, 1)) == [(0,)]
    assert list(enumerate_paths(1, 2)) == []
    assert list(enumerate_paths(3, 1)) == []


def test_four_vertex_length_three_paths():
    assert list(enumerate_paths(4, 3)) == [(0, 1, 3), (0, 2, 3)]


def test_single_path_logprob_is_product(single_path_lattice, single_path_target):
    assert enumerate_logprob(single_path_lattice, single_path_target) == pytest.approx(
        math.log(0.125), abs=1e-12
    )


def test_posterior_one_hot_on_single_path(single_path_lattice, single_path_target):
    post = enumerate_posterior(single_path_lattice, single_path_target)
    assert post.gamma == pytest.approx(np.eye(2), abs=1e-12)


def test_posterior_symmetric_two_path_split():
    # interior vertices 2 and 3 carry identical mass by construction
    trans = np.zeros((4, 4))
    trans[0, 1] = trans[0, 2] = 0.5
    trans[1, 3] = trans[2, 3] = 1.0
    emit = np.full((4, 2), 0.5)
    lat = lattice_from_probs(trans, emit)
    post = enumerate_posterior(lat, [0, 1, 0])
    assert post.gamma[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert post.gamma[1, 2] == pytest.approx(0.5, abs=1e-12)


def test_argmax_single_path(single_path_lattice, single_path_target):
    path, _, _ = enumerate_argmax(single_path_lattice, single_path_target)
    assert path == (0, 1)


def test_argmax_greedy_token_mode():
    lat = build_random(6, 4, 0, 2)
    path, toks, score = enumerate_argmax(lat, length=3)
    assert len(path) == len(toks) == 3
    greedy = np.argmax(lat.log_emission, axis=1)
    assert np.array_equal(toks, greedy[list(path)])
    assert score == pytest.approx(oracle.path_joint_logprob(lat, toks, path), abs=1e-12)


def test_argmax_takes_exactly_one_of_target_and_length():
    lat = build_random(6, 4, 0, 2)
    for kwargs in ({"target": [0, 1, 2], "length": 3}, {}):
        with pytest.raises(ValueError, match="target and length"):
            enumerate_argmax(lat, **kwargs)


@pytest.mark.parametrize("length", [2.5, True, 0, -1, "3"])
def test_argmax_length_must_be_an_integer_at_least_one(length):
    with pytest.raises(ValueError, match="length must be an integer >= 1"):
        enumerate_argmax(build_random(6, 4, 0, 2), length=length)


def test_cap_enforced():
    """12 vertices is the cap: a 12-vertex lattice enumerates, 13 do not."""
    assert np.isfinite(enumerate_logprob(build_random(12, 3, 0, 0), [0, 1, 2]))
    with pytest.raises(CapExceeded, match="graph size 13 exceeds enumeration cap 12"):
        enumerate_logprob(build_random(13, 3, 0, 0), [0, 1, 2])


def _impossible_last_token(lat):
    """The lattice with token 0 impossible at the final vertex, so that every
    path of a target ending in token 0 scores -inf."""
    le = np.array(lat.log_emission)
    le[-1, 0] = -np.inf
    return DagLattice(lat.graph_size, lat.vocab_size, lat.hidden_dim,
                      lat.log_transition, le, lat.hidden_states)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["longer_than_L", "single_token", "every_path_neg_inf"])
def test_infeasible_targets_raise_like_dp(case):
    """No path, or none with a finite score: the oracle's posteriors,
    expected states and best path raise InfeasibleTarget, as dp's do, and
    the log marginal is -inf."""
    lat = build_random(4, 3, 2, 1)
    y = {"longer_than_L": [0] * 5, "single_token": [0], "every_path_neg_inf": [1, 0]}[case]
    if case == "every_path_neg_inf":
        lat = _impossible_last_token(lat)
    assert enumerate_logprob(lat, y) == -np.inf
    for fn in (enumerate_posterior, oracle.enumerate_expected_states, enumerate_argmax,
               dp.posterior, dp.expected_states):
        with pytest.raises(InfeasibleTarget):
            fn(lat, y)


def test_argmax_length_above_the_graph_size_is_infeasible():
    with pytest.raises(InfeasibleTarget, match="no finite-probability length-5 path in a 4-vertex"):
        enumerate_argmax(build_random(4, 3, 0, 1), length=5)


def test_cap_comes_before_the_target():
    lat = build_random(13, 3, 2, 0)
    for fn in (enumerate_logprob, enumerate_posterior, oracle.enumerate_expected_states):
        with pytest.raises(CapExceeded, match="graph size 13 exceeds enumeration cap 12"):
            fn(lat, [99])


def test_expected_states_without_hidden_states_raise_like_dp():
    lat = build_random(4, 3, 0, 1)
    for fn in (oracle.enumerate_expected_states, dp.expected_states):
        with pytest.raises(MissingHiddenStates, match="no hidden states"):
            fn(lat, [0, 1])
