"""joint_viterbi's early stop: once a longest-path bound proves that no
longer length can beat the best criterion so far, the step sweep ends. Its
results must equal the unpruned sweep's bit for bit, in both length modes,
and lattices the bound does not cover must take the full sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from daglattice import DagLattice, build_random, decode
from daglattice.logspace import NEG_INF

MODES = ("normalized", "raw")


def joint(lat, select, prune=True):
    """(outcome, steps): joint_viterbi's path, tokens and score as a repr
    (so that NaN scores compare equal), or its ValueError, and the last step
    the sweep computed. prune=False runs the unpruned sweep."""
    real = decode._longer_cannot_win
    steps = [0]

    def rule(*args):
        done = real(*args)

        def counted(i, row):
            steps[0] = i
            return prune and done(i, row)

        return counted

    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(decode, "_longer_cannot_win", rule)
        try:
            r = decode.joint_viterbi(lat, select)
            out = repr((r.path.vertices, r.tokens.tokens.tolist(), r.joint_logprob))
        except ValueError as exc:  # a non-DAG lattice can read back a bad path
            out = repr(exc)
    return out, steps[0]


@pytest.mark.parametrize("select", MODES)
def test_benchmark_shaped_lattices_stop_after_a_few_steps(select):
    for seed in range(3):
        lat = build_random(256, 1000, 0, seed)
        got, steps = joint(lat, select)
        want, full = joint(lat, select, prune=False)
        assert got == want
        assert full == 255
        assert steps <= 16, f"seed {seed}: the sweep ran {steps} of 255 steps"


def _longest_wins(L, dip):
    """Single-token lattice whose longest path, the chain through every
    vertex, has the best criterion in both modes. With dip, the direct edge
    0 -> L-1 beats every length from 3 to L-1, so the criterion stops
    improving early and the bound is computed but must not fire."""
    lt = np.full((L, L), -30.0)
    lt[np.tril_indices(L)] = NEG_INF
    lt[np.arange(L - 1), np.arange(1, L)] = -0.01
    le = np.zeros((L, 1))
    if dip:
        lt[0, L - 1] = -1.0
    else:
        le[0, 0] = -20.0  # averages over longer paths keep improving
    return DagLattice(L, 1, 0, lt, le)


@pytest.mark.parametrize("dip", [False, True])
@pytest.mark.parametrize("select", MODES)
def test_longest_length_wins_after_the_full_sweep(select, dip):
    L = 40
    lat = _longest_wins(L, dip)
    got, steps = joint(lat, select)
    assert got == joint(lat, select, prune=False)[0]
    assert steps == L - 1
    assert decode.joint_viterbi(lat, select).path.vertices == tuple(range(L))


def _corrupt(kind, lat):
    L = lat.graph_size
    lt, le = np.array(lat.log_transition), np.array(lat.log_emission)
    if kind == "nan_edge":
        lt[L - 3, L - 1] = np.nan
    elif kind == "inf_edge":
        lt[2, L - 1] = np.inf
    elif kind == "nan_emission":
        le[L - 2, 0] = np.nan
    elif kind == "inf_emission":
        le[L - 2, 0] = np.inf
    else:  # lower-triangle mass, as --skip-validation lets through
        lt[L - 2, 3] = -1.0
    return DagLattice(L, lat.vocab_size, 0, lt, le)


@pytest.mark.parametrize("kind", ["nan_edge", "inf_edge", "nan_emission", "inf_emission", "lower_mass"])
@pytest.mark.parametrize("select", MODES)
def test_lattices_outside_the_bound_take_the_full_sweep(select, kind):
    for seed in range(4):
        clean = build_random(40, 20, 0, seed)
        assert joint(clean, select)[1] < 39  # the bound fires on the clean lattice
        lat = _corrupt(kind, clean)
        got, steps = joint(lat, select)
        assert got == joint(lat, select, prune=False)[0]
        assert steps == 39


@st.composite
def tie_heavy_lattices(draw):
    """Small valid lattices whose entries come from a few values, so that
    many paths and lengths tie exactly."""
    L = draw(st.integers(1, 10))
    V = draw(st.integers(1, 3))
    lt = draw(arrays(np.float64, (L, L), elements=st.sampled_from([NEG_INF, 0.0, -0.5, -1.0, -2.0])))
    lt[np.tril_indices(L)] = NEG_INF
    le = draw(arrays(np.float64, (L, V), elements=st.sampled_from([NEG_INF, 0.0, -0.5, -1.0])))
    return DagLattice(L, V, 0, lt, le)


@settings(max_examples=300, deadline=None)
@given(lat=tie_heavy_lattices())
def test_tie_heavy_lattices_match_the_unpruned_sweep(lat):
    for select in MODES:
        assert joint(lat, select)[0] == joint(lat, select, prune=False)[0]
