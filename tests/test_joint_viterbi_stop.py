"""joint_viterbi's early stop: once a longest-path bound proves that no
longer length can beat the best criterion so far, the step sweep ends. Its
results must equal the unpruned sweep's bit for bit, in both length modes,
and lattices the bound does not cover must take the full sweep; lattices
with NaN or +inf entries cannot be built."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from daglattice import DagLattice, build_random, decode
from daglattice.lattice import DimensionError
from daglattice.logspace import NEG_INF

MODES = ("normalized", "raw")


def joint(lat, select, prune=True):
    """(outcome, steps): joint_viterbi's path, tokens and score as a repr,
    and the last step the sweep computed. prune=False runs the unpruned
    sweep."""
    real = decode._longer_cannot_win
    steps = [0]

    def rule(*args):
        done = real(*args)

        def counted(i, row):
            steps[0] = i
            return prune and done(i, row)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode, "_longer_cannot_win", rule)
        r = decode.joint_viterbi(lat, select)
    return repr((r.path.vertices, r.tokens.tokens.tolist(), r.joint_logprob)), steps[0]


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


# kind: (matrix, row, column, value, the construction error or None)
CORRUPTIONS = {
    "nan_edge": ("lt", 37, 39, np.nan, "log_transition row 37: entry nan at column 39"),
    "inf_edge": ("lt", 2, 39, np.inf, "log_transition row 2: entry inf at column 39"),
    "nan_emission": ("le", 38, 0, np.nan, "log_emission row 38: entry nan at column 0"),
    "inf_emission": ("le", 38, 0, np.inf, "log_emission row 38: entry inf at column 0"),
    "lower_mass": ("lt", 38, 3, -1.0, "log_transition row 38: entry -1.0 at column 3"),
    # finite, but 8 L A overflows, so the rounding margin cannot be bounded
    "huge_edge": ("lt", 37, 39, -1e307, None),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@pytest.mark.parametrize("select", MODES)
def test_lattices_outside_the_bound_take_the_full_sweep(select, kind):
    """A lattice with NaN, +inf or lower-triangle mass cannot be built;
    one whose entries could overflow the bound's margin runs every step."""
    which, row, col, value, error = CORRUPTIONS[kind]
    for seed in range(4):
        clean = build_random(40, 20, 0, seed)
        assert joint(clean, select)[1] < 39  # the bound fires on the clean lattice
        lt, le = np.array(clean.log_transition), np.array(clean.log_emission)
        (lt if which == "lt" else le)[row, col] = value
        if error is not None:
            with pytest.raises(DimensionError, match=error):
                DagLattice(40, 20, 0, lt, le)
            continue
        lat = DagLattice(40, 20, 0, lt, le)
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


def reference_suffix(w):
    """R(j), the best exact sum of w along a path from j to L-1 with at
    least one edge (R(L-1) = -inf), by a plain backward O(L^2) loop over
    exact rationals; None stands for -inf."""
    L = len(w)
    R = [None] * L
    for j in range(L - 2, -1, -1):
        for k in range(j + 1, L):
            rest = Fraction(0) if k == L - 1 else R[k]
            if w[j, k] == NEG_INF or rest is None:
                continue
            s = Fraction(w[j, k]) + rest
            if R[j] is None or s > R[j]:
                R[j] = s
    return R


ENTRIES = {
    "random": st.floats(-8.0, 0.0),
    "tie": st.sampled_from([0.0, -0.5, -1.0, -2.0]),
    "masked": st.sampled_from([NEG_INF, NEG_INF, NEG_INF, -0.25, -3.0]) | st.floats(-20.0, 0.0),
    "positive": st.floats(-2.0, 6.0),
}


@st.composite
def bound_inputs(draw):
    """(log E, emit, lam) for _suffix_bound: a valid DAG's log E, one
    emission per vertex and lam = 0 (raw mode) or one of the finite entries
    (normalized mode; a criterion is at most 2A in magnitude, as the
    rounding margin assumes), with entries of one of four kinds."""
    kind = draw(st.sampled_from(sorted(ENTRIES)))
    L = draw(st.integers(2, 12))
    lt = draw(arrays(np.float64, (L, L), elements=ENTRIES[kind]))
    lt[np.tril_indices(L)] = NEG_INF
    emit = draw(arrays(np.float64, L, elements=ENTRIES[kind]))
    finite = np.concatenate([lt[lt > NEG_INF], emit[emit > NEG_INF]])
    lam = draw(st.sampled_from([0.0, *finite.tolist()]))
    return lt, emit, lam


def assert_above(U, R, slack):
    """U(j) >= R(j) - slack(j) on every vertex before L-1."""
    for j, r in enumerate(R[:-1]):
        if r is not None:
            assert U[j] > NEG_INF and Fraction(U[j]) >= r - slack[j], j


@settings(max_examples=400, deadline=None)
@given(data=bound_inputs(), start=st.integers(0, 11))
def test_suffix_bound_stays_above_the_longest_path(data, start):
    """U0 >= R, U stays >= R through tightening steps on [i, L-1), and the
    steps reach R within tau. Each U(j) is rounded at most L-j times with
    partial sums below 6 L A, so it may sit that far below the exact R."""
    lt, emit, lam = data
    L = emit.size
    bound = decode._suffix_bound(lt, emit, lam)
    assert bound is not None
    w, U, tau = bound
    R = reference_suffix(w)
    A = max(np.abs(lt[lt > NEG_INF]).max(initial=0.0), np.abs(emit[emit > NEG_INF]).max(initial=0.0))
    slack = [Fraction((L - j) * 6 * L * A) / 2**53 for j in range(L)]
    assert U[L - 1] == 0.0
    assert_above(U, R, slack)
    i = min(start, L - 1)
    for _ in range(L):
        if not decode._tighten(w, U, i):
            break
        assert_above(U, R, slack)
    else:
        assert not decode._tighten(w, U, i), "tightening did not settle within L steps"
    for j in range(i, L - 1):
        if R[j] is None:
            assert U[j] == NEG_INF
        else:
            assert abs(Fraction(U[j]) - R[j]) <= Fraction(tau)
