"""Library calls on every kind of scalar argument: each returns a number
that is not NaN, or raises a ValueError whose message starts with the name
of the argument it rejects, and none warns. length_regulate and tts_losses
are held to the same rule on arrays of such scalars."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daglattice import (InfeasibleTarget, build_random, composite_loss, length_regulate,
                        tau_schedule, tts_losses)
from daglattice.decode import best_path, glance_assign, unmask_count

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INT64 = st.integers(-2**63, 2**63 - 1)
# NaN, infinities, huge finite floats, bools, numpy scalars and floats
# where integers belong, beside plain integers, integers beyond the float
# range, strings and None
SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.5, 1.0]),
    st.booleans(),
    INT64,
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    INT64.map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.integers(min_value=2**1024),
    st.integers(max_value=-2**1024),
    st.sampled_from(["0.5", "1", "nan", ""]),
    st.text(max_size=3),
    st.none(),
)


def _rejects(exc, *names):
    return any(str(exc).startswith(f"{name} ") for name in names)


@settings(max_examples=400, deadline=None)
@given(nll_value=SCALARS, tts_loss_value=SCALARS, mu=SCALARS)
@example(1.0, math.inf, 0.0)
@example(math.nan, 1.0, 1.0)
@example(1.0, math.nan, 1.0)
@example(-math.inf, 1.0, 1.0)
@example(1e308, 1e308, 5.0)
@example(math.inf, 1e308, 5.0)
@example(math.inf, -1e298, 1e11)  # +inf plus an overflowing -inf would be NaN
@example(10**400, 1.0, 1.0)
@example("1.0", 1.0, 1.0)
@example(1.0, None, 1.0)
def test_composite_loss_is_never_nan(nll_value, tts_loss_value, mu):
    try:
        loss = composite_loss(nll_value, tts_loss_value, mu)
    except ValueError as exc:
        assert _rejects(exc, "nll_value", "tts_loss_value", "mu"), exc
        return
    assert loss == float(nll_value) + float(mu) * float(tts_loss_value)
    assert math.isfinite(loss) or loss == nll_value == math.inf


@settings(max_examples=400, deadline=None)
@given(step=SCALARS, total_steps=SCALARS)
@example(3, 10)
@example(10, 10)
@example(2**63 - 1, 2**63 - 1)
@example(10**400, 10**400)
@example(1, 2**1024 - 2**970)  # the smallest integer whose float overflows
def test_tau_schedule_stays_in_the_unit_interval(step, total_steps):
    try:
        tau = tau_schedule(step, total_steps)
    except ValueError as exc:
        assert _rejects(exc, "step", "total_steps"), exc
        return
    assert 0.1 - 1e-15 < tau <= 0.5  # the last step is 0.5 + (0.1 - 0.5), just below 0.1


@settings(max_examples=400, deadline=None)
@given(tau=SCALARS, length=SCALARS)
@example(1.0, 2**63 - 1)
@example(np.float32(1.0), 2**63 - 1)
@example(math.nan, 3)
@example(np.uint8(0), 256)  # a uint8 product with 256 would overflow
@example(0.5, 10**400)
@example("0.5", 3)
@example(None, 3)
def test_unmask_count_is_a_count_up_to_the_length(tau, length):
    try:
        n = unmask_count(tau, length)
    except ValueError as exc:
        assert _rejects(exc, "tau", "length"), exc
        return
    assert 0 <= n <= length


# durations that the frames of a few small state rows can hold, beside
# booleans, non-integral and huge values; a total beyond every array is
# refused before any frame is made
DURATIONS = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([True, False, 1.5, 2.0, math.nan, math.inf, None, "1", 2**63 - 1,
                     2**63, 2**64, 10**400, -2**63]),
)
STATE_ENTRIES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, None, True, "x", 10**400]),
)


@st.composite
def states_and_durations(draw):
    rows, width = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    states = draw(st.one_of(
        st.lists(st.lists(STATE_ENTRIES, min_size=width, max_size=width),
                 min_size=rows, max_size=rows),
        STATE_ENTRIES))
    durations = draw(st.one_of(
        st.lists(DURATIONS, min_size=rows, max_size=rows),
        st.lists(st.integers(0, 3), min_size=rows, max_size=rows).map(np.array),
        DURATIONS))
    return states, durations


@settings(max_examples=400, deadline=None)
@given(states_and_durations())
def test_length_regulate_gives_finite_frames(case):
    states, durations = case
    try:
        frames = length_regulate(states, durations)
    except ValueError as exc:
        assert _rejects(exc, "states", "durations"), exc
        return
    assert frames.dtype == np.float64 and np.all(np.isfinite(frames))
    assert frames.shape[0] == sum(int(d) for d in np.atleast_1d(durations))


# mel, duration, pitch and energy: a prediction and its ground truth each
PAIRS = ("mel", "duration", "pitch", "energy")


@st.composite
def loss_inputs(draw):
    """Eight tts_losses arguments. Three pairs in four are finite floats of
    one length, as a list or an array, so that a share of draws is
    accepted; the rest mix entries of every kind, scalars and booleans."""
    args = []
    for _ in PAIRS:
        floats = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3)
        if draw(st.integers(0, 3)):
            pred = draw(floats)
            gt = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(pred), max_size=len(pred)))
            args += [np.array(pred), gt] if draw(st.booleans()) else [pred, np.array(gt)]
            continue
        n = draw(st.integers(0, 3))
        side = st.one_of(
            st.lists(STATE_ENTRIES, min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
            STATE_ENTRIES)
        args += [draw(side), draw(side)]
    return args


@settings(max_examples=400, deadline=None)
@given(loss_inputs())
@example([[[True]], [[False]], [1.0], ["2"], [1.0], [1.0], [1.0], [1.0]])
@example(["x", "y", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
@example([[1e308], [-1e308], 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])  # the difference overflows
@example([np.ones(2), [0.5, 1.5], 1.0, 2.0, [3.0], [1.0], 0.0, 0.0])
def test_tts_losses_are_finite_or_name_the_pair(args):
    try:
        losses = tts_losses(*args)
    except ValueError as exc:
        # a pair by name and side, a shape mismatch by name, or a loss term
        assert any(str(exc).startswith((f"{name} pred ", f"{name} gt ", f"{name}: "))
                   for name in PAIRS) or str(exc).startswith("tts loss "), exc
        return
    # accepted inputs keep the bits of float64 arithmetic on np.asarray
    pairs = [np.asarray(a, dtype=np.float64) for a in args]
    terms = [float(np.mean(err(pairs[2 * t] - pairs[2 * t + 1])))
             for t, err in enumerate((np.abs, np.square, np.square, np.square))]
    assert [losses.l1, losses.dur_mse, losses.pitch_mse, losses.energy_mse] == terms
    assert losses.total == sum(terms) and math.isfinite(losses.total)


@pytest.mark.parametrize("args, name", [
    (([[True]], [[False]], [1.0], ["2"], [1.0], [1.0], [1.0], [1.0]), "mel pred"),  # read as 1/0
    (([[1.0]], [[0.0]], [1.0], ["2"], [1.0], [1.0], [1.0], [1.0]), "duration gt"),  # parsed as 2
    (("x", "y", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "mel pred"),
    ((1.0, 1.0, 1.0, np.array([b"2"]), 1.0, 1.0, 1.0, 1.0), "duration gt"),
    ((1.0, 1.0, 1.0, 1.0, np.array([1.0, 2.0]), [1.0, True], 1.0, 1.0), "pitch gt"),
    ((1.0, 1.0, 1.0, 1.0, 1.0, 1.0, [10**400], [1.0]), "energy pred"),
    (([[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0]], 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "mel pred"),
    (([np.zeros((2, 2)), np.zeros((2, 3))], 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "mel pred"),
])
def test_tts_losses_names_the_pair_it_rejects(args, name):
    with pytest.raises(ValueError) as info:
        tts_losses(*args)
    assert str(info.value).startswith(f"{name} must be numbers"), info.value


@pytest.mark.parametrize("states, durations, name", [
    (None, [1], "states"),  # read as NaN
    ([[math.nan]], [1], "states"),
    ([[-math.inf]], [1], "states"),
    ([[1.0]], [True], "durations"),  # read as 1
    ([[1.0], [2.0]], [2, False], "durations"),
    ([[1.0]], np.array([True]), "durations"),
    ([[1.0]], [10**400], "durations"),
    ([[1.0]], [2**64], "durations"),
    ([[1.0]], np.array([2**63], dtype=np.uint64), "durations"),
    ([[True, False]], [2], "states"),  # read as 1/0
    ([[1.0, True]], [2], "states"),
    ("1.5", [1], "states"),  # parsed as 1.5
    (np.array([["1.5"]]), [1], "states"),
    (np.zeros((2, 2, 2)), [1, 1], "states"),  # 3-D frames
])
def test_length_regulate_names_what_it_rejects(states, durations, name):
    with pytest.raises(ValueError) as info:
        length_regulate(states, durations)
    assert _rejects(info.value, name), info.value


def test_length_regulate_takes_one_dimensional_states_as_one_row():
    frames = length_regulate([1.0, 2.0], [2])
    assert frames.tolist() == [[1.0, 2.0], [1.0, 2.0]]
    assert length_regulate(np.float64(1.5), [1]).tolist() == [[1.5]]


GLANCE_LATTICE = build_random(6, 4, 0, 3)  # every target of 1..6 in-vocabulary tokens has a path
# in-vocabulary targets that fit, over-long ones, the refused kinds (empty,
# floats, booleans, beyond int64, strings, None, 2-D, out of vocabulary)
# and short lists of any scalar
TARGETS = st.one_of(
    st.lists(st.integers(0, 3), min_size=2, max_size=6),
    st.lists(st.integers(0, 3), min_size=2, max_size=6).map(np.array),
    st.lists(st.integers(0, 3), min_size=7, max_size=12),
    st.sampled_from([[], [1.5, 0], [True, 0], [2**70, 0], "ab", None, [[0, 1]], [0, 9], [-1, 0],
                     np.array([[0, 1]]), np.array([0, 4])]),
    st.lists(SCALARS, min_size=1, max_size=3),
)


def _names_target(exc):
    return _rejects(exc, "target") or str(exc).endswith(" in target")


@settings(max_examples=400, deadline=None)
@given(target=TARGETS, tau=st.one_of(st.floats(0.05, 1.0), SCALARS),
       seed=st.one_of(st.integers(0, 2**64), SCALARS))
@example([0, 1, 2], 0.5, 7)
@example([3, 2, 1, 0, 1, 2], 1.0, 0)
@example(np.array([0, 0]), np.float32(0.3), 2**63 - 1)
@example([0, 1], None, 0)
@example([0, 1], "0.5", 0)
@example([0, 1], math.nan, 0)
@example([0, 1], 10**400, 0)
@example([0, 1], 0.5, True)
@example([0, 1], 0.5, 1.5)
@example([0, 1], 0.5, -1)
@example([0, 1], 0.5, None)
@example([1.5, 0], None, None)  # a bad target is named before a bad tau
@example([0] * 7, None, None)  # so is an over-long one
def test_glance_assign_aligns_or_names_what_it_rejects(target, tau, seed):
    """Returns best_path's path with unmask_count(tau, M) tokens revealed,
    or refuses the target first (a ValueError naming it, or
    InfeasibleTarget), then tau, then seed."""
    lat = GLANCE_LATTICE
    try:
        want_path = best_path(lat, target)[0]
    except ValueError as exc:  # InfeasibleTarget included
        with pytest.raises(type(exc)) as info:
            glance_assign(lat, target, tau, seed)
        assert str(info.value) == str(exc)
        assert isinstance(exc, InfeasibleTarget) or _names_target(exc), exc
        return
    try:
        ga = glance_assign(lat, target, tau, seed)
    except ValueError as exc:
        assert not isinstance(exc, InfeasibleTarget)
        if _rejects(exc, "seed"):
            unmask_count(tau, len(want_path))  # tau was fine
        else:
            assert _rejects(exc, "tau"), exc
        return
    M = len(want_path)
    assert ga.path == want_path
    assert ga.observed_mask.dtype == bool and ga.observed_mask.shape == (M,)
    assert int(ga.observed_mask.sum()) == unmask_count(tau, M)
    assert ga.tau == float(tau)
