"""Library calls on every kind of scalar argument: each returns a number
that is not NaN, or raises a ValueError whose message starts with the name
of the argument it rejects, and none warns."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daglattice import composite_loss, tau_schedule
from daglattice.decode import unmask_count

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# integers fit in 64 bits, as counts and tokens in files do; a Python
# integer beyond the float range still raises OverflowError here
INT64 = st.integers(-2**63, 2**63 - 1)
# NaN, infinities, huge finite floats, bools, numpy scalars and floats
# where integers belong, beside plain integers
SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.5, 1.0]),
    st.booleans(),
    INT64,
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    INT64.map(np.int64),
    st.integers(0, 255).map(np.uint8),
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
def test_unmask_count_is_a_count_up_to_the_length(tau, length):
    try:
        n = unmask_count(tau, length)
    except ValueError as exc:
        assert _rejects(exc, "tau", "length"), exc
        return
    assert 0 <= n <= length
