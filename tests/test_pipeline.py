import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daglattice import build_random, combined_loss, length_regulate, nll, tts_losses
from daglattice.pipeline import LengthMismatch, ShapeMismatch


class TestLengthRegulate:
    def test_unit_durations_identity(self):
        states = np.array([[1.0], [2.0]])
        frames = length_regulate(states, [1, 1])
        assert np.array_equal(frames, states)

    def test_zero_duration_elision(self):
        states = np.array([[1.0], [2.0]])
        frames = length_regulate(states, [0, 3])
        assert frames.shape == (3, 1)
        assert np.all(frames == 2.0)

    def test_repeat_order(self):
        states = np.array([[1.0], [2.0], [3.0]])
        frames = length_regulate(states, [2, 1, 2])
        assert frames[:, 0].tolist() == [1.0, 1.0, 2.0, 3.0, 3.0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            length_regulate(np.zeros((2, 1)), [1, 1, 1])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            length_regulate(np.zeros((2, 1)), [1, -1])

    @pytest.mark.parametrize("durations", [[1.7, 0.5], [1.0, np.nan], [np.inf, 1.0]])
    def test_non_integral_durations_rejected(self, durations):
        with pytest.raises(ValueError, match="durations"):
            length_regulate(np.zeros((2, 1)), durations)

    @pytest.mark.parametrize("durations", [
        [2**60],  # 2**63 bytes of frames, more than any array can hold
        [2**62] * 4,  # an int64 total wraps to 0
        [2**62] * 3,  # and here to a negative count
    ])
    def test_totals_that_cannot_become_frames_rejected(self, durations):
        with pytest.raises(ValueError, match="durations add up to"):
            length_regulate(np.zeros((len(durations), 1)), durations)

    def test_integral_float_durations_repeat(self):
        frames = length_regulate(np.array([[1.0], [2.0]]), np.array([2.0, 1.0]))
        assert frames[:, 0].tolist() == [1.0, 1.0, 2.0]


class TestTtsLosses:
    def _zeros(self):
        return [np.zeros((4, 3)), np.zeros((4, 3))] + [np.zeros(4)] * 6

    def test_identical_inputs_all_zero(self):
        losses = tts_losses(*self._zeros())
        assert losses == type(losses)(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_unit_mel_offset(self):
        args = self._zeros()
        args[0] = np.ones((4, 3))
        losses = tts_losses(*args)
        assert losses.l1 == pytest.approx(1.0)
        assert losses.total == pytest.approx(1.0)

    def test_random_matches_reference_formula(self):
        rng = np.random.default_rng(8)
        pm, gm = rng.random((4, 3)), rng.random((4, 3))
        pd, gd = rng.random(4), rng.random(4)
        pp, gp = rng.random(4), rng.random(4)
        pe, ge = rng.random(4), rng.random(4)
        losses = tts_losses(pm, gm, pd, gd, pp, gp, pe, ge)
        ref = (np.abs(pm - gm).mean() + ((pd - gd) ** 2).mean()
               + ((pp - gp) ** 2).mean() + ((pe - ge) ** 2).mean())
        assert losses.total == pytest.approx(ref, abs=1e-15)

    def test_shape_mismatch(self):
        args = self._zeros()
        args[1] = np.zeros((4, 4))
        with pytest.raises(ShapeMismatch):
            tts_losses(*args)

    # (argument index, value) pairs put over the zeros, and the term named
    @pytest.mark.parametrize("changes, term", [
        ({4: [1e200, 0, 0, 0], 5: [-1e200, 0, 0, 0]}, "pitch_mse"),  # (2e200)^2 overflows
        ({0: np.full((4, 3), 1e308), 1: np.full((4, 3), -1e308)}, "l1"),  # the difference does
        ({2: [1.3e154], 3: [0], 6: [1.3e154], 7: [0]}, "total"),  # each term is finite
        ({0: [[np.nan, 0, 0]] * 4}, "l1"),
        ({3: [0, np.inf, 0, 0]}, "dur_mse"),
        ({6: [np.inf] * 4, 7: [np.inf] * 4}, "energy_mse"),  # inf - inf
        ({0: np.zeros((0, 3)), 1: np.zeros((0, 3))}, "l1"),  # the mean of nothing
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_is_an_error_naming_the_term(self, changes, term):
        args = self._zeros()
        for i, value in changes.items():
            args[i] = np.array(value, dtype=np.float64)
        with pytest.raises(ValueError, match=f"tts loss {term} is "):
            tts_losses(*args)


class TestCombinedLoss:
    def _args(self, lat):
        rng = np.random.default_rng(0)
        return (rng.random((4, 3)), rng.random((4, 3)), rng.random(4), rng.random(4),
                rng.random(4), rng.random(4), rng.random(4), rng.random(4))

    def test_zero_residuals_give_bare_nll(self):
        lat = build_random(6, 4, 0, 1)
        y = [0, 1, 2]
        zeros = [np.zeros((4, 3))] * 2 + [np.zeros(4)] * 6
        result = combined_loss(lat, y, *zeros, mu=5.0)
        assert result.combined == pytest.approx(nll(lat, y), abs=1e-12)

    def test_mu_zero_ignores_tts(self):
        lat = build_random(6, 4, 0, 1)
        y = [0, 1, 2]
        result = combined_loss(lat, y, *self._args(lat), mu=0.0)
        assert result.combined == pytest.approx(nll(lat, y), abs=1e-12)

    def test_forced_arithmetic(self, single_path_lattice, single_path_target):
        zeros = [np.zeros((1, 1)), np.full((1, 1), 0.2)] + [np.zeros(1)] * 6
        result = combined_loss(single_path_lattice, single_path_target, *zeros, mu=5.0)
        assert result.tts_total == pytest.approx(0.2, abs=1e-12)
        assert result.combined == pytest.approx(-math.log(0.125) + 1.0, abs=1e-7)

    def test_affine_in_mu(self):
        lat = build_random(6, 4, 0, 1)
        y = [0, 1, 2]
        args = self._args(lat)
        at = {mu: combined_loss(lat, y, *args, mu=mu) for mu in (0.0, 1.0, 5.0)}
        slope = at[1.0].combined - at[0.0].combined
        assert slope == pytest.approx(at[0.0].tts_total, abs=1e-12)
        assert at[5.0].combined == pytest.approx(
            at[0.0].combined + 5.0 * slope, abs=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=30))
def test_length_regulate_row_count_property(durations):
    states = np.arange(len(durations), dtype=float).reshape(-1, 1)
    frames = length_regulate(states, durations)
    assert frames.shape[0] == sum(durations)
    # tagging rows by value verifies concatenation order
    expected = [float(i) for i, d in enumerate(durations) for _ in range(d)]
    assert frames[:, 0].tolist() == expected
