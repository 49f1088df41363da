"""Duration-based length regulation and the TTS-side loss arithmetic.

This is the deterministic slice of the acoustic stage: expand per-token
states into frame sequences by integer durations, and combine L1/MSE
residuals with the lattice NLL into a single training objective.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .lattice import DagLattice


class LengthMismatch(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TTSLosses:
    l1: float
    dur_mse: float
    pitch_mse: float
    energy_mse: float
    total: float


@dataclass(frozen=True)
class LossBreakdown:
    nll: float
    tts_total: float
    combined: float


def _numbers(values, name) -> np.ndarray:
    """values as a float64 array, read as np.asarray reads them, but with a
    ValueError starting with name for booleans and strings, which it would
    read as 0/1 and parse, and for values it cannot read at all."""
    try:
        items = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be numbers: {exc}") from exc
    if items.dtype.kind in "bSU" or (items.dtype.kind == "O" and any(
            isinstance(v, (bool, np.bool_, str, bytes)) for v in items.flat)):
        raise ValueError(f"{name} must be numbers, not booleans or strings")
    return arr


def _durations(durations) -> np.ndarray:
    """durations as an int64 array of whole frame counts below 2**63:
    integers, or floats with integral values, and not booleans; a ValueError
    naming durations otherwise (for None, strings and integers beyond 64 bits
    too)."""
    arr = np.asarray(durations)
    if arr.dtype.kind == "b" or isinstance(durations, (list, tuple)) and any(
            isinstance(t, (bool, np.bool_)) for t in durations):
        raise ValueError("durations must be frame counts, not booleans")
    if arr.dtype.kind == "O":  # integers beyond 64 bits, None or other objects
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"durations must be whole frame counts: {exc}") from exc
    if arr.dtype.kind == "i":  # an int64 array needs no value check
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "u":
        bad = arr >= 2**63
    elif arr.dtype.kind == "f":
        bad = ~((np.abs(arr) < 2.0**63) & (arr == np.floor(arr)))  # NaN and inf too
    else:
        raise ValueError(f"durations must be whole frame counts, not {arr.dtype} values")
    if np.any(bad):
        raise ValueError(f"durations must be whole frame counts below 2**63, got {arr[bad][0]}")
    return arr.astype(np.int64)


def length_regulate(states, durations) -> np.ndarray:
    """Repeat row i of `states` durations[i] times; zero durations drop rows.

    States must be finite numbers, not booleans or strings, in one row or
    in rows; a single number is one row of one. Durations are whole frame
    counts below 2**63: an integer array is taken as it is, any other array
    must hold integral values, and booleans are refused. A total that
    overflows int64, or whose frames cannot be allocated, is a ValueError
    too, and every ValueError names states or durations.
    """
    states = _numbers(states, "states")
    if states.ndim > 2:
        raise ValueError(f"states must be rows of numbers, got {states.ndim} dimensions")
    states = np.atleast_2d(states)
    if not np.all(np.isfinite(states)):  # None reads as NaN
        raise ValueError("states must be finite numbers")
    durations = _durations(durations)
    if durations.ndim != 1 or states.shape[0] != durations.size:
        raise LengthMismatch(f"durations must be one count per state row, got shape "
                             f"{durations.shape} for {states.shape[0]} rows")
    if np.any(durations < 0):
        raise ValueError("durations must be non-negative")
    total = sum(durations.tolist())  # exact, where an int64 sum would wrap
    if total >= 2**63:
        raise ValueError(f"durations add up to {total} frames, more than int64 can count")
    try:
        return np.repeat(states, durations, axis=0)
    except (MemoryError, ValueError) as exc:  # ValueError: larger than any array
        raise ValueError(
            f"durations add up to {total} frames, which cannot be allocated: {exc}"
        ) from exc


def _pair(pred, gt, name):
    pred, gt = _numbers(pred, f"{name} pred"), _numbers(gt, f"{name} gt")
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"{name}: pred shape {pred.shape} vs gt shape {gt.shape}")
    return pred, gt


def tts_losses(pred_mel, gt_mel, pred_dur, gt_dur, pred_pitch, gt_pitch,
               pred_energy, gt_energy) -> TTSLosses:
    """Mean L1 on mel plus mean squared error on duration/pitch/energy,
    summed with unit weights. A term or total that is not a finite number
    (an empty or non-finite input, or an overflow) is a ValueError naming it;
    so is an input that is not numbers (booleans, strings, rows of unequal
    length), by its pair and side: "mel pred", "duration gt" and so on.
    """
    pairs = (_pair(pred_mel, gt_mel, "mel"), _pair(pred_dur, gt_dur, "duration"),
             _pair(pred_pitch, gt_pitch, "pitch"), _pair(pred_energy, gt_energy, "energy"))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [float(np.mean(err(p - g))) if p.size else math.nan
                 for (p, g), err in zip(pairs, (np.abs, np.square, np.square, np.square))]
    losses = TTSLosses(*terms, sum(terms))
    for name, value in vars(losses).items():
        if not math.isfinite(value):
            raise ValueError(f"tts loss {name} is {value}: an input is empty or not finite, "
                             "or the error overflows")
    return losses


def combined_loss(lattice: DagLattice, target, pred_mel, gt_mel, pred_dur, gt_dur,
                  pred_pitch, gt_pitch, pred_energy, gt_energy, mu) -> LossBreakdown:
    """NLL of the target plus mu times the TTS total."""
    nll_value = dp.nll(lattice, target)
    tts = tts_losses(pred_mel, gt_mel, pred_dur, gt_dur, pred_pitch, gt_pitch,
                     pred_energy, gt_energy)
    return LossBreakdown(nll_value, tts.total,
                         dp.composite_loss(nll_value, tts.total, mu))
