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


def length_regulate(states, durations) -> np.ndarray:
    """Repeat row i of `states` durations[i] times; zero durations drop rows.

    Durations are whole frame counts: an integer array is taken as it is,
    and any other array must hold integral values (a ValueError otherwise).
    A total that overflows int64, or whose frames cannot be allocated, is a
    ValueError too.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    durations = np.asarray(durations)
    if durations.dtype.kind not in "iu":  # an integer array needs no value check
        durations = durations.astype(np.float64)
        whole = np.isfinite(durations) & (durations == np.floor(durations))
        if not np.all(whole):
            raise ValueError(f"durations must be integral frame counts, got {durations[~whole][0]}")
    durations = durations.astype(np.int64, copy=False)
    if durations.ndim != 1 or states.shape[0] != durations.size:
        raise LengthMismatch(
            f"{states.shape[0]} state rows vs {durations.size} durations"
        )
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
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"{name}: pred shape {pred.shape} vs gt shape {gt.shape}")
    return pred, gt


def tts_losses(pred_mel, gt_mel, pred_dur, gt_dur, pred_pitch, gt_pitch,
               pred_energy, gt_energy) -> TTSLosses:
    """Mean L1 on mel plus mean squared error on duration/pitch/energy,
    summed with unit weights. A term or total that is not a finite number
    (an empty or non-finite input, or an overflow) is a ValueError naming it.
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
