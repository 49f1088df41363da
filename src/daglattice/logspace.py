"""Numerically stable log-space reductions.

All probabilities in this package live in natural-log space; -inf is the
canonical zero. Reductions over empty sets return -inf.
"""

import math

import numpy as np

NEG_INF = float("-inf")


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with a max-shift; -inf rows stay -inf, no NaNs."""
    a = np.asarray(a, dtype=np.float64)
    if axis is None:
        if a.size == 0:
            return NEG_INF
        m = float(np.max(a))
        if m == NEG_INF:
            return NEG_INF
        return m + math.log(float(np.sum(np.exp(a - m))))
    if a.shape[axis] == 0:
        shape = list(a.shape)
        del shape[axis]
        return np.full(shape, NEG_INF)
    m = np.max(a, axis=axis, keepdims=True)
    # rows that are all -inf would produce -inf - -inf = NaN under the shift
    safe = np.where(np.isfinite(m), m, 0.0)
    s = np.sum(np.exp(a - safe), axis=axis)
    with np.errstate(divide="ignore"):
        out = np.squeeze(safe, axis=axis) + np.log(s)
    return out

