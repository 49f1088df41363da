"""Numerically stable log-space reductions.

All probabilities in this package live in natural-log space; -inf is the
canonical zero. Reductions over empty sets return -inf.
"""

import numpy as np

NEG_INF = float("-inf")


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with a max-shift; empty and all -inf rows give
    -inf, no NaNs. axis=None reduces the flattened array to a float."""
    a = np.asarray(a, dtype=np.float64)
    if axis is None:
        return float(logsumexp(a.ravel(), axis=0))
    m = np.max(a, axis=axis, keepdims=True, initial=NEG_INF)
    # empty and all -inf rows have maximum -inf, and -inf - -inf is NaN
    safe = np.where(np.isfinite(m), m, 0.0)
    s = np.sum(np.exp(a - safe), axis=axis)
    with np.errstate(divide="ignore"):
        return np.squeeze(safe, axis=axis) + np.log(s)
