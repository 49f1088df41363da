"""Exhaustive-enumeration reference implementations.

Every path from vertex 1 to vertex L of length M is generated explicitly
(interior vertices are an (M-2)-combination of the L-2 middle vertices, so
the count is C(L-2, M-2)). Exponential time; capped at small graph sizes.
These are the ground truth the DP and decode modules are tested against.
Posteriors and expected states of a target with no finite-score path raise
InfeasibleTarget, as dp's do.
"""

import itertools

import numpy as np

from .lattice import DagLattice, integer_at_least
from .logspace import NEG_INF, logsumexp
from .dp import InfeasibleTarget, MissingHiddenStates, PosteriorTable, _tokens

DEFAULT_CAP = 12


class CapExceeded(ValueError):
    """Graph size above the enumeration cap; refuse rather than hang."""


def _check_cap(L, cap):
    if L > cap:
        raise CapExceeded(f"graph size {L} exceeds enumeration cap {cap}")


def enumerate_paths(graph_size, length):
    """All strictly increasing 0-based paths 0 -> graph_size-1 of the length."""
    L, M = graph_size, length
    if L == 1:
        if M == 1:
            yield (0,)
        return
    if M < 2 or M > L:
        return
    for interior in itertools.combinations(range(1, L - 1), M - 2):
        yield (0, *interior, L - 1)


def path_joint_logprob(lattice: DagLattice, tokens, path) -> float:
    """log P(Y, A | X): transition logs along edges plus emission logs."""
    logE, logP = lattice.log_transition, lattice.log_emission
    score = 0.0
    for a, b in zip(path, path[1:]):
        score += logE[a, b]
    for a, y in zip(path, tokens):
        score += logP[a, y]
    return float(score)


def _scored_paths(lattice: DagLattice, target, cap, length=None):
    """(tokens, paths, joint log-probs) of every path of the target's length.
    Given a length in place of the target, each path is scored with its own
    vertices' greedy tokens, and tokens holds them, one row per path."""
    _check_cap(lattice.graph_size, cap)
    if length is None:
        y = _tokens(lattice, target)
        paths = list(enumerate_paths(lattice.graph_size, y.size))
        rows = itertools.repeat(y)
    else:
        M = integer_at_least(length, "length", 1)
        paths = list(enumerate_paths(lattice.graph_size, M))
        y = rows = greedy_tokens(lattice)[np.array(paths, dtype=np.int64).reshape(-1, M)]
    return y, paths, np.array([path_joint_logprob(lattice, t, p) for t, p in zip(rows, paths)])


def _path_posteriors(lattice: DagLattice, target, cap):
    """(tokens, paths, P(path | X, Y)); InfeasibleTarget when no path has a
    finite score."""
    y, paths, scores = _scored_paths(lattice, target, cap)
    logZ = logsumexp(scores)
    if logZ == NEG_INF:
        raise InfeasibleTarget(f"no length-{y.size} path in a {lattice.graph_size}-vertex lattice")
    return y, paths, np.exp(scores - logZ)


def enumerate_logprob(lattice: DagLattice, target, cap=DEFAULT_CAP) -> float:
    """Literal log-marginal: log-sum-exp of every path's joint log-prob."""
    return logsumexp(_scored_paths(lattice, target, cap)[2])


def enumerate_posterior(lattice: DagLattice, target, cap=DEFAULT_CAP) -> PosteriorTable:
    """gamma and xi as weighted indicator averages over all paths."""
    y, paths, weights = _path_posteriors(lattice, target, cap)
    M, L = y.size, lattice.graph_size
    gamma = np.zeros((M, L))
    xi = np.zeros((M - 1, L, L))
    for w, p in zip(weights, paths):
        for i, j in enumerate(p):
            gamma[i, j] += w
        for i in range(M - 1):
            xi[i, p[i], p[i + 1]] += w
    return PosteriorTable(gamma, xi)


def enumerate_expected_states(lattice: DagLattice, target, cap=DEFAULT_CAP) -> np.ndarray:
    """sum_A P(A | X, Y) * v_{a_i}, path by path."""
    if lattice.hidden_states is None:
        raise MissingHiddenStates("lattice has no hidden states (hidden_dim = 0)")
    y, paths, weights = _path_posteriors(lattice, target, cap)
    z = np.zeros((y.size, lattice.hidden_dim))
    for w, p in zip(weights, paths):
        z += w * lattice.hidden_states[list(p)]
    return z


def greedy_tokens(lattice: DagLattice) -> np.ndarray:
    """Per-vertex argmax token, smallest id on ties."""
    return np.argmax(lattice.log_emission, axis=1)


def enumerate_argmax(lattice: DagLattice, target=None, length=None, cap=DEFAULT_CAP):
    """Exhaustive best path: (path, tokens, score).

    With a target, score is the joint log-prob of (target, path). Without
    one, tokens are the per-vertex greedy choice and `length`, an integer
    >= 1, fixes the path length; give one of the two. Ties resolve to the
    lexicographically smallest path, as the decoders' smallest-vertex rule.
    """
    _check_cap(lattice.graph_size, cap)  # before the arguments, as in every function here
    if (target is None) == (length is None):
        raise ValueError("give exactly one of target and length")
    y, paths, scores = _scored_paths(lattice, target, cap, length)
    if scores.max(initial=NEG_INF) == NEG_INF:
        raise InfeasibleTarget(f"no finite-probability length-{y.shape[-1]} path in a "
                               f"{lattice.graph_size}-vertex lattice")
    best = int(np.argmax(scores))  # the first maximum
    return paths[best], y if y.ndim == 1 else y[best], float(scores[best])
