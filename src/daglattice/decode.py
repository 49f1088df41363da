"""Path and token search over the lattice.

Three decoders plus the glancing helpers:

  best_path      max-product alignment of a given target (delta/phi tables,
                 backtracking from the final vertex)
  lookahead      greedy stepwise joint argmax over next vertex and token
  joint_viterbi  global joint argmax with per-vertex greedy tokens and a
                 length-selection rule

Tie-breaking everywhere: smallest vertex index, then smallest token id.
np.argmax returns the first maximum, which implements exactly that.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import DagLattice, TargetSequence, VertexPath
from .logspace import NEG_INF
from .dp import InfeasibleTarget, _tokens


@dataclass(frozen=True)
class DecodeResult:
    path: VertexPath
    tokens: TargetSequence
    joint_logprob: float
    truncated: bool = False


@dataclass(frozen=True)
class GlanceAssignment:
    path: VertexPath
    observed_mask: np.ndarray  # (M,) bool; True = token revealed
    tau: float


def _viterbi_tables(logE, emit, width):
    """delta/phi tables of the max-plus recursion, one row per row of emit.

    delta[0] is one-hot at vertex 0 with score emit[0, 0]; for i >= 1
    delta[i, j] = max_k delta[i-1, k] + logE[k, j] + emit[i, j] and phi[i, j]
    is the first maximizing k. Step i computes only the band of vertices
    j in [i, min(i + width, L)): a strictly increasing path is at a vertex
    j >= i at step i, and one that must end at vertex L-1 at step n-1 is at
    j <= L-n+i, so such a caller passes width = L - n + 1. Entries outside
    the band stay -inf/0. Each step adds the contiguous rows logE_T[i:hi] of a
    transposed copy of log E, taken once per call, into a preallocated
    (j, k) buffer, so the maximum runs along the contiguous axis.

    Every k outside the band has delta -inf or log E[k, j] -inf for a band
    vertex j, because log E is -inf on and below the diagonal of a valid
    lattice, so each band entry is bit-identical to the full-table
    recursion and every path read back from a band entry stays in the band.
    """
    n, L = emit.shape
    logE_T = np.ascontiguousarray(logE.T)
    cand = np.empty((max(0, min(width, L)), L))
    rows = np.arange(cand.shape[0])
    delta = np.full((n, L), NEG_INF)
    phi = np.zeros((n, L), dtype=np.int64)
    delta[0, 0] = emit[0, 0]
    for i in range(1, n):
        hi = min(i + width, L)
        if hi <= i:
            break
        c = cand[: hi - i]
        np.add(logE_T[i:hi], delta[i - 1], out=c)  # c[j - i, k] = delta[i-1, k] + logE[k, j]
        np.argmax(c, axis=1, out=phi[i, i:hi])
        np.add(c[rows[: hi - i], phi[i, i:hi]], emit[i, i:hi], out=delta[i, i:hi])
    return delta, phi


def _backtrack(phi, step):
    """Vertices of the path that reaches the final vertex at the step, read
    back through the phi table."""
    verts = [phi.shape[1] - 1]
    for i in range(step, 0, -1):
        verts.append(int(phi[i, verts[-1]]))
    verts.reverse()
    return verts


def best_path(lattice: DagLattice, target):
    """Most probable path for the target: (VertexPath, log score).

    delta_i(j) = max_{k<j} delta_{i-1}(k) + log E[k, j] + log P[j, y_i],
    phi stores the argmax predecessor; backtrack from vertex L-1. A length-M
    path is at a vertex j <= L-M+i at step i, so each step scans only the
    L-M+1 vertices [i, L-M+i] (width L-M+1 in _viterbi_tables).
    """
    y = _tokens(lattice, target)
    M, L = y.size, lattice.graph_size
    delta, phi = _viterbi_tables(
        lattice.log_transition, lattice.log_emission[:, y].T, L - M + 1
    )
    score = float(delta[M - 1, L - 1])
    if score == NEG_INF:
        raise InfeasibleTarget(
            f"no finite-probability length-{M} path in a {L}-vertex lattice"
        )
    return VertexPath(tuple(_backtrack(phi, M - 1))), score


def lookahead(lattice: DagLattice, max_steps=None) -> DecodeResult:
    """Greedy decoding: at each step pick the successor-token pair with the
    highest transition-times-emission probability; stop at the final vertex.
    """
    L = lattice.graph_size
    logE, logP = lattice.log_transition, lattice.log_emission
    steps = L if max_steps is None else int(max_steps)
    if steps < 1:
        raise ValueError("max_steps must be >= 1")
    vertex_best_tok = np.argmax(logP, axis=1)
    vertex_best_logp = logP[np.arange(L), vertex_best_tok]

    cur = 0
    path = [0]
    tokens = [int(vertex_best_tok[0])]
    score = float(logP[0, tokens[0]])
    while cur != L - 1 and len(path) < steps:
        cand = logE[cur] + vertex_best_logp
        nxt = int(np.argmax(cand))
        if cand[nxt] == NEG_INF:
            break
        score += float(cand[nxt])
        cur = nxt
        path.append(cur)
        tokens.append(int(vertex_best_tok[cur]))
    return DecodeResult(
        VertexPath(tuple(path)),
        TargetSequence(np.array(tokens, dtype=np.int64)),
        score,
        truncated=(cur != L - 1),
    )


def joint_viterbi(lattice: DagLattice, length_select="normalized") -> DecodeResult:
    """Global joint optimum over paths and tokens.

    Tokens are fixed per vertex to the emission argmax; a step-indexed
    Viterbi pass scores every candidate length. The length with the best
    per-step average score wins by default ("normalized"); "raw" compares
    unnormalized scores, which favors short paths. The returned
    joint_logprob is always unnormalized. Every length is scored, so step i
    scans the vertices j >= i (width L in _viterbi_tables).
    """
    if length_select not in ("raw", "normalized"):
        raise ValueError(f"unknown length_select {length_select!r}")
    L = lattice.graph_size
    logE = lattice.log_transition
    toks = np.argmax(lattice.log_emission, axis=1)
    emit = lattice.log_emission[np.arange(L), toks]

    # one row per step, all the same: every step emits the per-vertex best
    delta, phi = _viterbi_tables(logE, np.broadcast_to(emit, (L, L)), L)  # (step, vertex)

    finals = delta[:, L - 1]  # index i -> path length i+1
    lengths = np.arange(1, L + 1, dtype=np.float64)
    crit = finals / lengths if length_select == "normalized" else finals
    crit = np.where(finals == NEG_INF, NEG_INF, crit)
    best_i = int(np.argmax(crit))  # shortest length wins exact ties
    # a path always exists: vertex L-1 is reachable whenever any mass is,
    # and the L=1 lattice has the trivial length-1 path
    verts = _backtrack(phi, best_i)
    return DecodeResult(
        VertexPath(tuple(verts)),
        TargetSequence(toks[verts]),
        float(finals[best_i]),
    )


def tau_schedule(step, total_steps, tau_start=0.5, tau_end=0.1) -> float:
    """Linear anneal of the unmasking ratio from tau_start to tau_end."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return tau_start + (tau_end - tau_start) * step / total_steps


def unmask_count(tau, length) -> int:
    """ceil(tau * M) with a guard against float noise in the product."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return math.ceil(round(tau * length, 9))


def glance_assign(lattice: DagLattice, target, tau, seed=0) -> GlanceAssignment:
    """Align the target to its best path, then reveal ceil(tau*M) positions
    chosen uniformly at random; deterministic given the seed.
    """
    y = _tokens(lattice, target)
    path, _ = best_path(lattice, y)
    M = y.size
    n = unmask_count(tau, M)
    rng = np.random.default_rng(seed)
    mask = np.zeros(M, dtype=bool)
    if n > 0:
        mask[rng.choice(M, size=n, replace=False)] = True
    return GlanceAssignment(path, mask, float(tau))
