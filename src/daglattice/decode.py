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

from .lattice import (DagLattice, TargetSequence, VertexPath, aligned_empty, integer_at_least,
                      memo, real_number)
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


# ufunc buffer entries while the Viterbi steps run; numpy takes multiples of 16
_STEP_BUFSIZE = 256


def _viterbi_tables(logE, emit, width, done=None):
    """delta/phi tables of the max-plus recursion, one row per step.

    delta[0] is one-hot at vertex 0 with score emit[0, 0]; for i >= 1
    delta[i, j] = max_k delta[i-1, k] + logE[k, j] + emit[i, j] and phi[i, j]
    is the first maximizing k. Step i computes only the band of vertices
    j in [i, min(i + width, L)): a strictly increasing path is at a vertex
    j >= i at step i, and one that must end at vertex L-1 at step n-1 is at
    j <= L-n+i, so such a caller passes width = L - n + 1. Entries outside
    the band stay -inf/0. Step 1 reads row 0 of log E: delta[0] is -inf but
    at vertex 0, so delta[1, j] = emit[0, 0] + logE[0, j] + emit[1, j] and
    phi[1, j] = 0, the first maximum even when all candidates are -inf.
    A width <= 0 (or L = 1) returns after row 0. Every caller's steps run
    below L, so with width >= 1 every step past step 1 has at least one
    band vertex: hi = min(i + width, L) > i.
    Each later step adds the contiguous rows logE_T[i:hi] of a transposed
    copy of log E, taken once per call, into a preallocated (j, k) buffer,
    so the maximum runs along the contiguous axis. Both start on a 64-byte
    boundary, so no vector store of the add splits a cache line.

    Every k outside the band has delta -inf or log E[k, j] -inf for a band
    vertex j, because a DagLattice's log E is -inf on and below the
    diagonal, so each band entry is bit-identical to the full-table
    recursion and every path read back from a band entry stays in the band.

    If given, done(i, delta[i]) is called after each step i >= 1, and the
    sweep ends once it returns True. Such a sweep usually ends within a few
    steps, so its tables start at two rows and double whenever a step
    reaches their end (at most n): filling full (n, L) tables would cost
    more than the steps it runs. A sweep that stops at step s returns at
    most 2(s+1) rows; every row after the last step run is -inf/0.

    The whole call, done included, runs with a 256-entry ufunc buffer, and
    the caller's size comes back on every exit. At numpy's default of 8192
    the band add pays for a copy of the broadcast row through the buffer:
    on numpy 2.4.6 one 217 x 256 add took 29.4 us at 8192 and 15.8 us at
    256, about what a same-shape add without a broadcast costs. The suffix
    bound and its tightening in joint Viterbi's done make the same
    broadcast adds. Buffering changes no arithmetic, so every table keeps
    its bits.
    """
    # restored by hand: leaving np.errstate restores bufsize only since numpy 2.0
    old = np.setbufsize(_STEP_BUFSIZE)
    try:
        n, L = emit.shape
        logE_T = aligned_empty(logE.shape[::-1])
        np.copyto(logE_T, logE.T)
        cand = aligned_empty((max(0, min(width, L)), L))
        band = np.arange(cand.shape[0])
        rows = n if done is None else min(n, 2)
        delta = np.full((rows, L), NEG_INF)
        phi = np.zeros((rows, L), dtype=np.int64)
        delta[0, 0] = emit[0, 0]
        hi = min(1 + width, L)
        if n < 2 or hi <= 1:
            return delta, phi
        np.add(logE[0, 1:hi], emit[0, 0], out=delta[1, 1:hi])
        np.add(delta[1, 1:hi], emit[1, 1:hi], out=delta[1, 1:hi])
        if done is not None and done(1, delta[1]):
            return delta, phi
        for i in range(2, n):
            hi = min(i + width, L)
            if i == rows:
                rows = min(n, 2 * rows)
                delta = np.concatenate((delta, np.full((rows - i, L), NEG_INF)))
                phi = np.concatenate((phi, np.zeros((rows - i, L), dtype=np.int64)))
            c = cand[: hi - i]
            np.add(logE_T[i:hi], delta[i - 1], out=c)  # c[j - i, k] = delta[i-1, k] + logE[k, j]
            np.argmax(c, axis=1, out=phi[i, i:hi])
            np.add(c[band[: hi - i], phi[i, i:hi]], emit[i, i:hi], out=delta[i, i:hi])
            if done is not None and done(i, delta[i]):
                break
        return delta, phi
    finally:
        np.setbufsize(old)


def _backtrack(phi, step):
    """Vertices of the path that reaches the final vertex at the step, read
    back through the phi table."""
    verts = [phi.shape[1] - 1]
    for i in range(step, 0, -1):
        verts.append(int(phi[i, verts[-1]]))
    verts.reverse()
    return verts


# entries in one block of _greedy's writable buffer: 32 rows at |V| = 1000
_GREEDY_BLOCK = 32768


def _greedy(lattice: DagLattice):
    """Per-vertex emission argmax tokens and their log-probabilities, as
    read-only arrays computed once per lattice through lattice.memo.

    np.argmax copies a read-only array whole before it reduces (2 MB for a
    read-only 256 x 1000 log P), and a DagLattice's log P is read-only. So
    the argmax runs over blocks of rows copied into one small writable
    buffer (about 256 KB), which stays in cache; ties still go to the
    smallest token id.
    """
    def build():
        logP = lattice.log_emission
        L, V = logP.shape
        step = max(1, _GREEDY_BLOCK // V)
        buf = np.empty((min(step, L), V))
        toks = np.empty(L, dtype=np.intp)
        for s in range(0, L, step):
            block = buf[: min(step, L - s)]
            np.copyto(block, logP[s : s + step])
            np.argmax(block, axis=1, out=toks[s : s + step])
        logp = logP[np.arange(L), toks]
        toks.setflags(write=False)
        logp.setflags(write=False)
        return toks, logp

    return memo(lattice, "_greedy", None, build)


def _suffix_bound(logE, emit, lam):
    """(w, U, tau) for the joint Viterbi stopping rule.

    w = logE + emit - lam weighs each edge by the vertex it enters, and U
    bounds R(j), the best w-score of a path from j to L-1 with at least one
    edge: with m(j) = max_k w[j, k], U(j) = m(j) + sum_{j<v<L-1}
    max(m(v), 0), as a path's first edge is worth at most m(j) and each
    later one leaves a distinct vertex v. U(L-1) = 0, as a suffix may end
    there; the test reads U on [i, L-1) only.

    tau covers float rounding. Every finite entry has magnitude at most A
    and lam at most 2A (a criterion is a path score over its vertex count),
    so each sum that the Viterbi steps, U and the bound test round has at
    most 3L terms and partial sums below 6LA. U(j) is rounded at most L-j
    times (once per vertex after j in the cumulative sum; a tightening step
    rounds once on top of a U(k), k > j) and delta[i, j] at most i <= j
    times, so the test's left side and the criteria it bounds are off their
    exact values by at most 12 L^2 A 2^-53 in all, plus terms of order
    L A 2^-53, and tau = 32 L^2 A 2^-53 covers both with a margin. A
    DagLattice keeps A below the largest float over 8 L, so none of these
    sums can overflow.
    """
    L = emit.size
    top = max(logE.max(), emit.max())
    finite = logE > NEG_INF
    A = max(top, -logE.min(initial=0.0, where=finite), -emit.min(initial=0.0, where=emit > NEG_INF))
    w = np.add(logE, emit - lam, out=aligned_empty(logE.shape))
    m = _row_max(w)  # m(L-1) = -inf
    U = np.zeros(L)
    np.cumsum(np.maximum(m[-2:0:-1], 0.0), out=U[-3::-1])  # from v = L-2 down
    U[:-1] += m[:-1]
    return w, U, 32.0 * L * L * 2.0**-53 * A  # A last: 32 L^2 A itself may overflow


def _row_max(a):
    """a.max(axis=1) of a C-ordered 2-D array, as argmax and a take, which
    cost less than half of it at 217 x 256."""
    return a.ravel().take(a.argmax(axis=1) + np.arange(0, a.size, a.shape[1]))


def _tighten(w, U, i):
    """One Bellman step U <- min(U, max_k w[., k] + U(k)) on [i, L-1), in
    place; False if it changed nothing, which leaves U = R there."""
    t = _row_max(w[i:-1] + U)
    changed = (t < U[i:-1]).any()
    np.minimum(U[i:-1], t, out=U[i:-1])
    return changed


def _longer_cannot_win(logE, emit, normalized):
    """Stopping rule for the joint Viterbi sweep: done(i, delta[i]) is True
    once no path with more than i+1 vertices can beat the best criterion of
    the lengths scored so far, so that the shortest best length is final.

    U comes from _suffix_bound, with lam the best criterion at the first
    step whose criterion does not improve a finite best (0 in raw mode). A
    path with n >= i+2 vertices is at a vertex j < L-1 at step i, so its
    score is at most delta[i, j] + U(j) + lam (n - i - 1). The best only
    grows and lam <= best, so max_j delta[i, j] + U(j) < best (i+1) - tau
    (best - tau in raw mode) proves every longer criterion below the best.
    """
    L = emit.size
    best = NEG_INF
    bound = None  # (w, U, tau) once computed, w None once U = R
    next_test = 0

    def done(i, row):
        nonlocal best, bound, next_test
        crit = row[L - 1] / (i + 1) if normalized else row[L - 1]
        if crit > best:
            best = crit
        elif bound is None and best > NEG_INF:
            bound = _suffix_bound(logE, emit, best if normalized else 0.0)
        if not bound or i < next_test:
            return False
        # after a failed test the gaps grow, so a bound that never fires
        # costs about 8 ln(L/8) tests rather than L; a stop comes at most
        # i/8 steps late
        next_test = i + 1 + i // 8
        w, U, tau = bound
        limit = (best * (i + 1) if normalized else best) - tau
        # maximum.reduce costs half of np.max on these short rows
        if np.maximum.reduce(row[i:-1] + U[i:-1], initial=NEG_INF) < limit:
            return True
        # a failed test tightens U once and retests, until a step changes
        # nothing: then U = R, and w None marks it
        if w is None or not _tighten(w, U, i):
            bound = None, U, tau
            return False
        return np.maximum.reduce(row[i:-1] + U[i:-1], initial=NEG_INF) < limit

    return done


def best_path(lattice: DagLattice, target):
    """Most probable path for the target: (VertexPath, log score).

    delta_i(j) = max_{k<j} delta_{i-1}(k) + log E[k, j] + log P[j, y_i],
    phi stores the argmax predecessor; backtrack from vertex L-1. A length-M
    path is at a vertex j <= L-M+i at step i, so each step scans only the
    L-M+1 vertices [i, L-M+i] (width L-M+1 in _viterbi_tables). A target
    longer than the lattice (M > L) has no path and raises InfeasibleTarget
    before any table is built.
    """
    y = _tokens(lattice, target)
    M, L = y.size, lattice.graph_size
    score = NEG_INF
    if M <= L:
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
    logE = lattice.log_transition
    steps = L if max_steps is None else integer_at_least(max_steps, "max_steps", 1)
    vertex_best_tok, vertex_best_logp = _greedy(lattice)

    cur = 0
    path = [0]
    tokens = [int(vertex_best_tok[0])]
    score = float(vertex_best_logp[0])
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
    joint_logprob is always unnormalized. Every length can win, so step i
    scans the vertices j >= i (width L in _viterbi_tables).

    The sweep stops once a bound proves that no longer length can win
    (Dinkelbach's substitution turns the ratio question into a longest
    path): after step i, max_j delta[i, j] + U(j) below best * (i+1) (raw:
    best) by a rounding margin tau = 32 L^2 A 2^-53, A the largest finite
    |entry|. U(j) bounds the longest path from j to L-1 weighted
    log E + emit - lam per vertex entered, lam the best criterion (0 in raw
    mode); it costs a row maximum and a cumulative sum, and a failed test
    tightens it by one Bellman step. Paths, tokens, scores and the tie rules
    stay bit-identical to the full sweep; exact ties fail the bound and the
    sweep runs on. As the sweep seldom runs more than a few steps, its
    tables grow with it from two rows (see _viterbi_tables, which also
    reads step 1 straight from row 0 of log E), and the lengths are scored
    over the rows the table has. The greedy tokens' argmax copies log P by
    blocks into a small writable buffer, as np.argmax would copy the
    read-only log P whole (see _greedy). A lattice with L = 1 takes the
    full sweep. Raises InfeasibleTarget when no finite-probability path
    reaches vertex L-1.
    """
    if length_select not in ("raw", "normalized"):
        raise ValueError(f"unknown length_select {length_select!r}")
    L = lattice.graph_size
    logE = lattice.log_transition
    toks, emit = _greedy(lattice)
    normalized = length_select == "normalized"

    # one row per step, all the same: every step emits the per-vertex best
    delta, phi = _viterbi_tables(
        logE, np.broadcast_to(emit, (L, L)), L, _longer_cannot_win(logE, emit, normalized)
    )  # (step, vertex); the rows after an early stop stay -inf

    finals = delta[:, L - 1]  # index i -> path length i+1, over the rows the sweep made
    crit = finals / np.arange(1, finals.size + 1) if normalized else finals
    best_i = int(np.argmax(crit))  # shortest length wins exact ties
    # the sweep stops early only once some length has a finite score, so
    # all -inf means no finite-probability path reaches vertex L-1
    if finals[best_i] == NEG_INF:
        raise InfeasibleTarget(f"no finite-probability path to the final vertex of a "
                               f"{L}-vertex lattice")
    verts = _backtrack(phi, best_i)
    return DecodeResult(
        VertexPath(tuple(verts)),
        TargetSequence(toks[verts]),
        float(finals[best_i]),
    )


def tau_schedule(step, total_steps) -> float:
    """Linear anneal of the unmasking ratio from 0.5 to 0.1 over integer
    steps 0..total_steps, as in DA-Transformer's glancing. A ValueError
    names an argument that is not such an integer, or beyond the float range."""
    total_steps = real_number(integer_at_least(total_steps, "total_steps", 1), "total_steps")
    if integer_at_least(step, "step", 0) > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return 0.5 + (0.1 - 0.5) * step / total_steps


def unmask_count(tau, length) -> int:
    """ceil(tau * M) in float64 with a guard against float noise in the
    product, and never more than M, which the product can round above when
    M > 2**53. A ValueError names a tau that is not a real number in [0, 1]
    or a length that is not an integer >= 0 within the float range."""
    if not 0.0 <= real_number(tau, "tau") <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    M = real_number(integer_at_least(length, "length", 0), "length")
    return min(math.ceil(round(float(tau) * M, 9)), M)


def glance_assign(lattice: DagLattice, target, tau, seed=0) -> GlanceAssignment:
    """Align the target to its best path, then reveal ceil(tau*M) positions
    chosen uniformly at random; deterministic given the seed.
    """
    path, _ = best_path(lattice, target)
    M = len(path)
    n = unmask_count(tau, M)
    rng = np.random.default_rng(integer_at_least(seed, "seed", 0))
    mask = np.zeros(M, dtype=bool)
    if n > 0:
        mask[rng.choice(M, size=n, replace=False)] = True
    return GlanceAssignment(path, mask, float(tau))
