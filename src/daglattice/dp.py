"""Forward-backward inference over DAG lattices.

Implements

    alpha_i(j) = P[j, y_i] * sum_{k<j} alpha_{i-1}(k) * E[k, j]
    beta_i(j)  = sum_{k>j} E[j, k] * beta_{i+1}(k) * P[k, y_{i+1}]

with alpha_1 one-hot at vertex 1 and beta_M one-hot at vertex L. The log
marginal of the target is log alpha_M(L); posteriors, expected hidden
states, and the analytic NLL gradient all derive from the two tables.
Indices are 0-based throughout this module.

The alpha/beta tables are stored in log space. forward and backward share
one sweep, and each of its steps is a max-shifted matrix-vector product
against exp(log E), taken once per lattice: the previous row is shifted by
its maximum and exponentiated, its 0/1 finite pattern joins it as a second
row, one BLAS product sums both, and the log of the sum row goes into a
per-pass table beside the counts of finite terms. A vertex with no finite
predecessor sums to exactly 0, hence -inf. Once the pass is done, one
vectorised test looks for a column with finite terms whose shifted sum
fell outside [1e-250, 1e250] or is not finite (underflow of very small
entries, overflow of unnormalized ones). If there is one, the same loop
reruns every step from the first such column on, with the exact log-space
reduction on each such column. So the tables are bit-identical to testing
every step, and no precision is lost at the extremes; on normalized
lattices no column misses and no step reruns.

nll_grad sums the edge posteriors over steps as one (L x (M-1)) by
((M-1) x L) product with per-step max shifts, times E, and never builds the
(M-1, L, L) pairwise tensor; posterior(with_pairwise=True) still does.

One training step calls nll, nll_grad and expected_states on the same
lattice and target, and all three derive from the same two tables. Each
lattice therefore memoises them through lattice.memo, keyed by the last
target's int64 token bytes: the forward table once log_marginal or nll has
run, and the backward table, log marginal and gamma once a smoothed
quantity has. The entries fill through the public forward and backward,
which stay uncached: each call of those runs the recurrence. No entry's
array is handed out; every returned table, gradient and state is a fresh
array the caller owns.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import DagLattice, TargetSequence, aligned_empty, memo, target_tokens
from .logspace import NEG_INF, logsumexp

# Shifted sums outside [1e-250, 1e250] are too close to underflow or
# overflow to keep full precision; those columns are recomputed exactly.
_LOG_SUM_MAX = math.log(1e250)
# Edge weights exp(log E - max log E) are floored at e^-700 (_pass_matrix).
_LOG_FLOOR = -700.0
# Multi-threaded BLAS calls on products this small gain little and stall
# for milliseconds when the machine's other cores are busy. Products are
# split into column blocks of fewer multiply-adds than this, below the size
# at which OpenBLAS starts threads, so every call runs on the calling thread.
_BLAS_BLOCK = 200_000
# Gradient steps whose scale exp(shift) lies outside e^(+-600) are summed
# exactly in log space.
_SHIFT_MAX = 600.0


class InfeasibleTarget(ValueError):
    """No strictly increasing path of length M from vertex 1 to vertex L."""


class MissingHiddenStates(ValueError):
    """Operation requires hidden states but the lattice has hidden_dim 0."""


@dataclass(frozen=True)
class ForwardTable:
    log_alpha: np.ndarray  # (M, L)

    @property
    def log_marginal(self):
        return float(self.log_alpha[-1, -1])


@dataclass(frozen=True)
class BackwardTable:
    log_beta: np.ndarray  # (M, L)


@dataclass(frozen=True)
class PosteriorTable:
    gamma: np.ndarray  # (M, L), gamma[i, j] = P(a_i = j | X, Y)
    xi: np.ndarray | None = None  # (M-1, L, L), xi[i, k, j] = P(a_i=k, a_{i+1}=j | X, Y)


@dataclass(frozen=True)
class ExpectedStates:
    z: np.ndarray  # (M, d)


def _tokens(lattice: DagLattice, target) -> np.ndarray:
    toks = target.tokens if isinstance(target, TargetSequence) else target_tokens(target)
    if np.any(toks < 0) or np.any(toks >= lattice.vocab_size):
        raise ValueError(
            f"token id out of range [0, {lattice.vocab_size}) in target"
        )
    return toks


def _matmul(a, b, out=None):
    """a @ b for a vector or matrix a, in column blocks of b small enough
    that each BLAS call runs on the calling thread."""
    step = max(1, _BLAS_BLOCK // max(a.size, 1))
    if step >= b.shape[-1]:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(a.shape[:-1] + b.shape[-1:], np.result_type(a, b))
    for j in range(0, b.shape[-1], step):
        np.matmul(a, b[:, j:j + step], out=out[..., j:j + step])
    return out


def _pass_matrix(lattice: DagLattice):
    """(exp(log E - max log E), max log E), edges floored at e^-700.

    Built once per lattice, read-only, through lattice.memo; forward and
    nll_grad use it as it is and backward its transpose. The shift is 0
    when L = 1, where every entry is -inf.

    The shift keeps every entry at most 1, so no term of a step overflows,
    and a term lost to underflow or raised to the floor changes its sum by
    less than 1e-300, which cannot matter against a shifted sum of at least
    1e-250. The floor also makes every edge count in a product against a
    0/1 vector: that sum is 0 exactly when no finite term reaches the
    column. Non-edges stay exactly 0.
    """
    def build():
        logE = lattice.log_transition
        top = np.max(logE)
        if not np.isfinite(top):
            top = 0.0
        expE = np.subtract(logE, top, out=aligned_empty(logE.shape))
        # clamping before exp also keeps -inf and underflow, exp's slow
        # special cases, out of its input
        np.maximum(expE, _LOG_FLOOR, out=expE)
        np.exp(expE, out=expE)
        np.multiply(expE, logE != NEG_INF, out=expE)
        expE.setflags(write=False)
        return expE, top

    return memo(lattice, "_pass_matrix", None, build)


def _sweep(x0, addend, out, logE, expE, top):
    """out[t] = logsumexp(x_t[:, None] + logE, axis=0) for t = 0..n-1, where
    x_t = out[t-1] + addend[t-1] after x_0, with one range test per pass.

    Each step pushes the max-shifted exp(x_t) and the 0/1 finite pattern of
    x_t through one BLAS product against expE, and keeps the log of the
    shifted sums and the finite counts in a per-pass table. If the test
    after the pass finds a column with finite terms whose shifted sum is out
    of range or not finite, the same loop reruns from that step with exact
    set: each rerun step recomputes its own such columns by the exact
    log-space reduction before the next step reads them.
    """
    n, L = out.shape
    rows = np.empty((2, L))
    shifted, finite = rows
    sums = np.empty((n, 2, L))  # per step: log of the shifted sums, finite counts
    first = 0
    for exact in (False, True):
        with np.errstate(all="ignore"):
            x = x0
            for t in range(first, n):
                if t:  # x_t goes into the pattern row, which overwrites it last
                    x = np.add(out[t - 1], addend[t - 1], out=finite)
                m = np.maximum.reduce(x)
                shift = m if math.isfinite(m) else 0.0
                np.subtract(x, shift, out=shifted)
                np.exp(shifted, out=shifted)
                np.not_equal(x, NEG_INF, out=finite)
                log_sum = _matmul(rows, expE, out=sums[t])[0]
                np.log(log_sum, out=log_sum)
                np.add(log_sum, shift + top, out=out[t])
                if exact:
                    redo = np.flatnonzero(~(np.abs(log_sum) <= _LOG_SUM_MAX) & (sums[t, 1] != 0))
                    if redo.size:
                        x = out[t - 1] + addend[t - 1] if t else x0
                        out[t, redo] = logsumexp(x[:, None] + logE[:, redo], axis=0)
        miss = np.flatnonzero(~(np.abs(sums[:, 0]) <= _LOG_SUM_MAX) & (sums[:, 1] != 0))
        if exact or not miss.size:
            return
        first = int(miss[0]) // L


def forward(lattice: DagLattice, target) -> ForwardTable:
    y = _tokens(lattice, target)
    M, L = y.size, lattice.graph_size
    emit = lattice.log_emission[:, y].T  # (M, L)
    expE, top = _pass_matrix(lattice)
    la = np.full((M, L), NEG_INF)
    la[0, 0] = emit[0, 0]
    # the sweep leaves the sums over predecessors k (log E is -inf unless
    # k < j) in la[1:], and adds the emissions only into its next input
    _sweep(la[0], emit[1:], la[1:], lattice.log_transition, expE, top)
    la[1:] += emit[1:]
    return ForwardTable(la)


def backward(lattice: DagLattice, target) -> BackwardTable:
    y = _tokens(lattice, target)
    M, L = y.size, lattice.graph_size
    emit = lattice.log_emission[:, y].T
    expE, top = _pass_matrix(lattice)
    lb = np.full((M, L), NEG_INF)
    lb[M - 1, L - 1] = 0.0
    # reduce over successors, on transposed views: expE.T is the same
    # F-ordered operand as exp(log E.T); rows run from step M-2 down to 0
    _sweep(lb[M - 1] + emit[M - 1], emit[1:M - 1][::-1], lb[:M - 1][::-1],
           lattice.log_transition.T, expE.T, top)
    return BackwardTable(lb)


def _forward_table(lattice: DagLattice, y) -> ForwardTable:
    """The forward table of target y, read-only, from the lattice's memo."""
    def build():
        ft = forward(lattice, y)
        ft.log_alpha.setflags(write=False)
        return ft

    return memo(lattice, "_dp_forward", y.tobytes(), build)


def log_marginal(lattice: DagLattice, target) -> float:
    return _forward_table(lattice, _tokens(lattice, target)).log_marginal


def nll(lattice: DagLattice, target) -> float:
    """Negative log-likelihood of the target; +inf when no path exists."""
    return -log_marginal(lattice, target)


def _smoothed(lattice: DagLattice, y):
    """Forward and backward tables, log marginal and gamma of a feasible
    target, from the lattice's memo; the arrays are read-only."""
    def build():
        ft = _forward_table(lattice, y)
        logZ = ft.log_marginal
        if logZ == NEG_INF:
            raise InfeasibleTarget(
                f"target of length {y.size} has no path in a {lattice.graph_size}-vertex lattice"
            )
        bt = backward(lattice, y)
        gamma = np.exp(ft.log_alpha + bt.log_beta - logZ)
        bt.log_beta.setflags(write=False)
        gamma.setflags(write=False)
        return ft, bt, logZ, gamma

    return memo(lattice, "_dp_smoothed", y.tobytes(), build)


def _edge_factors(lattice: DagLattice, y, ft, bt):
    """(a, c) with a_i = log alpha_i and c_i = log P[:, y_{i+1}] + log beta_{i+1}
    for i < M-1, so that xi[i, k, j] = exp(a_i[k] + log E[k, j] + c_i[j] - log Z)."""
    return ft.log_alpha[:-1], bt.log_beta[1:] + lattice.log_emission[:, y[1:]].T


def posterior(lattice: DagLattice, target, with_pairwise=False) -> PosteriorTable:
    """Vertex occupancy gamma and, optionally, edge posteriors xi.

    gamma[i, j] = exp(log_alpha[i, j] + log_beta[i, j] - log_marginal).
    Raises InfeasibleTarget when the marginal is zero.
    """
    y = _tokens(lattice, target)
    ft, bt, logZ, gamma = _smoothed(lattice, y)
    xi = None
    if with_pairwise:
        a, c = _edge_factors(lattice, y, ft, bt)
        xi = np.empty((y.size - 1, *lattice.log_transition.shape))
        for i in range(y.size - 1):
            np.exp(a[i][:, None] + lattice.log_transition + c[i] - logZ, out=xi[i])
    return PosteriorTable(gamma.copy(), xi)


def expected_states(lattice: DagLattice, target) -> ExpectedStates:
    """Posterior-weighted combination of vertex hidden states, z = gamma @ V."""
    if lattice.hidden_states is None:  # exactly when hidden_dim == 0
        raise MissingHiddenStates("lattice has no hidden states (hidden_dim = 0)")
    gamma = _smoothed(lattice, _tokens(lattice, target))[3]
    return ExpectedStates(gamma @ lattice.hidden_states)


def nll_grad(lattice: DagLattice, target):
    """Gradient of nll wrt each free log-matrix entry (no renormalization).

    d nll / d log E[k, j] = -sum_i xi[i, k, j]
    d nll / d log P[j, v] = -sum_{i: y_i = v} gamma[i, j]

    With a_i and c_i from _edge_factors,
    sum_i xi[i, k, j] = E[k, j] * sum_i exp(a_i[k] + c_i[j] - log Z): one
    (L x (M-1)) by ((M-1) x L) product whose factors are shifted per step
    by their maxima, and by the largest log E entry, so none overflows.
    Steps whose combined scale is out of range are added exactly in log
    space. Entries at -inf get gradient 0. Returns (grad_log_transition,
    grad_log_emission).
    """
    y = _tokens(lattice, target)
    ft, bt, logZ, gamma = _smoothed(lattice, y)
    logE, logP = lattice.log_transition, lattice.log_emission
    a, c = _edge_factors(lattice, y, ft, bt)
    expE, top = _pass_matrix(lattice)
    with np.errstate(all="ignore"):
        u = np.max(a, axis=1, initial=NEG_INF)
        w = np.max(c, axis=1, initial=NEG_INF)
        shift = u + w + top - logZ
        fast = np.abs(shift) < _SHIFT_MAX
        left = np.exp(a[fast] - u[fast, None]).T
        right = np.exp(c[fast] - w[fast, None] + shift[fast, None])
        dE = _matmul(left, right)
        dE *= expE
        for i in np.flatnonzero(~fast):
            dE += np.exp(a[i][:, None] + logE + c[i][None, :] - logZ)
    # 0 - x rather than -x: entries at -inf get +0.0
    np.subtract(0.0, dE, out=dE)
    # only the target's columns are nonzero: subtract gamma[i] from column
    # y[i] in step order, as one unbuffered ufunc.at on those columns
    cols, pos = np.unique(y, return_inverse=True)
    block = np.zeros((lattice.graph_size, cols.size))
    np.subtract.at(block, (slice(None), pos), gamma.T)
    block[logP[:, cols] == NEG_INF] = 0.0
    dP = np.zeros((lattice.graph_size, lattice.vocab_size))
    dP[:, cols] = block
    return dE, dP


def composite_loss(nll_value, tts_loss_value, mu):
    """Weighted sum nll_value + mu * tts_loss_value, for an nll_value above
    -inf (+inf is an infeasible target's, and the sum is then +inf), a
    finite tts_loss_value and a finite mu >= 0. The sum is finite otherwise:
    a ValueError names the argument out of range, or the sum that overflows."""
    if not 0 <= mu < math.inf:  # NaN fails too
        raise ValueError(f"mu must be finite and non-negative, got {mu}")
    if not -math.inf < nll_value <= math.inf:
        raise ValueError(f"nll_value must be a number above -inf, got {nll_value}")
    if not math.isfinite(tts_loss_value):
        raise ValueError(f"tts_loss_value must be finite, got {tts_loss_value}")
    weighted = float(mu) * float(tts_loss_value)
    total = float(nll_value) + weighted
    if math.isinf(weighted) or math.isinf(total) and math.isfinite(nll_value):
        raise ValueError(f"nll_value + mu * tts_loss_value overflows: "
                         f"{nll_value} + {mu} * {tts_loss_value}")
    return total
