"""Forward-backward inference over DAG lattices.

Implements

    alpha_i(j) = P[j, y_i] * sum_{k<j} alpha_{i-1}(k) * E[k, j]
    beta_i(j)  = sum_{k>j} E[j, k] * beta_{i+1}(k) * P[k, y_{i+1}]

with alpha_1 one-hot at vertex 1 and beta_M one-hot at vertex L. The log
marginal of the target is log alpha_M(L); posteriors, expected hidden
states, and the analytic NLL gradient all derive from the two tables.
Indices are 0-based throughout this module.

The alpha/beta tables are stored in log space. Each step is computed as a
max-shifted matrix-vector product against exp(log E), taken once per lattice:
the previous row is shifted by its maximum, exponentiated, multiplied
through BLAS, and the log taken. The row's 0/1 finite pattern goes through
the same product as a second row, against edges floored away from zero,
and marks vertices with no finite predecessor as exactly -inf. Vertices
whose shifted sum falls outside [1e-250, 1e250] or is not finite (underflow
of very small entries, overflow of unnormalized ones) are recomputed by the
exact log-space reduction, so no precision is lost at the extremes.

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

from .lattice import DagLattice, TargetSequence, memo, target_tokens
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


def _matmul(a, b):
    """a @ b for a vector or matrix a, in column blocks of b small enough
    that each BLAS call runs on the calling thread."""
    step = max(1, _BLAS_BLOCK // max(a.size, 1))
    if step >= b.shape[-1]:
        return a @ b
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
        expE = np.subtract(logE, top)
        # clamping before exp also keeps -inf and underflow, exp's slow
        # special cases, out of its input
        np.maximum(expE, _LOG_FLOOR, out=expE)
        np.exp(expE, out=expE)
        np.multiply(expE, logE != NEG_INF, out=expE)
        expE.setflags(write=False)
        return expE, top

    return memo(lattice, "_pass_matrix", None, build)


def _log_vecmat(x, logE, expE, top):
    """logsumexp(x[:, None] + logE, axis=0), computed by one BLAS product.

    Two rows go through the product together: the max-shifted exp(x), and
    the 0/1 finite pattern of x, which counts the finite terms per column.
    A column with none has a shifted sum of exactly 0, hence -inf; columns
    whose shifted sum is out of range or not finite fall back to the exact
    log-space reduction.
    """
    m = x.max()
    shift = m if math.isfinite(m) else 0.0
    rows = np.empty((2, x.size))
    with np.errstate(all="ignore"):
        np.subtract(x, shift, out=rows[0])
        np.exp(rows[0], out=rows[0])
        np.not_equal(x, NEG_INF, out=rows[1])
        s, count = _matmul(rows, expE)
        out = np.log(s)
    redo = np.flatnonzero(~(np.abs(out) <= _LOG_SUM_MAX) & (count != 0))
    out += shift + top
    if redo.size:
        out[redo] = logsumexp(x[:, None] + logE[:, redo], axis=0)
    return out


def forward(lattice: DagLattice, target) -> ForwardTable:
    y = _tokens(lattice, target)
    M, L = y.size, lattice.graph_size
    logE = lattice.log_transition
    emit = lattice.log_emission[:, y].T  # (M, L)
    expE, top = _pass_matrix(lattice)
    la = np.full((M, L), NEG_INF)
    la[0, 0] = emit[0, 0]
    for i in range(1, M):
        # inner reduction over predecessors k; log E is -inf unless k < j
        np.add(emit[i], _log_vecmat(la[i - 1], logE, expE, top), out=la[i])
    return ForwardTable(la)


def backward(lattice: DagLattice, target) -> BackwardTable:
    y = _tokens(lattice, target)
    M, L = y.size, lattice.graph_size
    logE = lattice.log_transition.T  # reduce over successors, without a copy
    emit = lattice.log_emission[:, y].T
    expE, top = _pass_matrix(lattice)
    expE = expE.T  # over successors: the same F-ordered operand as exp(log E.T)
    lb = np.full((M, L), NEG_INF)
    lb[M - 1, L - 1] = 0.0
    for i in range(M - 2, -1, -1):
        lb[i] = _log_vecmat(lb[i + 1] + emit[i + 1], logE, expE, top)
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
    lm = log_marginal(lattice, target)
    return float("inf") if lm == NEG_INF else -lm


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


def posterior(lattice: DagLattice, target, with_pairwise=False) -> PosteriorTable:
    """Vertex occupancy gamma and, optionally, edge posteriors xi.

    gamma[i, j] = exp(log_alpha[i, j] + log_beta[i, j] - log_marginal).
    Raises InfeasibleTarget when the marginal is zero.
    """
    y = _tokens(lattice, target)
    ft, bt, logZ, gamma = _smoothed(lattice, y)
    xi = None
    if with_pairwise:
        M, L = y.size, lattice.graph_size
        logE, logP = lattice.log_transition, lattice.log_emission
        xi = np.empty((M - 1, L, L))
        for i in range(M - 1):
            np.exp(
                ft.log_alpha[i][:, None]
                + logE
                + (logP[:, y[i + 1]] + bt.log_beta[i + 1])[None, :]
                - logZ,
                out=xi[i],
            )
    return PosteriorTable(gamma.copy(), xi)


def expected_states(lattice: DagLattice, target) -> ExpectedStates:
    """Posterior-weighted combination of vertex hidden states, z = gamma @ V."""
    if lattice.hidden_dim == 0 or lattice.hidden_states is None:
        raise MissingHiddenStates("lattice has no hidden states (hidden_dim = 0)")
    gamma = _smoothed(lattice, _tokens(lattice, target))[3]
    return ExpectedStates(gamma @ lattice.hidden_states)


def nll_grad(lattice: DagLattice, target):
    """Gradient of nll wrt each free log-matrix entry (no renormalization).

    d nll / d log E[k, j] = -sum_i xi[i, k, j]
    d nll / d log P[j, v] = -sum_{i: y_i = v} gamma[i, j]

    With a_i = log_alpha[i] and c_i = log P[:, y_{i+1}] + log_beta[i+1],
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
    a = ft.log_alpha[:-1]
    c = bt.log_beta[1:] + logP[:, y[1:]].T
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
    """Weighted sum nll_value + mu * tts_loss_value, for a finite mu >= 0."""
    if not 0 <= mu < math.inf:  # NaN fails too
        raise ValueError(f"mu must be finite and non-negative, got {mu}")
    return float(nll_value) + float(mu) * float(tts_loss_value)
