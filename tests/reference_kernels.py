"""Plain log-space recurrences, kept as references for the production kernels.

These are the straightforward forms of the dp and decode recursions: every
forward/backward step is a full logsumexp over an L x L log-space
temporary, the NLL gradient sums the (M-1, L, L) edge-posterior tensor, and
the max-plus step reduces along axis 0, and validation checks one row at a
time. They are slow but obviously right; tests compare
dp.forward/backward/posterior/nll_grad, the decode tables and
lattice.validate against them, and the gradient check's report against the
one that copies both log matrices for every perturbed evaluation.
stepwise_forward and stepwise_backward are the BLAS passes with their range
test and exact per-column fallback run on every step (log_vecmat), which
dp's one-test-per-pass sweep must match bit for bit.
"""

import numpy as np

from daglattice import DagLattice, dp
from daglattice.logspace import NEG_INF, logsumexp


def forward(lattice, y):
    M, L = len(y), lattice.graph_size
    logE, logP = lattice.log_transition, lattice.log_emission
    la = np.full((M, L), NEG_INF)
    la[0, 0] = logP[0, y[0]]
    for i in range(1, M):
        la[i] = logP[:, y[i]] + logsumexp(la[i - 1][:, None] + logE, axis=0)
    return la


def backward(lattice, y):
    M, L = len(y), lattice.graph_size
    logE, logP = lattice.log_transition, lattice.log_emission
    lb = np.full((M, L), NEG_INF)
    lb[M - 1, L - 1] = 0.0
    for i in range(M - 2, -1, -1):
        lb[i] = logsumexp(logE + (lb[i + 1] + logP[:, y[i + 1]])[None, :], axis=1)
    return lb


def log_vecmat(x, logE, expE, top):
    """One step of dp._sweep, tested at once: logsumexp(x[:, None] + logE,
    axis=0) by one BLAS product of the max-shifted exp(x) and the 0/1 finite
    pattern of x against expE, with the exact reduction on every column that
    has finite terms and a shifted sum out of range or not finite."""
    m = x.max()
    shift = m if np.isfinite(m) else 0.0
    rows = np.empty((2, x.size))
    with np.errstate(all="ignore"):
        np.subtract(x, shift, out=rows[0])
        np.exp(rows[0], out=rows[0])
        np.not_equal(x, NEG_INF, out=rows[1])
        s, count = dp._matmul(rows, expE)
        out = np.log(s)
    redo = np.flatnonzero(~(np.abs(out) <= dp._LOG_SUM_MAX) & (count != 0))
    out += shift + top
    if redo.size:
        out[redo] = logsumexp(x[:, None] + logE[:, redo], axis=0)
    return out


def stepwise_forward(lattice, y):
    M, L = len(y), lattice.graph_size
    logE = lattice.log_transition
    emit = lattice.log_emission[:, y].T
    expE, top = dp._pass_matrix(lattice)
    la = np.full((M, L), NEG_INF)
    la[0, 0] = emit[0, 0]
    for i in range(1, M):
        np.add(emit[i], log_vecmat(la[i - 1], logE, expE, top), out=la[i])
    return la


def stepwise_backward(lattice, y):
    M, L = len(y), lattice.graph_size
    logE = lattice.log_transition.T
    emit = lattice.log_emission[:, y].T
    expE, top = dp._pass_matrix(lattice)
    lb = np.full((M, L), NEG_INF)
    lb[M - 1, L - 1] = 0.0
    for i in range(M - 2, -1, -1):
        lb[i] = log_vecmat(lb[i + 1] + emit[i + 1], logE, expE.T, top)
    return lb


def posterior(lattice, y):
    """(gamma, xi) from the reference tables; the target must be feasible."""
    la, lb = forward(lattice, y), backward(lattice, y)
    logZ = la[-1, -1]
    M, L = len(y), lattice.graph_size
    logE, logP = lattice.log_transition, lattice.log_emission
    gamma = np.exp(la + lb - logZ)
    xi = np.empty((M - 1, L, L))
    for i in range(M - 1):
        xi[i] = np.exp(la[i][:, None] + logE + (logP[:, y[i + 1]] + lb[i + 1])[None, :] - logZ)
    return gamma, xi


def nll_grad(lattice, y):
    """The gradient as the negated sum of the edge-posterior tensor."""
    gamma, xi = posterior(lattice, y)
    dE = -xi.sum(axis=0)
    dE[lattice.log_transition == NEG_INF] = 0.0
    dP = np.zeros((lattice.graph_size, lattice.vocab_size))
    for i, v in enumerate(y):
        dP[:, v] -= gamma[i]
    dP[lattice.log_emission == NEG_INF] = 0.0
    return dE, dP


def finite_difference_check(lattice, y, step=1e-6):
    """The gradient check's report with fresh copies of both log matrices
    for every perturbed evaluation, each entry perturbed by += delta."""
    def perturbed_nll(which, idx, delta):
        lt, le = np.array(lattice.log_transition), np.array(lattice.log_emission)
        (lt if which == "E" else le)[idx] += delta
        return dp.nll(DagLattice(lattice.graph_size, lattice.vocab_size, lattice.hidden_dim,
                                 lt, le, lattice.hidden_states), y)

    dE, dP = dp.nll_grad(lattice, y)
    report = {"max_rel_err": 0.0, "checked": 0, "skipped": 0}
    for which, mat, grad in (("E", lattice.log_transition, dE), ("P", lattice.log_emission, dP)):
        for idx in zip(*np.nonzero(mat > NEG_INF)):
            if abs(grad[idx]) <= 1e-8:
                report["skipped"] += 1
                continue
            fd = (perturbed_nll(which, idx, step) - perturbed_nll(which, idx, -step)) / (2.0 * step)
            rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]))
            report["max_rel_err"] = max(report["max_rel_err"], rel)
            report["checked"] += 1
    return report


def viterbi_tables(logE, emit):
    """delta/phi of the max-plus recursion, reducing over axis 0 of (k, j)."""
    n, L = emit.shape
    delta = np.full((n, L), NEG_INF)
    phi = np.zeros((n, L), dtype=np.int64)
    delta[0, 0] = emit[0, 0]
    for i in range(1, n):
        cand = delta[i - 1][:, None] + logE  # (k, j)
        phi[i] = np.argmax(cand, axis=0)
        delta[i] = cand[phi[i], np.arange(L)] + emit[i]
    return delta, phi


def validate(lattice, tolerance):
    """(kind, row, deviation) triples, one row at a time."""
    out = []
    L = lattice.graph_size
    lt, le = lattice.log_transition, lattice.log_emission
    for k in range(L - 1):
        dev = abs(float(logsumexp(lt[k, k + 1 :])))
        if not dev <= tolerance:
            out.append(("transition_row_norm", k, dev))
    for j in range(L):
        dev = abs(float(logsumexp(le[j])))
        if not dev <= tolerance:
            out.append(("emission_row_norm", j, dev))
    for name, mat in (("transition", lt), ("emission", le)):
        for row in range(mat.shape[0]):
            if np.any(mat[row] > 0.0):
                out.append((f"positive_{name}_entry", row, float(np.max(mat[row]))))
    return out
