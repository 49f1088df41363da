"""Plain log-space recurrences, kept as references for the production kernels.

These are the straightforward forms of the dp and decode recursions: every
forward/backward step is a full logsumexp over an L x L log-space
temporary, the NLL gradient sums the (M-1, L, L) edge-posterior tensor, and
the max-plus step reduces along axis 0, and validation checks one row at a
time. They are slow but obviously right; tests compare
dp.forward/backward/posterior/nll_grad, the decode tables and
lattice.validate against them.
"""

import numpy as np

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
    for k in range(L):
        row_lower = lt[k, : k + 1]
        if np.any(row_lower > NEG_INF):
            out.append(("lower_triangle_mass", k, float(np.exp(logsumexp(row_lower)))))
    for k in range(L - 1):
        dev = abs(float(logsumexp(lt[k, k + 1 :])))
        if not dev <= tolerance:
            out.append(("transition_row_norm", k, dev))
    last = lt[L - 1]
    if np.any(last > NEG_INF):
        out.append(("final_row_mass", L - 1, float(np.exp(logsumexp(last)))))
    for j in range(L):
        dev = abs(float(logsumexp(le[j])))
        if not dev <= tolerance:
            out.append(("emission_row_norm", j, dev))
    for name, mat in (("transition", lt), ("emission", le)):
        for row in range(mat.shape[0]):
            if np.any(mat[row] > 0.0):
                out.append((f"positive_{name}_entry", row, float(np.max(mat[row]))))
    return out
