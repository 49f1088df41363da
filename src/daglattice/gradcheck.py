"""Central finite-difference verification of the analytic NLL gradient.

Each finite log-matrix entry is treated as a free parameter; the check
perturbs it by +/-step and compares (nll(+) - nll(-)) / (2*step) against
the closed-form gradient. Relative error uses the larger of the two
magnitudes in the denominator.
"""

import math

import numpy as np

from . import dp
from .lattice import DagLattice
from .logspace import NEG_INF


def finite_difference_check(lattice, target, step=1e-6, grad_floor=1e-8):
    """Returns {"max_rel_err", "checked", "skipped"} over all finite entries.

    Entries whose analytic gradient magnitude is below grad_floor are
    skipped (relative error is meaningless near zero). The step must be
    finite and non-zero, and grad_floor finite and non-negative.
    """
    if not (math.isfinite(step) and step != 0):
        raise ValueError(f"step must be finite and non-zero, got {step}")
    if not 0 <= grad_floor < math.inf:  # NaN fails too
        raise ValueError(f"grad_floor must be finite and non-negative, got {grad_floor}")
    dE, dP = dp.nll_grad(lattice, target)
    # one writable copy of each log matrix; every evaluation writes its
    # perturbed entry in, and the lattice built from them copies them again,
    # so the original goes back in as soon as it is built
    lt, le = np.array(lattice.log_transition), np.array(lattice.log_emission)

    def perturbed_nll(mat, idx, delta):
        original = mat[idx]
        mat[idx] = original + delta
        pert = DagLattice(lattice.graph_size, lattice.vocab_size, lattice.hidden_dim,
                          lt, le, lattice.hidden_states)
        mat[idx] = original
        return dp.nll(pert, target)

    max_rel = 0.0
    checked = 0
    skipped = 0
    for mat, grad in ((lt, dE), (le, dP)):
        for idx in zip(*np.nonzero(mat > NEG_INF)):
            g = grad[idx]
            if abs(g) <= grad_floor:
                skipped += 1
                continue
            hi = perturbed_nll(mat, idx, step)
            lo = perturbed_nll(mat, idx, -step)
            fd = (hi - lo) / (2.0 * step)
            rel = abs(fd - g) / max(abs(fd), abs(g))
            max_rel = max(max_rel, rel)
            checked += 1
    return {"max_rel_err": max_rel, "checked": checked, "skipped": skipped}
