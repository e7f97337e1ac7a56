"""Shared test helpers: independent brute-force implementations used as oracles."""

import numpy as np


def block_partial_transpose(m):
    """Partial transpose over the qutrit by explicit 3x3 block loops."""
    m = np.asarray(m, dtype=complex)
    out = m.copy()
    for qi in (0, 1):
        for qj in (0, 1):
            out[3 * qi : 3 * qi + 3, 3 * qj : 3 * qj + 3] = m[
                3 * qi : 3 * qi + 3, 3 * qj : 3 * qj + 3
            ].T
    return out


def brute_negativity(m):
    eigs = np.linalg.eigvalsh(block_partial_transpose(m))
    return 2.0 * max(0.0, -float(eigs[eigs < -1e-12].sum()))


def random_density_matrix(rng, dim=6):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = x @ x.conj().T
    return h / h.trace().real


def qubit_marginal(m):
    return np.asarray(m, dtype=complex).reshape(2, 3, 2, 3).trace(axis1=1, axis2=3)


def qutrit_marginal(m):
    return np.asarray(m, dtype=complex).reshape(2, 3, 2, 3).trace(axis1=0, axis2=2)
