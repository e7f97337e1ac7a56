"""Shared test helpers: independent brute-force implementations used as oracles."""

import numpy as np

from qqdyn import ChannelKind, Side
from qqdyn.channels import _SHAPES

#: The number of Kraus operators of each (kind, side), as the paper gives
#: them, recorded independently of the operator table.
OPERATOR_COUNTS = {
    (ChannelKind.DEPHASING, Side.QUBIT): 2,
    (ChannelKind.DEPHASING, Side.QUTRIT): 3,
    (ChannelKind.PHASE_FLIP, Side.QUBIT): 2,
    (ChannelKind.PHASE_FLIP, Side.QUTRIT): 3,
    (ChannelKind.BIT_FLIP, Side.QUBIT): 2,
    (ChannelKind.BIT_FLIP, Side.QUTRIT): 3,
    (ChannelKind.BIT_PHASE_FLIP, Side.QUBIT): 2,
    (ChannelKind.BIT_PHASE_FLIP, Side.QUTRIT): 5,
    (ChannelKind.DEPOLARIZING, Side.QUBIT): 4,
    (ChannelKind.DEPOLARIZING, Side.QUTRIT): 9,
}


def kraus_operators(kind, side, gamma):
    """The (N, K, 6, 6) Kraus stacks of one channel kind and side at the N
    strengths of the 1-d array ``gamma``: K_i = fixed_i + w_i shape_i from
    the package's operator table, with its own square-root weights
    w_0 = sqrt(1 - p gamma / m) and w_i = sqrt(gamma / m) for i > 0.  The
    strengths are not checked, nor is completeness."""
    shapes = _SHAPES[ChannelKind(kind), Side(side)]
    g = np.asarray(gamma, dtype=float)
    w = np.empty((len(g), len(shapes.shapes)))
    w[:, 0] = np.sqrt(1.0 - shapes.p * g / shapes.m)
    w[:, 1:] = np.sqrt(g / shapes.m)[:, None]
    return shapes.fixed + w[:, :, None, None] * shapes.shapes


def apply_channel(ops, rho):
    """The direct Kraus sum sum_i K_i rho K_i^dagger of a (..., K, 6, 6)
    operator stack and a (..., 6, 6) state stack whose leading axes
    broadcast against the operators', as a plain array."""
    return (ops @ rho[..., None, :, :] @ ops.conj().swapaxes(-1, -2)).sum(axis=-3)


def completeness_defect(ops):
    """max |sum_i K_i^dagger K_i - I6| over every operator set of a
    (..., K, 6, 6) stack."""
    return float(np.abs(np.einsum("...kji,...kjl->...il", ops.conj(), ops) - np.eye(6)).max())


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
