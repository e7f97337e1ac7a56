"""Dense complex linear algebra for the 6-dimensional qubit-qutrit space.

Everything here operates on plain complex ndarrays, a single matrix or a
stack of them along leading axes, and every function is pure.  The
composite space is ordered qubit-major: basis index = 3*q + t with q in
{0, 1} the qubit level and t in {0, 1, 2} the qutrit level.
"""

from __future__ import annotations

import numpy as np

QUBIT_DIM = 2
QUTRIT_DIM = 3
TOTAL_DIM = QUBIT_DIM * QUTRIT_DIM

#: Default absolute tolerance when deciding whether a matrix is Hermitian.
HERMITICITY_TOL = 1e-10


def partial_transpose_qutrit(rho: np.ndarray) -> np.ndarray:
    """Transpose the qutrit indices of a 6x6 composite matrix, or of every
    matrix in a (..., 6, 6) stack.

    Viewing ``rho`` as a 2x2 grid of 3x3 blocks, each block is transposed in
    place.  The operation is an involution and preserves trace and
    Hermiticity.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (TOTAL_DIM, TOTAL_DIM):
        raise ValueError(f"expected {TOTAL_DIM}x{TOTAL_DIM} matrices, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("rho contains NaN or Inf entries")
    lead = rho.shape[:-2]
    return (
        rho.reshape(*lead, QUBIT_DIM, QUTRIT_DIM, QUBIT_DIM, QUTRIT_DIM)
        .swapaxes(-3, -1)
        .reshape(*lead, TOTAL_DIM, TOTAL_DIM)
    )
