"""Dense complex linear algebra for the 6-dimensional qubit-qutrit space.

Everything here operates on plain complex ndarrays and every function is
pure.  The composite space is ordered qubit-major: basis index = 3*q + t with
q in {0, 1} the qubit level and t in {0, 1, 2} the qutrit level.
"""

from __future__ import annotations

import numpy as np

QUBIT_DIM = 2
QUTRIT_DIM = 3
TOTAL_DIM = QUBIT_DIM * QUTRIT_DIM

#: Default absolute tolerance when deciding whether a matrix is Hermitian.
HERMITICITY_TOL = 1e-10


def _as_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def partial_transpose_qutrit(rho: np.ndarray) -> np.ndarray:
    """Transpose the qutrit indices of a 6x6 composite matrix.

    Viewing ``rho`` as a 2x2 grid of 3x3 blocks, each block is transposed in
    place.  The operation is an involution and preserves trace and
    Hermiticity.
    """
    rho = _as_square(rho, "rho")
    if rho.shape != (TOTAL_DIM, TOTAL_DIM):
        raise ValueError(f"expected a {TOTAL_DIM}x{TOTAL_DIM} matrix, got {rho.shape}")
    return (
        rho.reshape(QUBIT_DIM, QUTRIT_DIM, QUBIT_DIM, QUTRIT_DIM)
        .transpose(0, 3, 2, 1)
        .reshape(TOTAL_DIM, TOTAL_DIM)
        .copy()
    )
