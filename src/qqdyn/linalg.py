"""Dense linear algebra for the 6-dimensional qubit-qutrit space.

Everything here operates on plain ndarrays, a single matrix or a stack of
them along leading axes, and every function is pure.  The composite space
is ordered qubit-major: basis index = 3*q + t with q in {0, 1} the qubit
level and t in {0, 1, 2} the qutrit level.

Every state the package evolves commutes with the basis permutation
S = (0 4)(1 3)(2 5), X on the qubit times the swap of qutrit levels 0 and 1,
and is real.  In the orthonormal basis (|i> + |j>)/sqrt 2, (|i> - |j>)/sqrt 2
over the pairs (i, j) = (0, 4), (1, 3), (2, 5) such a matrix is block
diagonal: an S-even and an S-odd real symmetric 3x3 block, held as a
(..., 2, 3, 3) block stack.  :func:`to_blocks` and :func:`from_blocks` change
between the two forms, and :func:`partial_transpose_blocks` is the partial
transpose over the qutrit in block form, since it commutes with S too.
:func:`to_blocks` takes exact input, 6 times the evolution's terms as
integers, so it checks exactly, with no tolerance, that each matrix
commutes with S and is real.

The characteristic invariants of real symmetric 3x3 blocks, e_1, e_2 and
e_3 (trace, principal-minor sum, determinant), come from one piece of
polynomial algebra, :func:`_invariant_forms`, in the dtype of its input:
integers held in float64 stay exact while they are below 2^53.  The import
certifies the evolution's tables with it, and tabulates the ESD invariants.
"""

from __future__ import annotations

import numpy as np

QUBIT_DIM = 2
QUTRIT_DIM = 3
TOTAL_DIM = QUBIT_DIM * QUTRIT_DIM
#: Shape of one state in block form: the S-even and the S-odd block.
BLOCK_SHAPE = (2, QUTRIT_DIM, QUTRIT_DIM)

#: The pairs of S in the order i_0, i_1, i_2, j_0, j_1, j_2, where
#: i_k = |0 k> and j_k = S i_k.  The reordering is its own inverse.
_PAIRED = np.array([0, 1, 2, 4, 3, 5])
#: sigma, the swap of qutrit levels 0 and 1: S maps |0 k> to |1 sigma(k)>.
_SIGMA = np.array([1, 0, 2])
#: Columns j + 1 and j + 2 (mod 3) for each column j of a 3x3 matrix.
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


#: The fixed real maps of :func:`from_blocks` and
#: :func:`partial_transpose_blocks`, as their matrices on the 18 entries of a
#: block pair (E, O), built from A = (E + O) / 2 and B = (E - O) / 2 of the
#: 18 unit pairs: in the paired order a matrix that commutes with S is
#: [[A, B], [B, A]].  Each map sends a block pair to entries that are each
#: half the sum or the difference of two of its entries.  Halving is exact,
#: so a product with either map rounds each entry once, as (E +/- O) / 2
#: does, whatever the order of summation; a member's result does not depend
#: on the rest of its stack.
_UNITS = np.eye(18).reshape(18, *BLOCK_SHAPE)
_A = (_UNITS[:, 0] + _UNITS[:, 1]) / 2.0
_B = (_UNITS[:, 0] - _UNITS[:, 1]) / 2.0
#: Block pair -> the 36 entries of the product-basis matrix.
_FROM_BLOCKS = np.concatenate(
    [np.concatenate([_A, _B], axis=-1), np.concatenate([_B, _A], axis=-1)], axis=-2
)[:, _PAIRED[:, None], _PAIRED].reshape(18, TOTAL_DIM**2)
#: Block pair -> (A, B') of its partial transpose, B'[k, l] = B[sigma(k), sigma(l)].
_PT_HALVES = np.concatenate(
    [_A.reshape(18, 9), _B[:, _SIGMA[:, None], _SIGMA].reshape(18, 9)], axis=-1
)
#: Where each entry of the partial transpose over the qutrit sits among the
#: 36 entries of the matrix, as a 6x6 array.
_PT_GATHER = (
    np.arange(TOTAL_DIM**2)
    .reshape(QUBIT_DIM, QUTRIT_DIM, QUBIT_DIM, QUTRIT_DIM)
    .swapaxes(1, 3)
    .reshape(TOTAL_DIM, TOTAL_DIM)
)


def check_matrices(m: np.ndarray) -> None:
    """Reject an array that is neither a 6x6 matrix nor a (..., 6, 6) stack."""
    if m.ndim < 2 or m.shape[-2:] != (TOTAL_DIM, TOTAL_DIM):
        raise ValueError(f"expected {TOTAL_DIM}x{TOTAL_DIM} matrices, got shape {m.shape}")


def partial_transpose_qutrit(rho: np.ndarray) -> np.ndarray:
    """Transpose the qutrit indices of a 6x6 composite matrix, or of every
    matrix in a (..., 6, 6) stack.

    Viewing ``rho`` as a 2x2 grid of 3x3 blocks, each block is transposed in
    place.  The operation is an involution and preserves trace and
    Hermiticity.  Raises ValueError on a NaN or Inf entry.
    """
    rho = np.asarray(rho, dtype=complex)
    check_matrices(rho)
    if not np.isfinite(rho).all():
        raise ValueError("rho contains NaN or Inf entries")
    return rho.reshape(*rho.shape[:-2], TOTAL_DIM**2).take(_PT_GATHER, axis=-1)


def to_blocks(m: np.ndarray) -> np.ndarray:
    """The (..., 2, 3, 3) real block stack of a 6x6 matrix, or of every
    matrix in a (..., 6, 6) stack, that commutes with S and is real.

    Raises ValueError unless every matrix commutes with S and is real
    exactly: the input is exact, so no tolerance applies.
    """
    m = np.asarray(m)
    check_matrices(m)
    p = m[..., _PAIRED[:, None], _PAIRED]
    a, b = p[..., :3, :3], p[..., :3, 3:]
    # In the paired order S swaps i_k and j_k: it maps [[A, B], [B', A']] to
    # [[A', B'], [B, A]].
    if (a != p[..., 3:, 3:]).any() or (b != p[..., 3:, :3]).any() or m.imag.any():
        raise ValueError("matrix does not commute with S or is not real")
    return np.stack([a.real + b.real, a.real - b.real], axis=-3)


def _lead(blocks: np.ndarray) -> tuple[int, ...]:
    """The leading axes of a (..., 2, 3, 3) block stack."""
    if blocks.shape[-3:] != BLOCK_SHAPE:
        raise ValueError(f"expected (..., 2, 3, 3) block stacks, got shape {blocks.shape}")
    return blocks.shape[:-3]


def from_blocks(blocks: np.ndarray) -> np.ndarray:
    """The real (..., 6, 6) product-basis matrices of a (..., 2, 3, 3) block
    stack: [[A, B], [B, A]] in the order of the pairs of S, with
    A = (E + O) / 2 and B = (E - O) / 2, by one fixed real map.

    The entries are not checked for finiteness: a NaN or Inf entry comes
    back as NaN entries of its member, with numpy's warning.  Every caller
    in the package passes ``evolution.evolve_grid`` output, which is finite
    by construction, and :func:`partial_transpose_blocks`,
    :func:`partial_transpose_qutrit` and ``states.check_density`` each
    reject a non-finite state.  A check here would cost every one-point
    evolution another pass over its entries."""
    lead = _lead(blocks)
    return (blocks.reshape(*lead, 18) @ _FROM_BLOCKS).reshape(*lead, TOTAL_DIM, TOTAL_DIM)


def partial_transpose_blocks(blocks: np.ndarray) -> np.ndarray:
    """The block stack of the partial transpose over the qutrit of each state
    of a (..., 2, 3, 3) block stack.

    The partial transpose commutes with S and keeps A, and it maps B to B'
    with B'[k, l] = B[sigma(k), sigma(l)], sigma the swap of qutrit levels 0
    and 1.  So one fixed real map gives A and B', and the blocks of the
    partial transpose are A + B' and A - B'.  Raises ValueError on a NaN or
    Inf entry, as :func:`partial_transpose_qutrit` does.
    """
    lead = _lead(blocks)
    if not np.isfinite(blocks).all():
        raise ValueError("rho contains NaN or Inf entries")
    halves = blocks.reshape(*lead, 18) @ _PT_HALVES
    a, b = halves[..., :9], halves[..., 9:]
    pt = np.empty((*lead, 2, 9))
    np.add(a, b, out=pt[..., 0, :])
    np.subtract(a, b, out=pt[..., 1, :])
    return pt.reshape(*lead, *BLOCK_SHAPE)


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials with coefficients of 1, y, ... along axis 0,
    in the dtype of the coefficients (exact rationals stay exact)."""
    shape = (len(a) + len(b) - 1, *np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for i, ai in enumerate(a):
        out[i : i + len(b)] += ai * b
    return out


def _invariant_forms(pt: np.ndarray) -> list[np.ndarray]:
    """e_1, e_2 and e_3 of the eigenvalues of the blocks A = sum_j x_j
    pt[:, j], as forms in the x_j.  ``pt`` holds 3x3 polynomial blocks:
    coefficients of 1, y, ... along axis 0, then the j axis, then any
    further axes, which the forms keep, then the 3x3.  e_i comes back with
    its coefficients along axis 0, then i axes of j, then the further axes;
    summed times x_j x_k ... over every j, k, ... it is e_i of the blocks
    A.  e_1 = tr A, e_2 = ((tr A)^2 - tr A^2) / 2 and e_3 = det A by the
    cofactors of row 0, its rows 0, 1 and 2 taken from pt[:, j], pt[:, k]
    and pt[:, l]: the determinant is linear in each row.  The arithmetic
    keeps the dtype of ``pt``, so exact rationals stay exact, and so do
    integers in float64 below 2^53."""
    tr = np.trace(pt, axis1=-2, axis2=-1)
    squares = _polymul(pt[:, :, None], pt[:, None].swapaxes(-1, -2)).sum(axis=(-2, -1))
    r0 = pt[:, :, None, None, ..., 0, :]
    r1 = pt[:, None, :, None, ..., 1, :]
    r2 = pt[:, None, None, :, ..., 2, :]
    cofactors = _polymul(r1[..., _NEXT], r2[..., _AFTER])
    cofactors -= _polymul(r1[..., _AFTER], r2[..., _NEXT])
    return [
        tr,
        (_polymul(tr[:, :, None], tr[:, None]) - squares) / 2,
        _polymul(r0, cofactors).sum(axis=-1),
    ]
