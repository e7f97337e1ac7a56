import numpy as np
import pytest
from pytest import approx

from qqdyn import (
    ChannelKind,
    Side,
    initial_state,
    partial_transpose_qutrit,
)
from qqdyn.linalg import from_blocks, partial_transpose_blocks, to_blocks
from qqdyn.states import _BELL_PROJECTORS, StateParams

from helpers import block_partial_transpose, kraus_operators, random_density_matrix

I6 = np.eye(6)


def test_dagger_conjugates_phases():
    # Second qutrit phase-flip operator carries e^{-i 2pi/3} in slot (1,1).
    op = kraus_operators(ChannelKind.PHASE_FLIP, Side.QUTRIT, [0.3])[0][1]
    w = np.exp(2j * np.pi / 3)
    assert op[1, 1] == approx(np.sqrt(0.1) * np.conj(w))
    assert op.conj().T[1, 1] == approx(np.sqrt(0.1) * w)


def test_singlet_partial_transpose_spectrum():
    rho = initial_state(StateParams(0.0, 1.0))
    eigs = np.linalg.eigvalsh(partial_transpose_qutrit(rho.matrix))
    assert eigs == approx([-0.5, 0.0, 0.0, 0.5, 0.5, 0.5], abs=1e-12)


def test_partial_transpose_fixed_point_and_involution():
    assert partial_transpose_qutrit(I6 / 6) == approx(I6 / 6)
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert partial_transpose_qutrit(partial_transpose_qutrit(m)) == approx(m)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(8)
    rho = random_density_matrix(rng)
    pt = partial_transpose_qutrit(rho)
    assert pt.trace() == approx(rho.trace())
    assert np.abs(pt - pt.conj().T).max() < 1e-14


def test_partial_transpose_matches_block_loop():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert partial_transpose_qutrit(m) == approx(block_partial_transpose(m))


def test_partial_transpose_moves_coherence():
    # The (1,3) pair of the zero-noise state lands on (0,4) after transposing.
    rho = initial_state(StateParams(0.05, 0.6)).matrix
    pt = partial_transpose_qutrit(rho)
    assert pt[0, 4] == approx(rho[1, 3])
    assert pt[1, 3] == approx(0.0)


def test_partial_transpose_wrong_dimension():
    with pytest.raises(ValueError):
        partial_transpose_qutrit(np.eye(4))


def test_bell_state_spectrum_embedding():
    # Bell-like projectors have spectrum {1, 0 x5} in the composite space.
    eigs = np.linalg.eigvalsh(_BELL_PROJECTORS["psi-"])
    assert eigs == approx([0, 0, 0, 0, 0, 1], abs=1e-12)


#: The symmetry S = (0 4)(1 3)(2 5) as a permutation matrix, and the
#: orthonormal basis (|i> + |j>)/sqrt 2, (|i> - |j>)/sqrt 2 of its pairs.
S = np.eye(6)[[4, 3, 5, 1, 0, 2]]
PAIR_BASIS = np.array(
    [(np.eye(6)[i] + sign * np.eye(6)[j]) / np.sqrt(2.0)
     for sign in (1.0, -1.0) for i, j in ((0, 4), (1, 3), (2, 5))]
)


def _symmetric_states(rng, n):
    """``n`` real density matrices that commute with S."""
    x = rng.normal(size=(n, 6, 6))
    h = x @ x.swapaxes(-1, -2)
    h = h + S @ h @ S
    return h / np.trace(h, axis1=-2, axis2=-1)[:, None, None]


def test_blocks_are_the_diagonal_blocks_in_the_pair_basis():
    rng = np.random.default_rng(10)
    m = _symmetric_states(rng, 20)
    blocks = to_blocks(m)
    rotated = PAIR_BASIS @ m @ PAIR_BASIS.T
    assert np.abs(rotated[:, :3, 3:]).max() <= 1e-15
    assert np.abs(blocks[:, 0] - rotated[:, :3, :3]).max() <= 1e-15
    assert np.abs(blocks[:, 1] - rotated[:, 3:, 3:]).max() <= 1e-15
    assert np.abs(from_blocks(blocks) - m).max() <= 1e-15
    assert from_blocks(blocks[0]).shape == (6, 6)


def test_block_partial_transpose_matches_the_product_basis():
    rng = np.random.default_rng(11)
    m = _symmetric_states(rng, 20)
    pt = partial_transpose_blocks(to_blocks(m))
    assert np.abs(from_blocks(pt) - partial_transpose_qutrit(m)).max() <= 1e-15
    eigs = np.linalg.eigvalsh(pt).reshape(20, 6)
    assert np.sort(eigs, axis=-1) == approx(np.linalg.eigvalsh(partial_transpose_qutrit(m)), abs=1e-15)


def test_block_maps_treat_each_member_on_its_own():
    rng = np.random.default_rng(12)
    blocks = to_blocks(_symmetric_states(rng, 70))
    for f in (from_blocks, partial_transpose_blocks):
        stack = f(blocks)
        for i in (0, 33, 69):
            assert np.array_equal(stack[i], f(blocks[i])), (f.__name__, i)


def test_to_blocks_rejects_a_matrix_off_the_symmetry():
    m = _symmetric_states(np.random.default_rng(13), 3).astype(complex)
    to_blocks(m)
    broken = m.copy()
    broken[1, 0, 1] += 1e-14
    broken[1, 1, 0] += 1e-14
    with pytest.raises(ValueError, match="does not commute with S or is not real"):
        to_blocks(broken)
    imaginary = m.copy()
    imaginary[2, 0, 1] += 1e-14j
    imaginary[2, 4, 3] += 1e-14j
    with pytest.raises(ValueError, match="does not commute with S or is not real"):
        to_blocks(imaginary)
    with pytest.raises(ValueError, match="expected 6x6"):
        to_blocks(np.eye(3))
