import numpy as np
import pytest
from pytest import approx

from qqdyn import (
    ChannelKind,
    Side,
    initial_state,
    partial_transpose_qutrit,
)
from qqdyn.channels import kraus_operators
from qqdyn.states import _BELL_PROJECTORS, StateParams

from helpers import block_partial_transpose, random_density_matrix

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
