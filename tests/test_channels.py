import numpy as np
import pytest
from pytest import approx

from qqdyn import (
    ChannelKind,
    DensityMatrix,
    OPERATOR_COUNTS,
    Side,
    apply_channel,
    initial_state,
)
from qqdyn.channels import _SHAPES, channel_terms, channel_weights, kraus_operators
from qqdyn.states import _BELL_PROJECTORS, StateParams

from helpers import qubit_marginal, qutrit_marginal, random_density_matrix

GAMMAS = np.linspace(0.0, 1.0, 11)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_operator_counts_and_completeness(kind, side):
    for g in GAMMAS:
        ops = kraus_operators(kind, side, [g])[0]
        assert len(ops) == OPERATOR_COUNTS[(kind, side)]
        total = sum(k.conj().T @ k for k in ops)
        assert np.abs(total - np.eye(6)).max() < 1e-12


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_zero_strength_is_identity(kind, side):
    rng = np.random.default_rng(10)
    rho = DensityMatrix(random_density_matrix(rng))
    out = apply_channel(kraus_operators(kind, side, [0.0])[0], rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_trace_and_positivity_preserved(kind, side):
    rng = np.random.default_rng(11)
    for g in (0.2, 0.7, 1.0):
        rho = DensityMatrix(random_density_matrix(rng))
        out = apply_channel(kraus_operators(kind, side, [g])[0], rho)
        assert out.matrix.trace() == approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.matrix).min() > -1e-10


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_unital(kind, side):
    mixed = DensityMatrix(np.eye(6) / 6)
    out = apply_channel(kraus_operators(kind, side, [0.37])[0], mixed)
    assert np.abs(out.matrix - np.eye(6) / 6).max() < 1e-12


def test_apply_channel_matches_operator_loop():
    rng = np.random.default_rng(14)
    rho = DensityMatrix(random_density_matrix(rng))
    for kind in ChannelKind:
        for side in Side:
            ch = kraus_operators(kind, side, [0.43])[0]
            loop = sum(k @ rho.matrix @ k.conj().T for k in ch)
            assert np.array_equal(apply_channel(ch, rho).matrix, loop), (kind, side)


def test_full_qubit_dephasing_kills_coherence():
    p = StateParams(0.05, 0.6)
    rho = initial_state(p)
    out = apply_channel(kraus_operators(ChannelKind.DEPHASING, Side.QUBIT, [1.0])[0], rho)
    assert out.matrix[1, 3] == approx(0.0, abs=1e-15)
    assert np.diag(out.matrix) == approx(np.diag(rho.matrix))


def test_qutrit_phase_flip_preserves_populations():
    rng = np.random.default_rng(12)
    rho = DensityMatrix(random_density_matrix(rng))
    for g in (0.3, 1.0):
        ch = kraus_operators(ChannelKind.PHASE_FLIP, Side.QUTRIT, [g])[0]
        for op in ch:
            assert np.abs(op - np.diag(np.diag(op))).max() == 0.0
        out = apply_channel(ch, rho)
        assert np.diag(out.matrix) == approx(np.diag(rho.matrix), abs=1e-14)


def test_full_trit_flip_uniformizes_populations():
    # Qutrit marginal diag(1,0,0) spreads to (1/3, 1/3, 1/3) at full strength.
    rho = DensityMatrix(np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex))
    out = apply_channel(kraus_operators(ChannelKind.BIT_FLIP, Side.QUTRIT, [1.0])[0], rho)
    assert np.diag(qutrit_marginal(out.matrix)).real == approx([1 / 3, 1 / 3, 1 / 3])


def test_bit_phase_flip_qubit_is_conjugated_bit_flip():
    # sigma_y = D sigma_x D^dagger with D = diag(1, i), applied entry-wise.
    d6 = np.kron(np.diag([1.0, 1j]), np.eye(3))
    for g in (0.25, 0.8):
        bf = kraus_operators(ChannelKind.BIT_FLIP, Side.QUBIT, [g])[0]
        bpf = kraus_operators(ChannelKind.BIT_PHASE_FLIP, Side.QUBIT, [g])[0]
        for kb, kp in zip(bf, bpf):
            assert np.abs(d6 @ kb @ d6.conj().T - kp).max() < 1e-15


def test_full_depolarizing_twirls_marginals():
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho = DensityMatrix(random_density_matrix(rng))
        out_q = apply_channel(kraus_operators(ChannelKind.DEPOLARIZING, Side.QUBIT, [1.0])[0], rho)
        assert qubit_marginal(out_q.matrix) == approx(np.eye(2) / 2, abs=1e-12)
        out_t = apply_channel(kraus_operators(ChannelKind.DEPOLARIZING, Side.QUTRIT, [1.0])[0], rho)
        assert qutrit_marginal(out_t.matrix) == approx(np.eye(3) / 3, abs=1e-12)


def test_full_depolarizing_both_sides_gives_maximally_mixed():
    rho = DensityMatrix(_BELL_PROJECTORS["psi-"])
    for side in (Side.QUBIT, Side.QUTRIT):
        rho = apply_channel(kraus_operators(ChannelKind.DEPOLARIZING, side, [1.0])[0], rho)
    assert rho.matrix == approx(np.eye(6) / 6, abs=1e-12)


def test_gamma_bounds():
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError, match="gamma must lie in"):
            kraus_operators(ChannelKind.DEPHASING, Side.QUBIT, [bad])
        with pytest.raises(ValueError, match="gamma must lie in"):
            channel_weights(ChannelKind.DEPHASING, Side.QUBIT, [0.5, bad])


@pytest.mark.parametrize(
    "gamma",
    [[], np.zeros(0), 0.5, np.float64(0.0), np.full((2, 2), 0.5), np.zeros((0, 1))],
    ids=["empty-list", "empty-array", "float", "0-d", "2-d", "empty-2-d"],
)
def test_strengths_are_a_1d_array_that_may_be_empty(gamma):
    for kind in ChannelKind:
        for side in Side:
            if np.ndim(gamma) == 1:
                terms = _SHAPES[kind, side].terms
                assert channel_weights(kind, side, gamma).shape == (0, terms)
                ops = kraus_operators(kind, side, gamma)
                assert ops.shape == (0, OPERATOR_COUNTS[kind, side], 6, 6)
                continue
            for build in (channel_weights, kraus_operators):
                with pytest.raises(ValueError, match="^strengths must be a 1-d array, got shape"):
                    build(kind, side, gamma)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_polynomial_terms_equal_the_kraus_sum(kind, side):
    # E_g(rho) = u T_u + v T_v + s T_s with the weight rows (u, v[, s]), for
    # arbitrary states, against the direct Kraus sum.
    rng = np.random.default_rng(15)
    rho = np.array([random_density_matrix(rng) for _ in range(4)])
    g = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    terms = channel_terms(kind, side, rho)
    w = channel_weights(kind, side, g)
    assert w.shape == (len(g), len(terms)) == (len(g), 3 if kind is ChannelKind.DEPHASING else 2)
    got = np.einsum("nt,t...->n...", w, terms)
    want = apply_channel(kraus_operators(kind, side, g)[:, None], rho[None])
    assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_weight_polynomials_in_y_give_the_weight_rows(kind, side):
    # With 1 - gamma = y^k, the weight rows are polynomials in y: k = 2 for
    # dephasing, whose s = sqrt(1 - gamma) is y itself, else k = 1.
    g = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    w = _SHAPES[(kind, side)].weights_in_y
    k = w.shape[1] - 1
    assert k == (2 if kind is ChannelKind.DEPHASING else 1)
    y = (1.0 - g) ** (1.0 / k)
    got = np.vander(y, k + 1, increasing=True) @ w.T
    assert np.abs(got - channel_weights(kind, side, g)).max() < 1e-15
