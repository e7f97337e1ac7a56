import math

import numpy as np
import pytest
from pytest import approx

from qqdyn import ChannelKind, Side, initial_state
from qqdyn.channels import _SHAPES, _WEIGHTINGS, _weights, channel_terms, channel_weights
from qqdyn.evolution import Mode, _integer_rows, _weights_in_y, sweep_strengths
from qqdyn.states import _BELL_PROJECTORS, StateParams

from helpers import (
    OPERATOR_COUNTS,
    apply_channel,
    completeness_defect,
    kraus_operators,
    qubit_marginal,
    qutrit_marginal,
    random_density_matrix,
)

GAMMAS = np.linspace(0.0, 1.0, 11)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_operator_counts_and_completeness(kind, side):
    ops = kraus_operators(kind, side, GAMMAS)
    assert ops.shape == (len(GAMMAS), OPERATOR_COUNTS[(kind, side)], 6, 6)
    assert completeness_defect(ops) < 1e-12


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_zero_strength_is_identity(kind, side):
    rng = np.random.default_rng(10)
    rho = random_density_matrix(rng)
    out = apply_channel(kraus_operators(kind, side, [0.0])[0], rho)
    assert np.abs(out - rho).max() < 1e-14


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_trace_and_positivity_preserved(kind, side):
    rng = np.random.default_rng(11)
    for g in (0.2, 0.7, 1.0):
        rho = random_density_matrix(rng)
        out = apply_channel(kraus_operators(kind, side, [g])[0], rho)
        assert out.trace() == approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-10


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_unital(kind, side):
    mixed = np.eye(6) / 6
    out = apply_channel(kraus_operators(kind, side, [0.37])[0], mixed)
    assert np.abs(out - np.eye(6) / 6).max() < 1e-12


def test_apply_channel_matches_operator_loop():
    rng = np.random.default_rng(14)
    rho = random_density_matrix(rng)
    for kind in ChannelKind:
        for side in Side:
            ch = kraus_operators(kind, side, [0.43])[0]
            loop = sum(k @ rho @ k.conj().T for k in ch)
            assert np.array_equal(apply_channel(ch, rho), loop), (kind, side)


def test_full_qubit_dephasing_kills_coherence():
    p = StateParams(0.05, 0.6)
    rho = initial_state(p).matrix
    out = apply_channel(kraus_operators(ChannelKind.DEPHASING, Side.QUBIT, [1.0])[0], rho)
    assert out[1, 3] == approx(0.0, abs=1e-15)
    assert np.diag(out) == approx(np.diag(rho))


def test_qutrit_phase_flip_preserves_populations():
    rng = np.random.default_rng(12)
    rho = random_density_matrix(rng)
    for g in (0.3, 1.0):
        ch = kraus_operators(ChannelKind.PHASE_FLIP, Side.QUTRIT, [g])[0]
        for op in ch:
            assert np.abs(op - np.diag(np.diag(op))).max() == 0.0
        out = apply_channel(ch, rho)
        assert np.diag(out) == approx(np.diag(rho), abs=1e-14)


def test_full_trit_flip_uniformizes_populations():
    # Qutrit marginal diag(1,0,0) spreads to (1/3, 1/3, 1/3) at full strength.
    rho = np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex)
    out = apply_channel(kraus_operators(ChannelKind.BIT_FLIP, Side.QUTRIT, [1.0])[0], rho)
    assert np.diag(qutrit_marginal(out)).real == approx([1 / 3, 1 / 3, 1 / 3])


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
        rho = random_density_matrix(rng)
        out_q = apply_channel(kraus_operators(ChannelKind.DEPOLARIZING, Side.QUBIT, [1.0])[0], rho)
        assert qubit_marginal(out_q) == approx(np.eye(2) / 2, abs=1e-12)
        out_t = apply_channel(kraus_operators(ChannelKind.DEPOLARIZING, Side.QUTRIT, [1.0])[0], rho)
        assert qutrit_marginal(out_t) == approx(np.eye(3) / 3, abs=1e-12)


def test_full_depolarizing_both_sides_gives_maximally_mixed():
    rho = _BELL_PROJECTORS["psi-"]
    for side in (Side.QUBIT, Side.QUTRIT):
        rho = apply_channel(kraus_operators(ChannelKind.DEPOLARIZING, side, [1.0])[0], rho)
    assert rho == approx(np.eye(6) / 6, abs=1e-12)


def test_gamma_bounds():
    for bad in (-0.1, 1.1, np.nan):
        for pair in (([0.5, bad], [0.5, 0.5]), ([0.5, 0.5], [0.5, bad])):
            with pytest.raises(ValueError, match="gamma must lie in"):
                channel_weights(ChannelKind.DEPHASING, *pair)


@pytest.mark.parametrize(
    "gamma",
    [[], np.zeros(0), 0.5, np.float64(0.0), np.full((2, 2), 0.5), np.zeros((0, 1))],
    ids=["empty-list", "empty-array", "float", "0-d", "2-d", "empty-2-d"],
)
def test_strengths_are_a_1d_array_that_may_be_empty(gamma):
    for kind in ChannelKind:
        if np.ndim(gamma) == 1:
            terms = _SHAPES[kind, Side.QUBIT].terms
            assert channel_weights(kind, gamma, gamma).shape == (2, 0, terms)
            continue
        with pytest.raises(ValueError, match="^strengths must be 1-d arrays of one length"):
            channel_weights(kind, gamma, gamma)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_float_weights_equal_the_weight_rows_to_the_bit(kind):
    # The one weight formula on one side's Python floats, with math.sqrt, as
    # a one-point evolve takes it, against the rows of channel_weights.
    corners = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    g = np.concatenate([corners, np.random.default_rng(35).uniform(size=(2, 50))], axis=1)
    rows = channel_weights(kind, *g)
    weighting = _WEIGHTINGS[kind]
    for side, (p, m) in enumerate(weighting.sides):
        for n, x in enumerate(g[side].tolist()):
            w = _weights(p, m, x, weighting.terms, math.sqrt)
            assert all(type(e) is float for e in w)
            assert np.array(w).tobytes() == rows[side, n].tobytes(), (side, x)


def test_strengths_of_both_sides_are_equal_in_length():
    for pair in (([0.5], [0.5, 0.5]), (0.5, [0.5, 0.5]), ([], [0.5])):
        with pytest.raises(ValueError, match="^strengths must be 1-d arrays of one length"):
            channel_weights(ChannelKind.DEPOLARIZING, *pair)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_polynomial_terms_equal_the_kraus_sum(kind, side):
    # E_g(rho) = u T_u + v T_v + s T_s with the weight rows (u, v[, s]), for
    # arbitrary states, against the direct Kraus sum.
    rng = np.random.default_rng(15)
    rho = np.array([random_density_matrix(rng) for _ in range(4)])
    g = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    terms = channel_terms(kind, side, rho)
    w = channel_weights(kind, g, g)[list(Side).index(side)]
    assert w.shape == (len(g), len(terms)) == (len(g), 3 if kind is ChannelKind.DEPHASING else 2)
    got = np.einsum("nt,t...->n...", w, terms)
    want = apply_channel(kraus_operators(kind, side, g)[:, None], rho[None])
    assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_weight_polynomials_in_y_give_the_weight_rows(kind, side):
    # With 1 - gamma = y^k, the pair weight rows of a sweep are polynomials
    # in y: k = 2 for dephasing, whose s = sqrt(1 - gamma) is y itself, else
    # k = 1.  Each cell in which this side is active, at random y and at
    # both ends, against the rows of channel_weights at 1 - y^k.  The
    # polynomials come times m_qubit m_qutrit, with integer coefficients.
    y = np.concatenate([[0.0, 1.0], np.random.default_rng(23).uniform(0.0, 1.0, 20)])
    own = Mode.QUBIT_ONLY if side is Side.QUBIT else Mode.QUTRIT_ONLY
    for mode in (Mode.MULTI_LOCAL, own):
        w, k = _weights_in_y(kind, mode)
        assert k == (2 if kind is ChannelKind.DEPHASING else 1)
        assert np.array_equal(w, np.rint(w))
        w = w / _integer_rows(kind)[1]
        wa, wb = channel_weights(kind, *sweep_strengths(mode, 1.0 - y**k))
        want = (wb[:, :, None] * wa[:, None, :]).reshape(len(y), -1)
        got = np.vander(y, len(w), increasing=True) @ w
        assert np.abs(got - want).max() < 1e-15, mode
