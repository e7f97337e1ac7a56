import re

import numpy as np
import pytest
from pytest import approx

from qqdyn import (
    ChannelKind,
    ChannelScenario,
    Mode,
    RAW_FORM_MISMATCHES,
    Side,
    StateParams,
    analytic_evolved,
    coherence_l1,
    evolve,
    evolve_grid,
    initial_state,
    random_entangled_params,
)

from helpers import apply_channel, kraus_operators, qutrit_marginal

POINTS = [StateParams(0.05, 0.6), StateParams(0.0, 1.0), StateParams(0.1, 0.35)]
GAMMAS = np.linspace(0.0, 1.0, 5)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ChannelScenario(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, 0.3, 0.1)
    with pytest.raises(ValueError):
        ChannelScenario(ChannelKind.DEPHASING, Mode.QUTRIT_ONLY, 0.1, 0.3)
    with pytest.raises(ValueError):
        ChannelScenario(ChannelKind.DEPHASING, Mode.MULTI_LOCAL, 1.2, 0.0)

    sc = ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, 0.4)
    assert sc.gamma_qubit == 0.0 and sc.gamma_qutrit == 0.4
    sc = ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, 0.4)
    assert sc.gamma_qubit == sc.gamma_qutrit == 0.4


def test_zero_strength_scenario_returns_initial_state():
    for kind in ChannelKind:
        for p in POINTS:
            out = evolve(ChannelScenario.at(kind, Mode.MULTI_LOCAL, 0.0), p)
            assert np.abs(out.matrix - initial_state(p).matrix).max() < 1e-14


def _assert_array_call_matches_float_calls(kind, p, corrected):
    # One call on the strength grid equals the per-pair float calls byte for
    # byte, and a float call gives one 6x6 matrix.
    ga, gb = np.meshgrid(GAMMAS, GAMMAS, indexing="ij")
    stack = analytic_evolved(kind, p, ga, gb, corrected=corrected)
    assert stack.shape == (len(GAMMAS), len(GAMMAS), 6, 6)
    for i, j in np.ndindex(ga.shape):
        one = analytic_evolved(kind, p, float(ga[i, j]), float(gb[i, j]), corrected=corrected)
        assert one.shape == (6, 6)
        assert one.tobytes() == stack[i, j].tobytes()
    with pytest.raises(ValueError, match="equal in shape"):
        analytic_evolved(kind, p, ga, gb[0], corrected=corrected)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_corrected_closed_form_matches_channels(kind):
    for p in POINTS:
        for ga in GAMMAS:
            for gb in GAMMAS:
                got = evolve(ChannelScenario(kind, Mode.MULTI_LOCAL, float(ga), float(gb)), p).matrix
                want = analytic_evolved(kind, p, float(ga), float(gb))
                assert np.abs(got - want).max() < 1e-12
        _assert_array_call_matches_float_calls(kind, p, corrected=True)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_raw_closed_form_mismatch_positions(kind):
    expected = set(RAW_FORM_MISMATCHES.get(kind, ()))
    seen = set()
    for p in POINTS:
        for ga in GAMMAS:
            for gb in GAMMAS:
                got = evolve(ChannelScenario(kind, Mode.MULTI_LOCAL, float(ga), float(gb)), p).matrix
                raw = analytic_evolved(kind, p, float(ga), float(gb), corrected=False)
                diff = np.abs(got - raw)
                seen.update((int(i), int(j)) for i, j in zip(*np.where(diff > 1e-12)))
        _assert_array_call_matches_float_calls(kind, p, corrected=False)
    assert seen <= expected
    if expected:
        assert seen == expected  # mismatches show up once both strengths act


def test_measured_bit_phase_flip_entry():
    # At (b,c,ga,gb) = (0.05, 0.6, 0.3, 0.7) the channels give
    # (b-c)*ga*gb/24 at entry (1,5), half of the raw coefficient.
    p = StateParams(0.05, 0.6)
    got = evolve(ChannelScenario(ChannelKind.BIT_PHASE_FLIP, Mode.MULTI_LOCAL, 0.3, 0.7), p).matrix
    assert got[1, 5] == approx(-0.0048125, abs=1e-15)
    raw = analytic_evolved(ChannelKind.BIT_PHASE_FLIP, p, 0.3, 0.7, corrected=False)
    assert raw[1, 5] == approx(2 * got[1, 5], abs=1e-15)


def test_measured_depolarizing_entry():
    # The surviving coherence decays as (1-ga)(1-gb), never flipping sign.
    p = StateParams(0.05, 0.6)
    got = evolve(ChannelScenario(ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL, 0.3, 0.7), p).matrix
    assert got[1, 3] == approx((p.b - p.c) * 0.7 * 0.3 / 2, abs=1e-15)
    assert got[1, 3] == approx(-0.05775, abs=1e-15)


def test_raw_depolarizing_form_can_be_unphysical():
    raw = analytic_evolved(ChannelKind.DEPOLARIZING, StateParams(0.0, 1.0), 0.0, 1.0, corrected=False)
    assert np.linalg.eigvalsh(raw).min() < -0.01


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_side_applications_commute(kind):
    p = StateParams(0.05, 0.6)
    rho = initial_state(p).matrix
    (qubit,) = kraus_operators(kind, Side.QUBIT, [0.3])
    (qutrit,) = kraus_operators(kind, Side.QUTRIT, [0.7])
    ab = apply_channel(qutrit, apply_channel(qubit, rho))
    ba = apply_channel(qubit, apply_channel(qutrit, rho))
    assert np.abs(ab - ba).max() < 1e-13


@pytest.mark.parametrize("kind", [ChannelKind.DEPHASING, ChannelKind.PHASE_FLIP])
def test_pure_decoherence_keeps_populations(kind):
    p = StateParams(0.05, 0.6)
    base = np.diag(initial_state(p).matrix)
    for g in GAMMAS:
        out = evolve(ChannelScenario.at(kind, Mode.MULTI_LOCAL, float(g)), p)
        assert np.diag(out.matrix) == approx(base, abs=1e-14)


def test_full_qutrit_depolarizing_twirls_family_marginal():
    p = StateParams(0.05, 0.6)
    out = evolve(ChannelScenario.at(ChannelKind.DEPOLARIZING, Mode.QUTRIT_ONLY, 1.0), p)
    assert qutrit_marginal(out.matrix) == approx(np.eye(3) / 3, abs=1e-12)


def _compose_strengths(g1, g2):
    return 1.0 - (1.0 - g1) * (1.0 - g2)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("side", list(Side))
def test_strength_composition_semigroup(kind, side):
    # Applying the channel twice equals one application at the composed
    # strength, except on the bit-phase-flip qutrit side where the operator
    # products leave the Kraus family: that case is a documented non-property.
    rng = np.random.default_rng(14)
    p = random_entangled_params(rng, 1)[0]
    rho = initial_state(p).matrix
    g1, g2 = 0.35, 0.55
    ops = kraus_operators(kind, side, [g1, g2, _compose_strengths(g1, g2)])
    two = apply_channel(ops[1], apply_channel(ops[0], rho))
    one = apply_channel(ops[2], rho)
    err = np.abs(two - one).max()
    if kind is ChannelKind.BIT_PHASE_FLIP and side is Side.QUTRIT:
        assert err > 1e-3
    else:
        assert err < 1e-12


def test_coherence_values():
    p = StateParams(0.05, 0.6)
    assert coherence_l1(np.diag([1 / 6] * 6)) == approx(0.0)
    assert coherence_l1(initial_state(p)) == approx(abs(p.b - p.c))
    full = evolve(ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, 1.0), p)
    assert coherence_l1(full) == approx(abs(p.b - p.c), abs=1e-12)


def test_coherence_rejects_anything_but_6x6_matrices():
    # A block stack as evolve_grid returns it, and a 3x3 matrix.
    blocks = evolve_grid(ChannelKind.DEPOLARIZING, POINTS[0], GAMMAS, GAMMAS)
    for m in (blocks, np.eye(3) / 3):
        message = re.escape(f"expected 6x6 matrices, got shape {m.shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            coherence_l1(m)


def test_evolve_returns_a_density_matrix_of_unit_trace():
    from qqdyn import DensityMatrix

    p = StateParams(0.05, 0.6)
    out = evolve(ChannelScenario.at(ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL, 0.9), p)
    assert isinstance(out, DensityMatrix)
    assert out.matrix.trace() == approx(1.0, abs=1e-12)
