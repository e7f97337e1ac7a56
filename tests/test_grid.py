"""The gamma-grid path against the one-point path it generalizes and
against the direct Kraus sum it tabulates, and the chunks in which a sweep
evolves its grid."""

import numpy as np
import pytest

from qqdyn import (
    CANONICAL_POINTS,
    ChannelKind,
    ChannelScenario,
    Mode,
    Side,
    StateParams,
    apply_channel,
    coherence_l1,
    evolve,
    evolve_grid,
    negativity_numeric,
    random_entangled_params,
    run_sweep,
)
from qqdyn import channels, evolution, sweep
from qqdyn.channels import kraus_operators
from qqdyn.evolution import sweep_strengths
from qqdyn.linalg import from_blocks
from qqdyn.states import check_density, initial_state
from qqdyn.sweep import GRID_CHUNK

CELLS = [(kind, mode) for kind in ChannelKind for mode in Mode]
#: An interior point, an a = 0 point and the a = 0 corner (0, 1).
POINTS = [StateParams(0.05, 0.6), StateParams.a_zero(4.0 / 30.0), StateParams(0.0, 1.0)]
#: A sweep grid inside one chunk, grids one short of, at and one past four
#: whole chunks, and the default 513 points.
GRID_SIZES = (2, 4 * GRID_CHUNK - 1, 4 * GRID_CHUNK, 4 * GRID_CHUNK + 1, 513)
#: A stack member in the middle of a chunk's worth of members.
MEMBER = GRID_CHUNK // 2 + 3


@pytest.mark.parametrize("kind, mode", CELLS, ids=[f"{k.value}-{m.value}" for k, m in CELLS])
def test_sweep_columns_equal_one_point_evaluations(kind, mode):
    for p in POINTS:
        reference = {}
        for steps in GRID_SIZES if p is POINTS[0] else GRID_SIZES[:-1]:
            for row in run_sweep(kind, mode, p, steps=steps).rows:
                if row.gamma not in reference:
                    state = evolve(ChannelScenario.at(kind, mode, row.gamma), p)
                    reference[row.gamma] = (negativity_numeric(state).value, coherence_l1(state))
                negativity, coherence = reference[row.gamma]
                assert abs(row.negativity - negativity) <= 1e-15, (p, steps, row.gamma)
                assert abs(row.coherence - coherence) <= 1e-15, (p, steps, row.gamma)


def test_run_sweep_evolves_its_grid_in_chunks_in_order(monkeypatch):
    # Chunks bound a sweep's memory for any grid length: run_sweep evolves
    # consecutive slices of its grid, one evolve_grid call each.
    calls = []

    def recording(kind, params, gamma_qubit, gamma_qutrit):
        calls.append((gamma_qubit, gamma_qutrit))
        return evolve_grid(kind, params, gamma_qubit, gamma_qutrit)

    monkeypatch.setattr(sweep, "evolve_grid", recording)
    steps = 2 * GRID_CHUNK + 3
    for mode in Mode:
        calls.clear()
        rows = run_sweep(ChannelKind.DEPOLARIZING, mode, POINTS[0], steps=steps, esd=False).rows
        assert [len(ga) for ga, _ in calls] == [GRID_CHUNK, GRID_CHUNK, 3], mode
        ga, gb = sweep_strengths(mode, [row.gamma for row in rows])
        assert np.array_equal(np.concatenate([a for a, _ in calls]), ga), mode
        assert np.array_equal(np.concatenate([b for _, b in calls]), gb), mode


def test_grid_members_equal_one_point_evolutions():
    g = np.linspace(0.0, 1.0, 2 * GRID_CHUNK + 3)
    states = from_blocks(evolve_grid(ChannelKind.DEPOLARIZING, POINTS[0], g, g[::-1]))
    assert states.shape == (len(g), 6, 6)
    for i in (0, GRID_CHUNK - 1, GRID_CHUNK, len(g) - 1):
        sc = ChannelScenario(ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL, g[i], g[::-1][i])
        assert np.array_equal(states[i], evolve(sc, POINTS[0]).matrix), i


def test_each_call_is_one_fresh_buffer_certified_once(monkeypatch):
    g = np.linspace(0.0, 1.0, 2 * GRID_CHUNK + 3)
    expected = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[::-1]).copy()
    certified, diagnosed = [], []
    certify = evolution._certified

    def counting(blocks, transposed):
        certified.append(len(blocks))
        return certify(blocks, transposed)

    monkeypatch.setattr(evolution, "_certified", counting)
    monkeypatch.setattr(evolution, "check_density", diagnosed.append)
    first = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[::-1])
    second = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[::-1])
    # The initial state and every evolved state in one certificate per call;
    # healthy states are never diagnosed.
    assert certified == [1 + len(g)] * 2 and diagnosed == []
    # No call shares its buffer with another.
    first[:] = np.nan
    assert np.array_equal(second, expected)


def test_grid_rejects_out_of_range_strength_in_any_chunk():
    g = np.full(GRID_CHUNK + 5, 0.5)
    g[GRID_CHUNK + 2] = 1.5
    with pytest.raises(ValueError, match="gamma must lie in"):
        evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g)
    with pytest.raises(ValueError, match="1-d arrays of one length"):
        evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[:-1])


def _stack_with_bad_member(bad: np.ndarray) -> np.ndarray:
    g = np.linspace(0.0, 1.0, GRID_CHUNK)
    states = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g)
    states = from_blocks(states).astype(complex)
    states[MEMBER] = bad
    return states


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.diag([1.5, -0.5, 0, 0, 0, 0]).astype(complex), "not positive semidefinite"),
        (np.eye(6, k=1) * 1e-6 + np.eye(6) / 6, "not Hermitian"),
        (np.eye(6) / 3, "trace must be 1"),
        (np.full((6, 6), np.nan), "NaN or Inf"),
    ],
    ids=["non-psd", "non-hermitian", "trace", "nan"],
)
def test_stack_with_one_bad_member_mid_chunk_is_rejected(bad, message):
    states = _stack_with_bad_member(bad.astype(complex))
    with pytest.raises(ValueError, match=f"{message}.* in stack member {MEMBER}$"):
        check_density(states)
    # The direct Kraus route revalidates too: an identity channel (gamma = 0)
    # passes the bad member through and the check catches it.
    identity = kraus_operators(ChannelKind.DEPOLARIZING, Side.QUTRIT, np.zeros(GRID_CHUNK))
    with pytest.raises(ValueError, match=f"{message}.* in stack member {MEMBER}$"):
        apply_channel(identity, states)
    # Without the bad member the same stack passes.
    check_density(np.delete(states, MEMBER, axis=0))


def _block_member(even, odd):
    return np.array([even, odd], dtype=float)


@pytest.mark.parametrize(
    "bad, message",
    [
        (_block_member(np.diag([1.5, -0.5, 0.0]), np.zeros((3, 3))), "not positive semidefinite"),
        (_block_member(np.eye(3, k=1) * 1e-6 + np.eye(3) / 6, np.eye(3) / 6), "not Hermitian"),
        (_block_member(np.eye(3) / 3, np.eye(3) / 3), "trace must be 1"),
        (_block_member(np.full((3, 3), np.nan), np.eye(3) / 6), "NaN or Inf"),
    ],
    ids=["non-psd", "non-symmetric", "trace", "nan"],
)
def test_block_stack_with_one_bad_member_mid_chunk_is_rejected(bad, message):
    g = np.linspace(0.0, 1.0, GRID_CHUNK)
    states = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g).copy()
    states[MEMBER] = bad
    with pytest.raises(ValueError, match=f"{message}.* in stack member {MEMBER}$"):
        check_density(states)
    # Without the bad member the same stack passes.
    check_density(np.delete(states, MEMBER, axis=0))


@pytest.mark.parametrize("corruption", ["breaks-symmetry", "imaginary"])
def test_corrupted_table_term_fails_the_import_certificate(corruption, monkeypatch):
    kind = ChannelKind.DEPOLARIZING
    assert np.array_equal(evolution._basis_table(kind), evolution._BASIS_TABLES[kind])
    terms = channels.channel_terms

    def corrupted(kind, side, rho):
        t = terms(kind, side, rho)
        if side is Side.QUTRIT:
            # One term, kept Hermitian; the imaginary part also keeps S.
            if corruption == "breaks-symmetry":
                t[1, ..., 0, 1] += 1e-14
                t[1, ..., 1, 0] += 1e-14
            else:
                t[1, ..., 0, 1] += 1e-14j
                t[1, ..., 1, 0] -= 1e-14j
                t[1, ..., 4, 3] += 1e-14j
                t[1, ..., 3, 4] -= 1e-14j
        return t

    monkeypatch.setattr(evolution, "channel_terms", corrupted)
    with pytest.raises(ValueError, match="does not commute with S or is not real: defect 1.0"):
        evolution._basis_table(kind)


#: Where a corrupted term of both sides shows in a grid of two chunks' worth
#: of strengths, all zero but the listed ones: (the (qutrit, qubit) weights
#: of the corrupted terms, 0 for u and 1 for v, {grid index: (gamma_qubit,
#: gamma_qutrit)}, the member named).  A v weight vanishes at strength zero,
#: so each corrupted term enters only the listed members.
TERM_CORRUPTIONS = {
    "multilocal": (((1, 1),), {GRID_CHUNK + MEMBER: (0.5, 0.5)}, GRID_CHUNK + MEMBER),
    "qubitonly": (((0, 1),), {GRID_CHUNK + MEMBER: (0.5, 0.0)}, GRID_CHUNK + MEMBER),
    "qutritonly": (((1, 0),), {GRID_CHUNK + MEMBER: (0.0, 0.5)}, GRID_CHUNK + MEMBER),
    # Both members fail; the first in grid order is named.
    "first-of-two": (
        ((0, 1), (1, 0)), {GRID_CHUNK + 1: (0.0, 0.5), GRID_CHUNK + MEMBER: (0.5, 0.0)}, GRID_CHUNK + 1
    ),
}


@pytest.mark.parametrize("case", list(TERM_CORRUPTIONS))
def test_corrupted_term_is_named_with_its_member(case, monkeypatch):
    kind = ChannelKind.DEPOLARIZING
    ta = channels._SHAPES[kind, Side.QUBIT].terms
    corrupted = evolution._BASIS_TABLES[kind].copy()
    terms, strengths, member = TERM_CORRUPTIONS[case]
    for b, a in terms:
        # The first diagonal entry of the term's even block, in every basis
        # state: the trace of each state it enters moves by its weight.
        corrupted[:, (b * ta + a) * evolution._BLOCK_SIZE] += 1e-3
    monkeypatch.setitem(evolution._BASIS_TABLES, kind, corrupted)
    ga, gb = np.zeros((2, 2 * GRID_CHUNK))
    for i, (a, b) in strengths.items():
        ga[i], gb[i] = a, b
    with pytest.raises(ValueError, match=f"^trace must be 1, got .* in stack member {member}$"):
        evolve_grid(kind, POINTS[0], ga, gb)


def test_corrupted_initial_state_is_named_without_a_member(monkeypatch):
    monkeypatch.setattr(evolution, "_FAMILY_BLOCKS", 2.0 * evolution._FAMILY_BLOCKS)
    g = np.full(GRID_CHUNK + 1, 0.5)
    for ga, gb in ((g, g), (g, 0 * g), (0 * g, 0 * g), ([], [])):
        with pytest.raises(ValueError, match=r"^trace must be 1, got [0-9.]+$"):
            evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], ga, gb)


def _kraus_reference(kind, p, ga, gb):
    """The direct Kraus route: both channels' operator sums, in turn."""
    rho = apply_channel(kraus_operators(kind, Side.QUBIT, ga), initial_state(p).matrix)
    return apply_channel(kraus_operators(kind, Side.QUTRIT, gb), rho)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_tables_match_the_direct_kraus_sum(kind):
    rng = np.random.default_rng(20261018)
    points = list(CANONICAL_POINTS) + random_entangled_params(rng, 6)
    diagonal = np.linspace(0.0, 1.0, 129)
    for p in points:
        for mode in Mode:
            ga, gb = sweep_strengths(mode, diagonal)
            states = from_blocks(evolve_grid(kind, p, ga, gb))
            assert np.abs(states - _kraus_reference(kind, p, ga, gb)).max() <= 1e-15, (p, mode)
        ga, gb = rng.uniform(size=(2, 2 * GRID_CHUNK + 7))
        states = from_blocks(evolve_grid(kind, p, ga, gb))
        assert np.abs(states - _kraus_reference(kind, p, ga, gb)).max() <= 1e-15, p


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_zero_strength_is_the_identity_weight_row(kind, monkeypatch):
    g = np.linspace(0.0, 1.0, GRID_CHUNK + 5)
    zero = np.zeros_like(g)
    rho = initial_state(POINTS[0]).matrix
    calls, weighted = [], []

    def recording(kind, gamma_qubit, gamma_qutrit):
        w = channels.channel_weights(kind, gamma_qubit, gamma_qutrit)
        calls.append(len(w[0]))
        for side, gamma, rows in zip(Side, (gamma_qubit, gamma_qutrit), w):
            weighted.append((side, rows[np.asarray(gamma) == 0.0]))
        return w

    monkeypatch.setattr(evolution, "channel_weights", recording)
    for mode in (Mode.QUBIT_ONLY, Mode.QUTRIT_ONLY):
        ga, gb = sweep_strengths(mode, g)
        calls.clear()
        weighted.clear()
        states = from_blocks(evolve_grid(kind, POINTS[0], ga, gb))
        # One call weights both sides, a zero strength by the identity row
        # (u, v[, s]) = (1, 0[, 1]).
        assert calls == [len(g)], mode
        assert [side for side, _ in weighted] == [Side.QUBIT, Side.QUTRIT], mode
        for side, rows in weighted:
            identity = [1.0, 0.0, 1.0][: channels._SHAPES[kind, side].terms]
            assert (rows == identity).all(), (mode, side)
        idle = Side.QUTRIT if mode is Mode.QUBIT_ONLY else Side.QUBIT
        assert sum(len(rows) for side, rows in weighted if side is idle) == len(g), mode
        # The direct route applies both channels, the idle one as the
        # identity at gamma = 0; the tables re-associate the sums, which
        # changes last bits only.
        assert np.abs(states - _kraus_reference(kind, POINTS[0], ga, gb)).max() <= 1e-15, mode
    # With both sides at zero the grid yields the initial state: exactly for
    # the mixed-unitary kinds, whose u terms are the identity map, and to
    # rounding for dephasing, whose identity is u T_u + s T_s.
    states = evolve_grid(kind, POINTS[0], zero[:3], zero[:3])
    tol = 1e-16 if kind is ChannelKind.DEPHASING else 0.0
    assert np.abs(from_blocks(states) - rho).max() <= tol


def test_corrupted_coefficient_mid_chunk_breaks_completeness(monkeypatch):
    kind = ChannelKind.DEPOLARIZING
    weighting = channels._WEIGHTINGS[kind]
    zero = np.zeros(GRID_CHUNK)
    # One side's strengths, zero except in the middle of the grid.
    middle = np.where(np.arange(GRID_CHUNK) == MEMBER, 0.5, 0.0)
    for i, strengths in enumerate(((middle, zero), (zero, middle))):
        evolve_grid(kind, POINTS[0], *strengths)
        # A corrupted p of u = 1 - p gamma / m shows only where gamma = 0.5.
        p = weighting.p.copy()
        p[i] *= 1.0 + 1e-9
        # A corrupted Gram coefficient of v = gamma / m shows there too.
        grams = weighting.grams.copy()
        grams[i, 1, 7] += 1e-9
        for corrupted in (weighting._replace(p=p), weighting._replace(grams=grams)):
            with monkeypatch.context() as m:
                m.setitem(channels._WEIGHTINGS, kind, corrupted)
                with pytest.raises(ValueError, match="completeness violated"):
                    evolve_grid(kind, POINTS[0], *strengths)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_defects_of_the_two_sides_cannot_cancel(kind, monkeypatch):
    # Each side is certified against its own Gram table: scaled by 1 + 1e-9
    # on the qubit side and by its inverse on the qutrit side, whose product
    # is the identity, the call still fails.
    weighting = channels._WEIGHTINGS[kind]
    g = np.array([0.0, 0.5, 1.0])
    scale = np.array([1.0 + 1e-9, 1.0 / (1.0 + 1e-9)])[:, None, None]
    monkeypatch.setitem(channels._WEIGHTINGS, kind, weighting._replace(grams=weighting.grams * scale))
    with pytest.raises(ValueError, match="completeness violated"):
        channels.channel_weights(kind, g, g)
    with pytest.raises(ValueError, match="completeness violated"):
        evolve_grid(kind, POINTS[0], g, g)
