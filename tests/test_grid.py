"""The chunked gamma-grid path against the one-point path it generalizes
and against the direct Kraus sum it tabulates."""

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
from qqdyn import channels, evolution
from qqdyn.channels import kraus_operators
from qqdyn.evolution import GRID_CHUNK, sweep_strengths
from qqdyn.linalg import from_blocks
from qqdyn.states import check_density, initial_state

CELLS = [(kind, mode) for kind in ChannelKind for mode in Mode]
#: An interior point, an a = 0 point and the a = 0 corner (0, 1).
POINTS = [StateParams(0.05, 0.6), StateParams.a_zero(4.0 / 30.0), StateParams(0.0, 1.0)]
#: A grid inside one chunk, grids one short of, at and one past four whole
#: chunks, and the default 513 points.
GRID_SIZES = (2, 4 * GRID_CHUNK - 1, 4 * GRID_CHUNK, 4 * GRID_CHUNK + 1, 513)
#: A stack member in the middle of a chunk.
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


def test_grid_yields_chunks_in_order():
    g = np.linspace(0.0, 1.0, 2 * GRID_CHUNK + 3)
    chunks = list(evolve_grid(ChannelKind.DEPOLARIZING, POINTS[0], g, g[::-1]))
    assert [len(c) for c in chunks] == [GRID_CHUNK, GRID_CHUNK, 3]
    states = from_blocks(np.concatenate(chunks))
    for i in (0, GRID_CHUNK - 1, GRID_CHUNK, len(g) - 1):
        sc = ChannelScenario(ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL, g[i], g[::-1][i])
        assert np.array_equal(states[i], evolve(sc, POINTS[0]).matrix), i


def test_each_chunk_is_one_fresh_buffer_certified_once(monkeypatch):
    g = np.linspace(0.0, 1.0, 2 * GRID_CHUNK + 3)
    expected = [c.copy() for c in evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[::-1])]
    certified, diagnosed = [], []
    certify = evolution._certified

    def counting(blocks, transposed):
        certified.append(len(blocks))
        return certify(blocks, transposed)

    monkeypatch.setattr(evolution, "_certified", counting)
    monkeypatch.setattr(evolution, "check_density", lambda *stacks: diagnosed.append(stacks))
    chunks = list(evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[::-1]))
    # The initial state and both stages, in one certificate per chunk;
    # healthy chunks are never diagnosed.
    assert certified == [1 + 2 * GRID_CHUNK, 2 * GRID_CHUNK, 2 * 3] and diagnosed == []
    # No chunk shares its buffer with another.
    chunks[0][:] = np.nan
    for chunk, want in zip(chunks[1:], expected[1:]):
        assert np.array_equal(chunk, want)


def test_grid_rejects_out_of_range_strength_in_any_chunk():
    g = np.full(GRID_CHUNK + 5, 0.5)
    g[GRID_CHUNK + 2] = 1.5
    with pytest.raises(ValueError, match="gamma must lie in"):
        list(evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g))
    with pytest.raises(ValueError, match="equal in length"):
        list(evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[:-1]))


def _stack_with_bad_member(bad: np.ndarray) -> np.ndarray:
    g = np.linspace(0.0, 1.0, GRID_CHUNK)
    (states,) = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g)
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
    (states,) = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g)
    states = states.copy()
    states[MEMBER] = bad
    with pytest.raises(ValueError, match=f"{message}.* in stack member {MEMBER}$"):
        check_density(states)
    # Without the bad member the same stack passes.
    check_density(np.delete(states, MEMBER, axis=0))


@pytest.mark.parametrize("corruption", ["breaks-symmetry", "imaginary"])
def test_corrupted_table_term_fails_the_import_certificate(corruption, monkeypatch):
    kind = ChannelKind.DEPOLARIZING
    table, ta, tb = evolution._basis_table(kind)
    assert np.array_equal(table, evolution._BASIS_TABLES[kind][0])
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


#: Where a corrupted term first shows in a two-chunk grid: (terms corrupted
#: (0: qubit side, 1: qutrit side, 2: both sides; the first term of each),
#: {grid index: (gamma_qubit, gamma_qutrit)}).  A qubit-side term enters
#: only the state after the qubit side, since the table holds the terms of
#: both sides in their own right.
STAGE_CORRUPTIONS = {
    "after-qubit": ((0,), {GRID_CHUNK + MEMBER: (0.5, 0.5)}),
    "after-both": ((2,), {GRID_CHUNK + MEMBER: (0.5, 0.5)}),
    # The after-both stack fails at member 1 too, but the after-qubit stack
    # is diagnosed first.
    "after-qubit-first": ((0, 1), {GRID_CHUNK + 1: (0.0, 0.5), GRID_CHUNK + MEMBER: (0.5, 0.0)}),
}


@pytest.mark.parametrize("stage", list(STAGE_CORRUPTIONS))
def test_corrupted_stage_is_named_with_its_member(stage, monkeypatch):
    kind = ChannelKind.DEPOLARIZING
    table, ta, tb = evolution._BASIS_TABLES[kind]
    corrupted = table.copy()
    terms, strengths = STAGE_CORRUPTIONS[stage]
    for t in terms:
        # The first diagonal entry of the term's even block, in every basis
        # state: the trace of each state it enters moves by its weight.
        corrupted[:, (0, ta, ta + tb)[t] * evolution._BLOCK_SIZE] += 1e-3
    monkeypatch.setitem(evolution._BASIS_TABLES, kind, (corrupted, ta, tb))
    ga, gb = np.zeros((2, 2 * GRID_CHUNK))
    for i, (a, b) in strengths.items():
        ga[i], gb[i] = a, b
    chunks = evolve_grid(kind, POINTS[0], ga, gb)
    next(chunks)
    with pytest.raises(ValueError, match=f"^trace must be 1, got .* in stack member {MEMBER}$"):
        next(chunks)


def test_corrupted_initial_state_is_named_without_a_member(monkeypatch):
    monkeypatch.setattr(evolution, "_FAMILY_BLOCKS", 2.0 * evolution._FAMILY_BLOCKS)
    g = np.full(GRID_CHUNK + 1, 0.5)
    for ga, gb in ((g, g), (g, 0 * g), (0 * g, 0 * g), ([], [])):
        with pytest.raises(ValueError, match=r"^trace must be 1, got [0-9.]+$"):
            next(evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], ga, gb), None)


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
            states = from_blocks(np.concatenate(list(evolve_grid(kind, p, ga, gb))))
            assert np.abs(states - _kraus_reference(kind, p, ga, gb)).max() <= 1e-15, (p, mode)
        ga, gb = rng.uniform(size=(2, 2 * GRID_CHUNK + 7))
        states = from_blocks(np.concatenate(list(evolve_grid(kind, p, ga, gb))))
        assert np.abs(states - _kraus_reference(kind, p, ga, gb)).max() <= 1e-15, p


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_idle_side_is_skipped_without_changing_the_states(kind, monkeypatch):
    g = np.linspace(0.0, 1.0, GRID_CHUNK + 5)
    zero = np.zeros_like(g)
    rho = initial_state(POINTS[0]).matrix
    weighted = []

    def recording(kind, side, gamma):
        weighted.append(side)
        return channels.channel_weights(kind, side, gamma)

    monkeypatch.setattr(evolution, "channel_weights", recording)
    for mode, ga, gb, idle in ((Mode.QUBIT_ONLY, g, zero, Side.QUTRIT), (Mode.QUTRIT_ONLY, zero, g, Side.QUBIT)):
        weighted.clear()
        states = from_blocks(np.concatenate(list(evolve_grid(kind, POINTS[0], ga, gb))))
        assert idle not in weighted, mode
        # The direct route applies both channels, the idle one as the
        # identity at gamma = 0; the tables re-associate the sums, which
        # changes last bits only.
        assert np.abs(states - _kraus_reference(kind, POINTS[0], ga, gb)).max() <= 1e-15, mode
    # With both sides idle the grid yields copies of the initial state.
    (states,) = evolve_grid(kind, POINTS[0], zero[:3], zero[:3])
    assert np.array_equal(from_blocks(states), np.repeat(rho[None], 3, axis=0))


def test_corrupted_coefficient_mid_chunk_breaks_completeness(monkeypatch):
    kind, side = ChannelKind.DEPOLARIZING, Side.QUTRIT
    zero = np.zeros(GRID_CHUNK)
    # Qutrit-side strengths that are zero except in the middle of the chunk.
    gb = np.where(np.arange(GRID_CHUNK) == MEMBER, 0.5, 0.0)
    list(evolve_grid(kind, POINTS[0], zero, gb))
    weights = channels._KrausShapes.weights

    def corrupted_row(self, gamma):
        w = weights(self, gamma)
        w[MEMBER, 0] += 1e-9
        return w

    with monkeypatch.context() as m:
        m.setattr(channels._KrausShapes, "weights", corrupted_row)
        with pytest.raises(ValueError, match="completeness violated"):
            list(evolve_grid(kind, POINTS[0], zero, gb))
    # A corrupted Gram coefficient of v = gamma / m shows where gamma = 0.5.
    gram = channels._GRAMS[(kind, side)].copy()
    gram[1, 7] += 1e-9
    monkeypatch.setitem(channels._GRAMS, (kind, side), gram)
    with pytest.raises(ValueError, match="completeness violated"):
        list(evolve_grid(kind, POINTS[0], zero, gb))
