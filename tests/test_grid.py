"""The gamma-grid path against the one-point path it generalizes and
against the direct Kraus sum it tabulates, and the pieces in which a sweep
evolves its grid."""

from dataclasses import replace

import numpy as np
import pytest

from qqdyn import (
    CANONICAL_POINTS,
    ChannelKind,
    ChannelScenario,
    Mode,
    Side,
    StateParams,
    coherence_l1,
    evolve,
    evolve_grid,
    negativity_numeric,
    random_entangled_params,
    run_sweep,
)
from qqdyn import channels, evolution, states, sweep
from qqdyn.evolution import sweep_strengths
from qqdyn.linalg import from_blocks
from qqdyn.states import initial_state

from helpers import apply_channel, kraus_operators

CELLS = [(kind, mode) for kind in ChannelKind for mode in Mode]
#: An interior point, an a = 0 point and the a = 0 corner (0, 1).
POINTS = [StateParams(0.05, 0.6), StateParams.a_zero(4.0 / 30.0), StateParams(0.0, 1.0)]
#: The piece size that the tests of a sweep's pieces set in place of
#: ``sweep.GRID_CHUNK``, so that their grids cross piece boundaries and
#: their cost does not follow the production piece size.
PIECE = 32
#: Sweep grids as (piece size, steps): a grid inside one piece, grids one
#: short of, at and one past four whole pieces, and the default 513 points
#: in the pieces of a default sweep.
GRIDS = ((PIECE, 2), (PIECE, 4 * PIECE - 1), (PIECE, 4 * PIECE), (PIECE, 4 * PIECE + 1),
         (sweep.GRID_CHUNK, 513))
#: The size of the stacks that the tests of ``evolve_grid`` build.
STACK = 128


@pytest.mark.parametrize("kind, mode", CELLS, ids=[f"{k.value}-{m.value}" for k, m in CELLS])
def test_sweep_columns_equal_one_point_evaluations(kind, mode, monkeypatch):
    for p in POINTS:
        reference = {}
        for piece, steps in GRIDS if p is POINTS[0] else GRIDS[:-1]:
            monkeypatch.setattr(sweep, "GRID_CHUNK", piece)
            for row in run_sweep(kind, mode, p, steps=steps).rows:
                if row.gamma not in reference:
                    state = evolve(ChannelScenario.at(kind, mode, row.gamma), p)
                    reference[row.gamma] = (negativity_numeric(state).value, coherence_l1(state))
                negativity, coherence = reference[row.gamma]
                assert abs(row.negativity - negativity) <= 1e-15, (p, steps, row.gamma)
                assert abs(row.coherence - coherence) <= 1e-15, (p, steps, row.gamma)


def test_run_sweep_evolves_its_grid_in_chunks_in_order(monkeypatch):
    # Pieces bound a sweep's memory for any grid length: run_sweep evolves
    # consecutive slices of its grid, one evolve_grid call each.
    calls = []

    def recording(kind, params, gamma_qubit, gamma_qutrit):
        calls.append((gamma_qubit, gamma_qutrit))
        return evolve_grid(kind, params, gamma_qubit, gamma_qutrit)

    monkeypatch.setattr(sweep, "evolve_grid", recording)
    # A default sweep is one piece.
    run_sweep(ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL, POINTS[0], esd=False)
    assert [len(ga) for ga, _ in calls] == [513]
    monkeypatch.setattr(sweep, "GRID_CHUNK", PIECE)
    for mode in Mode:
        calls.clear()
        rows = run_sweep(ChannelKind.DEPOLARIZING, mode, POINTS[0], steps=2 * PIECE + 3,
                         esd=False).rows
        assert [len(ga) for ga, _ in calls] == [PIECE, PIECE, 3], mode
        ga, gb = sweep_strengths(mode, [row.gamma for row in rows])
        assert np.array_equal(np.concatenate([a for a, _ in calls]), ga), mode
        assert np.array_equal(np.concatenate([b for _, b in calls]), gb), mode


def test_grid_members_equal_one_point_evolutions():
    g = np.linspace(0.0, 1.0, 2 * STACK + 3)
    states = from_blocks(evolve_grid(ChannelKind.DEPOLARIZING, POINTS[0], g, g[::-1]))
    assert states.shape == (len(g), 6, 6)
    for i in (0, STACK - 1, STACK, len(g) - 1):
        sc = ChannelScenario(ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL, g[i], g[::-1][i])
        assert np.array_equal(states[i], evolve(sc, POINTS[0]).matrix), i


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_empty_strengths_give_an_empty_stack(kind):
    # channel_weights takes an empty pair, and so do the calls on stacks.
    states = evolve_grid(kind, POINTS[0], [], [])
    assert states.shape == (0, 2, 3, 3) and states.dtype == float
    assert negativity_numeric(states).value.shape == (0,)
    assert coherence_l1(from_blocks(states)).shape == (0,)


def test_each_call_is_one_fresh_array_and_checks_no_state(monkeypatch):
    g = np.linspace(0.0, 1.0, 2 * STACK + 3)
    expected = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[::-1]).copy()
    checked = []
    monkeypatch.setattr(states, "check_density", checked.append)
    first = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[::-1])
    second = evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[::-1])
    # The import certified the tables; a call checks no state.
    assert checked == []
    # No call shares its array with another.
    first[:] = np.nan
    assert np.array_equal(second, expected)


def test_grid_rejects_out_of_range_strength_in_any_chunk():
    g = np.full(STACK + 5, 0.5)
    g[STACK + 2] = 1.5
    with pytest.raises(ValueError, match="gamma must lie in"):
        evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g)
    with pytest.raises(ValueError, match="1-d arrays of one length"):
        evolve_grid(ChannelKind.BIT_FLIP, POINTS[0], g, g[:-1])


#: Corruptions of one term, kept Hermitian, as (the entries (r, c) that
#: move, each with (c, r), the change to 6 times the term there, the
#: message): on the grid of integers over 6 but breaking S; or off it, in
#: the imaginary part or in the real part, either keeping S.
TABLE_CORRUPTIONS = {
    "breaks-symmetry": ([(0, 1)], 1.0, "does not commute with S or is not real"),
    "imaginary": ([(0, 1), (4, 3)], 1j, r"off the grid of integers over 6 by 1\.000e\+00$"),
    "off-grid": ([(0, 1), (4, 3)], 1e-6, r"off the grid of integers over 6 by 1\.000e-06$"),
}


@pytest.mark.parametrize("corruption", list(TABLE_CORRUPTIONS))
def test_corrupted_table_term_fails_the_import_certificate(corruption, monkeypatch):
    kind = ChannelKind.DEPOLARIZING
    assert np.array_equal(evolution._basis_table(kind), evolution._BASIS_INTEGERS[kind])
    assert np.array_equal(evolution._BASIS_INTEGERS[kind] / 6.0, evolution._BASIS_TABLES[kind])
    terms = channels.channel_terms
    entries, change, message = TABLE_CORRUPTIONS[corruption]

    def corrupted(kind, side, rho):
        t = terms(kind, side, rho)
        if side is Side.QUTRIT:
            for r, c in entries:
                t[1, ..., r, c] += change / 6.0
                t[1, ..., c, r] += np.conj(change) / 6.0
        return t

    monkeypatch.setattr(evolution, "channel_terms", corrupted)
    with pytest.raises(ValueError, match=message):
        evolution._basis_table(kind)


#: The strength corners whose images ``evolution._basis_table`` checks, in
#: its order, as (gamma_qubit, gamma_qutrit).
CORNERS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
#: Where a corrupted term of both sides shows among the images of the basis
#: states at the corners: (the (qutrit, qubit) weights of the corrupted
#: terms, 0 for u and 1 for v, the member named, (basis state, corner)).
#: A v weight vanishes at strength zero, so each corrupted term enters only
#: the corners where its v sides are at strength 1, and every basis state.
TERM_CORRUPTIONS = {
    "multilocal": (((1, 1),), (0, CORNERS.index((1.0, 1.0)))),
    "qubitonly": (((0, 1),), (0, CORNERS.index((1.0, 0.0)))),
    "qutritonly": (((1, 0),), (0, CORNERS.index((0.0, 1.0)))),
    # Both corners fail; the first in corner order is named.
    "first-of-two": (((0, 1), (1, 0)), (0, CORNERS.index((1.0, 0.0)))),
}


@pytest.mark.parametrize("case", list(TERM_CORRUPTIONS))
def test_corrupted_term_is_named_with_its_member(case, monkeypatch):
    kind = ChannelKind.DEPOLARIZING
    terms = channels.channel_terms
    corrupted_terms, member = TERM_CORRUPTIONS[case]
    # The first diagonal entry of the even block, a third of it: S-symmetric,
    # real and on the grid of integers over 6, so only the density
    # certificate can see it.
    even_00 = from_blocks(np.eye(18)[0].reshape(2, 3, 3)) / 3.0

    def corrupted(kind, side, rho):
        t = terms(kind, side, rho)
        if side is Side.QUTRIT:
            for b, a in corrupted_terms:
                # In every basis state: the trace of each image it enters
                # moves by its weight.
                t[b, a] += even_00
        return t

    monkeypatch.setattr(evolution, "channel_terms", corrupted)
    message = rf"^corner image trace must be 1, got .* in stack member \({member[0]}, {member[1]}\)$"
    with pytest.raises(ValueError, match=message):
        evolution._basis_table(kind)


def test_corrupted_family_basis_fails_the_import_certificate(monkeypatch):
    # The images at the corner (0, 0) are the basis states themselves: twice
    # the basis stays on the grid of integers over 6, half of it does not.
    doubled = r"^corner image trace must be 1, got 2\.0 in stack member \(0, 0\)$"
    for factor, message in ((2.0, doubled), (0.5, "off the grid of integers over 6")):
        monkeypatch.setattr(evolution, "FAMILY_BASIS", factor * states.FAMILY_BASIS)
        for kind in ChannelKind:
            with pytest.raises(ValueError, match=message):
                evolution._basis_table(kind)


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
        ga, gb = rng.uniform(size=(2, 263))
        states = from_blocks(evolve_grid(kind, p, ga, gb))
        assert np.abs(states - _kraus_reference(kind, p, ga, gb)).max() <= 1e-15, p


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_zero_strength_is_the_identity_weight_row(kind, monkeypatch):
    g = np.linspace(0.0, 1.0, STACK + 5)
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


def _corrupted_gram(monkeypatch, corruption):
    """Make ``channels._gram`` return ``corruption(side, gram)``."""
    gram = channels._gram
    monkeypatch.setattr(channels, "_gram", lambda kind, side: corruption(side, gram(kind, side)))


def test_corrupted_coefficient_breaks_completeness_at_import(monkeypatch):
    kind = ChannelKind.DEPOLARIZING
    channels._weighting(kind)
    for side in Side:
        shapes = channels._SHAPES[kind, side]
        with monkeypatch.context() as m:
            # A corrupted p of u = 1 - p gamma / m shows at gamma = 1.
            m.setitem(channels._SHAPES, (kind, side), replace(shapes, p=shapes.p * (1.0 + 1e-9)))
            with pytest.raises(ValueError, match="completeness violated"):
                channels._weighting(kind)
        with monkeypatch.context() as m:
            # A corrupted Gram coefficient of v = gamma / m shows there too.
            def corruption(s, gram, side=side):
                if s is side:
                    gram[1, 7] += 1e-9
                return gram

            _corrupted_gram(m, corruption)
            with pytest.raises(ValueError, match="completeness violated"):
                channels._weighting(kind)


def test_an_s_term_that_does_not_vanish_breaks_completeness_at_import(monkeypatch):
    # Moving 1e-9 from G_u to G_s keeps the Gram polynomial I6 at gamma = 0
    # (u = s = 1) and at gamma = 1 (u = s = 0), but not in between, where
    # s = sqrt(u) > u: only G_s = 0 makes the ends enough.
    kind = ChannelKind.DEPHASING

    def corruption(side, gram):
        gram[0, 0] -= 1e-9
        gram[2, 0] += 1e-9
        return gram

    _corrupted_gram(monkeypatch, corruption)
    with pytest.raises(ValueError, match="completeness violated: max deviation 1.000e-09"):
        channels._weighting(kind)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_defects_of_the_two_sides_cannot_cancel(kind, monkeypatch):
    # Each side is certified against its own Gram table: scaled by 1 + 1e-9
    # on the qubit side and by its inverse on the qutrit side, whose product
    # is the identity, the import certificate still fails.
    scale = {Side.QUBIT: 1.0 + 1e-9, Side.QUTRIT: 1.0 / (1.0 + 1e-9)}
    _corrupted_gram(monkeypatch, lambda side, gram: gram * scale[side])
    with pytest.raises(ValueError, match="completeness violated"):
        channels._weighting(kind)
