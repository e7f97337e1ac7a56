"""Evolution through the three noise scenarios, and closed-form evolved states.

A scenario is multi-local (independent noise on both subsystems), qubit-only,
or qutrit-only.  Every scenario is the product map E_qubit(gamma_qubit) x
E_qutrit(gamma_qutrit); a local one pins the other side's strength to zero,
where its channel is the identity, so every evolution runs the same code
path through both sides' channels.

The evolution is tabulated.  The family state is the convex mix
rho(0) = 2a (P_2 / 2) + 3b (B_3 / 3) + c |psi-><psi-| of three fixed basis
states (``states.FAMILY_BASIS``), and each side's channel is
u T_u + v T_v (+ s T_s for dephasing) in its squared Kraus weights
u = 1 - p gamma / m, v = gamma / m and in s = sqrt(u) (see ``channels``).
Every channel is linear, so the evolved state at any strength pair is a
weighted sum of fixed matrices.  For each kind, the terms of both sides
applied to each basis state are tabulated once at import.  Every entry of
every term is an integer over 6, so the import rounds 6 times each term
onto the integers, the one snap of the package, with a certificate that
no entry lay off them by more than rounding (:func:`_basis_table`).  Those
integers are the one source: the float table that a call mixes is them
over 6, and ``negativity`` derives the ESD invariants from them exactly.
Every term commutes with the symmetry S of ``linalg`` and is real, which
the import certifies exactly, so each is held as its two real symmetric
3x3 blocks, 18 reals instead of the 72 of a complex 6x6 matrix: at most 27
block pairs per kind, 11 kB for all five.  A call mixes them with the
point's weights (2a, 3b, c) into at most 9 term block pairs.

The import certifies the tables once, and no call checks a state again.
``channels`` certifies each side complete at every strength, and
:func:`_basis_table` certifies the images of the three basis states at the
four corners of the strength square exactly, in integers: symmetric
blocks, unit trace and e_1, e_2, e_3 >= 0 for each block.  For the four
mixed-unitary kinds the evolved state is bi-affine in (gamma_qubit,
gamma_qutrit), so it is a convex mix of those twelve certified images,
with the corners weighted by products of gamma and 1 - gamma and the basis
states by (2a, 3b, c).  Dephasing rests on its Kraus form: a complete
Kraus map takes a density matrix to a density matrix at every strength.

:func:`evolve_grid` evolves a point over arrays of strength pairs: one
``channel_weights`` call builds both sides' weight rows, and each member's
state is its pair weights times the term blocks.  A side at strength zero
needs no case of its own: its weight row is the identity.  States stay in
block form; ``linalg.from_blocks`` rebuilds the 6x6 product-basis matrix
where an output needs it.  ``sweep.run_sweep`` evolves a grid of any
length in pieces, so its memory stays bounded.  :func:`evolve` is the
one-point case of the same path, :func:`_mixed`, with its weights in Python
floats and without a second check of the strengths its ``ChannelScenario``
checked, and :func:`_sweep_basis` the
same mix in integers, with polynomial weights for each basis state, from
which ``negativity`` tabulates the ESD invariants once at import.  The
direct Kraus sum, the reference the tables are tested against, lives in
the tests (``tests/helpers.py``), since no library path needs it.

For each channel kind the evolved density matrix also has a closed form;
:func:`analytic_evolved` builds it directly from those expressions as an
independent oracle for the Kraus numerics, at one strength pair or over
strength arrays.  Two of the raw expressions are known to disagree with the
Kraus result (see ``RAW_FORM_MISMATCHES``); by default the corrected entries
are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .channels import (_WEIGHTINGS, ChannelKind, Side, _weights, channel_terms, channel_weights,
                       check_strengths)
from .linalg import (BLOCK_SHAPE, TOTAL_DIM, _invariant_forms, _polymul, check_matrices,
                     from_blocks, to_blocks)
from .states import FAMILY_BASIS, DensityMatrix, StateParams, family_weights

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


class Mode(str, Enum):
    MULTI_LOCAL = "multilocal"
    QUBIT_ONLY = "qubitonly"
    QUTRIT_ONLY = "qutritonly"


@dataclass(frozen=True)
class ChannelScenario:
    """Which channel kind acts, on which subsystem(s), and how strongly.

    The kind and the mode may be given by value and the strengths as any
    real scalars; they are held as members and floats.  Qubit-only
    scenarios require gamma_qutrit = 0 and qutrit-only ones gamma_qubit = 0.
    Multi-local scenarios may carry independent strengths.
    """

    kind: ChannelKind
    mode: Mode
    gamma_qubit: float = 0.0
    gamma_qutrit: float = 0.0

    def __post_init__(self) -> None:
        # Members pass as they are: an Enum call costs about as much as all
        # the rest of making a scenario.
        if not (isinstance(self.kind, ChannelKind) and isinstance(self.mode, Mode)):
            object.__setattr__(self, "kind", ChannelKind(self.kind))
            object.__setattr__(self, "mode", Mode(self.mode))
        for name in ("gamma_qubit", "gamma_qutrit"):
            g = float(getattr(self, name))
            object.__setattr__(self, name, g)
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"gamma must lie in [0, 1], got {g}")
        if self.mode is Mode.QUBIT_ONLY and self.gamma_qutrit != 0.0:
            raise ValueError("qubit-only scenarios require gamma_qutrit = 0")
        if self.mode is Mode.QUTRIT_ONLY and self.gamma_qubit != 0.0:
            raise ValueError("qutrit-only scenarios require gamma_qubit = 0")

    @classmethod
    def at(cls, kind: ChannelKind, mode: Mode, gamma: float) -> "ChannelScenario":
        """Scenario at a single sweep strength, paired as by
        :func:`sweep_strengths`."""
        return cls(kind, mode, *sweep_strengths(mode, gamma))


def sweep_strengths(mode: Mode, gamma: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_qubit, gamma_qutrit) at the sweep strengths ``gamma``: equal
    strengths when multi-local, the active side's strength and zero on the
    other side otherwise."""
    g = np.asarray(gamma, dtype=float)
    zero = np.zeros_like(g)
    mode = Mode(mode)
    if mode is Mode.MULTI_LOCAL:
        return g, g
    if mode is Mode.QUBIT_ONLY:
        return g, zero
    return zero, g


#: Entries of a state in block form.
_BLOCK_SIZE = int(np.prod(BLOCK_SHAPE))


def _integer_rows(kind: ChannelKind) -> tuple[np.ndarray, int]:
    """Both sides' weight rows at gamma = 0 and 1, each times its side's m,
    as integers: m u = m - p gamma, m v = gamma and m s = sqrt(m (m - p
    gamma)), in a (2, 2, T) array, qubit side first; and m_qubit m_qutrit.
    s is a term of dephasing alone, whose p = m = 1 makes m s the integer
    1 - gamma."""
    p, m, terms, _ = _WEIGHTINGS[kind]
    g = np.array([0.0, 1.0])
    rows = np.stack([m - p * g, 0.0 * m + g, np.sqrt(m * (m - p * g))], axis=-1)
    return rows[..., :terms], int(m.prod())


def _basis_table(kind: ChannelKind) -> np.ndarray:
    """What the kind's channels on both sides make of ``FAMILY_BASIS``, times
    6, as integers: the terms of the qutrit-side channel applied to those of
    the qubit-side one, qutrit term major, in one int64 table with one row
    per basis state that holds each term as its 18 block entries.

    The one snap of the package: every entry of 6 times a term lies within
    1e-9 of a real integer, its imaginary part included, or ValueError is
    raised; the integers are exact.  Raises ValueError too unless every
    integer term commutes with S and is real (``linalg.to_blocks``), since
    the block form holds only such states, and unless each image of a basis
    state at the four corners of the strength square is a density matrix,
    decided exactly in integers: its blocks are symmetric, their traces sum
    to 1, and e_1, e_2 and e_3 of each block (``linalg._invariant_forms``)
    are >= 0, which for a real symmetric 3x3 block is exactly positive
    semidefinite.  The images at (0, 0) are the basis states themselves.
    """
    both = 6.0 * channel_terms(kind, Side.QUTRIT, channel_terms(kind, Side.QUBIT, FAMILY_BASIS))
    ints = np.rint(both.real)
    if not (off := np.abs(both - ints).max()) <= 1e-9:
        raise ValueError(f"a term is off the grid of integers over 6 by {off:.3e}")
    blocks = to_blocks(ints.reshape(-1, *FAMILY_BASIS.shape))
    terms = np.moveaxis(blocks, 1, 0).reshape(len(FAMILY_BASIS), -1, _BLOCK_SIZE)
    rows, scale = _integer_rows(kind)
    # The corners (0, 0), (1, 0), (0, 1) and (1, 1), times m_qubit m_qutrit.
    wa, wb = rows[0][[0, 1, 0, 1]], rows[1][[0, 0, 1, 1]]
    corners = (wb[:, :, None] * wa[:, None, :]).reshape(len(wa), -1)
    images = (corners @ terms).reshape(len(terms), len(corners), *BLOCK_SHAPE)
    tr = np.trace(images, axis1=-2, axis2=-1).sum(axis=-1)
    negative = [e.reshape(*tr.shape, 2) < 0 for e in _invariant_forms(images[None, None])]
    for bad, message in (
        ((images != images.swapaxes(-1, -2)).any(axis=(-3, -2, -1)), "is not symmetric"),
        (tr != 6 * scale, "trace must be 1, got {}"),
        (np.any(negative, axis=(0, -1)), "is not positive semidefinite"),
    ):
        if bad.any():
            i = tuple(np.argwhere(bad)[0].tolist())
            raise ValueError(f"corner image {message.format(tr[i] / (6 * scale))} in stack member {i}")
    return terms.reshape(len(terms), -1).astype(np.int64)


#: The basis table of every kind, 6 times its terms as integers, built and
#: certified once at import; and the float table that the evolution mixes,
#: those integers over 6.
_BASIS_INTEGERS = {kind: _basis_table(kind) for kind in ChannelKind}
_BASIS_TABLES = {kind: ints / 6.0 for kind, ints in _BASIS_INTEGERS.items()}


def _weights_in_y(kind: ChannelKind, mode: Mode) -> tuple[np.ndarray, int]:
    """The weight rows of both sides at one sweep strength of the mode as
    polynomials in y, times m_qubit m_qutrit, with integer coefficients, and
    k, 1 - gamma = y^k (k = 2 where a row holds s, else 1): the products of
    the two sides' rows, qutrit term major, as the basis table holds the
    terms.

    They come from the integer rows at gamma = 0 and 1 (:func:`_integer_rows`).
    u and v are affine in gamma, so in y^k, and s = sqrt(u) = y, since
    dephasing has u = 1 - gamma: each weight is its value at gamma = 1 plus,
    at its power of y, the difference to its value at gamma = 0.  An idle
    side is its constant row at gamma = 0, the identity."""
    rows, _ = _integer_rows(kind)
    terms = rows.shape[-1]
    k = terms - 1
    sides = []
    # A side is active where the mode's strength at gamma = 1 is non-zero.
    for (at0, at1), active in zip(rows, sweep_strengths(mode, 1.0)):
        w = at0[None]
        if active:
            w = np.zeros((k + 1, terms))
            w[0] = at1
            w[[k, k, 1][:terms], range(terms)] = at0 - at1
        sides.append(w)
    wa, wb = sides
    w = _polymul(wb[:, :, None], wa[:, None, :])
    return w.reshape(len(w), -1), k


def _sweep_basis(kind: ChannelKind, mode: Mode) -> tuple[np.ndarray, int]:
    """What one cell's sweep makes of each state of ``FAMILY_BASIS``, times
    6 m_qubit m_qutrit, as block-stack coefficients of 1, y, y^2, ..., basis
    state second, each an integer held in float64: a (d + 1, 3, 2, 3, 3)
    array; and k, 1 - gamma = y^k.  The mix of :func:`evolve_grid` with
    each weight a polynomial in y, before the family weights, from the
    integer tables; the sweep of a point is its weights (2a, 3b, c) times
    these along the basis axis, over the scale."""
    w, k = _weights_in_y(kind, mode)
    terms = _BASIS_INTEGERS[kind].reshape(len(FAMILY_BASIS), -1, _BLOCK_SIZE)
    return (w @ terms).swapaxes(0, 1).reshape(len(w), len(terms), *BLOCK_SHAPE), k


def _mixed(kind: ChannelKind, params: StateParams, pairs: np.ndarray) -> np.ndarray:
    """The family state at each (1, T^2) row of pair weights wb_i wa_j,
    qutrit term major, of an (n, 1, T^2) array: one (n, 2, 3, 3) block
    stack."""
    terms = (family_weights(params) @ _BASIS_TABLES[kind]).reshape(-1, _BLOCK_SIZE)
    # Each member is its own vector-matrix product, so its state does not
    # depend on the rest of the grid.
    return np.matmul(pairs, terms).reshape(len(pairs), *BLOCK_SHAPE)


def evolve_grid(
    kind: ChannelKind, params: StateParams, gamma_qubit: ArrayLike, gamma_qutrit: ArrayLike
) -> np.ndarray:
    """Evolve the family state at each strength pair (gamma_qubit[i],
    gamma_qutrit[i]): the states in grid order as one (n, 2, 3, 3) real
    block stack (see ``linalg``); ``linalg.from_blocks`` gives their
    product-basis matrices.

    The family weights (2a, 3b, c) mix the kind's basis table into the
    point's term blocks, and one ``channel_weights`` call gives both sides'
    weight rows.  Each member is its pair rows wb x wa times the term
    blocks, in a fresh array on every call.  A side at strength zero is
    weighted like any other: its row (1, 0[, 1]) is the identity.  No state
    is checked here: the import certified the tables they come from.
    """
    kind = ChannelKind(kind)
    wa, wb = channel_weights(kind, gamma_qubit, gamma_qutrit)
    n, terms = wa.shape
    return _mixed(kind, params, (wb[:, :, None] * wa[:, None, :]).reshape(n, 1, terms * terms))


def evolve(scenario: ChannelScenario, params: StateParams) -> DensityMatrix:
    """Evolve the family state through the scenario's channels: the
    one-point case of :func:`evolve_grid`.  Its weight rows come from the
    same formula (``channels._weights``), in Python floats, and so do their
    pair products: a numpy call on a single strength pair costs more than
    its arithmetic, and the IEEE operations are the same, so the state is
    the grid's member to the bit.  :class:`ChannelScenario` checked both
    strengths, so they are not checked again."""
    weighting = _WEIGHTINGS[scenario.kind]
    (pa, ma), (pb, mb) = weighting.sides
    wa = _weights(pa, ma, scenario.gamma_qubit, weighting.terms, math.sqrt)
    wb = _weights(pb, mb, scenario.gamma_qutrit, weighting.terms, math.sqrt)
    (m,) = _mixed(scenario.kind, params, np.array([[[y * x for y in wb for x in wa]]]))
    return DensityMatrix._checked(from_blocks(m))


#: The diagonal of a 6x6 matrix, as the row and the column index.
_DIAGONAL = np.arange(TOTAL_DIM)


def coherence_l1(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Sum of absolute off-diagonal entries in the fixed product basis; for a
    (..., 6, 6) stack, an array of the sums over the leading axes.  Takes a
    :class:`DensityMatrix` as it is, and any array-like through
    ``np.asarray``; raises ValueError for anything but 6x6 matrices, a block
    stack included."""
    if isinstance(rho, DensityMatrix):
        # Complex and 6x6 by construction.
        m = rho.matrix
    else:
        m = np.asarray(rho)
        check_matrices(m)
    a = np.abs(m)
    a[..., _DIAGONAL, _DIAGONAL] = 0.0
    total = a.sum(axis=(-2, -1))
    return float(total) if m.ndim == 2 else total


#: Entries (0-based) where the raw closed-form evolved matrices disagree with
#: the Kraus numerics.  For the bit-phase-flip form the raw coefficient at
#: these positions is (b-c)*ga*gb/12 where the channels produce
#: (b-c)*ga*gb/24; for the depolarizing form it is (b-c)*(1-ga)*(-gb)/2 where
#: the channels produce (b-c)*(1-ga)*(1-gb)/2.
RAW_FORM_MISMATCHES: dict[ChannelKind, tuple[tuple[int, int], ...]] = {
    ChannelKind.BIT_PHASE_FLIP: ((1, 5), (5, 1), (2, 3), (3, 2)),
    ChannelKind.DEPOLARIZING: ((1, 3), (3, 1)),
}


def _form(shape: tuple[int, ...], d0, d1, d2) -> np.ndarray:
    """A zero (6, 6, *shape) stack, entry axes first, with the diagonal
    (d0, d1, d2, d1, d0, d2), the pattern of every closed form.  With the
    entry axes first, ``m[i, j] = x`` sets an entry over the whole stack
    without an ellipsis, which numpy indexes at twice the cost."""
    m = np.zeros((TOTAL_DIM, TOTAL_DIM, *shape), dtype=complex)
    m[0, 0] = m[4, 4] = d0
    m[1, 1] = m[3, 3] = d1
    m[2, 2] = m[5, 5] = d2
    return m


def _decoherence_form(shape: tuple[int, ...], params: StateParams, off_diagonal) -> np.ndarray:
    b, c, a = params.b, params.c, params.a
    m = _form(shape, b, (b + c) / 2.0, a)
    m[1, 3] = m[3, 1] = off_diagonal
    return m


def _flip_form(shape: tuple[int, ...], params: StateParams, ga, gb) -> np.ndarray:
    b, c = params.b, params.c
    r11 = (12 * b + 3 * (b - c) * ga * (gb - 1) + 2 * (1 - 6 * b) * gb) / 12.0
    r22 = (6 * (b + c) - 3 * (b - c) * ga * (gb - 1) + (2 - 6 * b - 6 * c) * gb) / 12.0
    r33 = (3 * (1 - 3 * b - c) + (9 * b + 3 * c - 2) * gb) / 6.0
    return _form(shape, r11, r22, r33)


def analytic_evolved(
    kind: ChannelKind,
    params: StateParams,
    gamma_qubit: ArrayLike,
    gamma_qutrit: ArrayLike,
    corrected: bool = True,
) -> np.ndarray:
    """Closed-form evolved matrix for a multi-local channel of the given kind.

    Float strengths give one 6x6 matrix; strength arrays of one shape give a
    (..., 6, 6) stack, each member equal to the float call to the bit.  A
    strength outside [0, 1], NaN included, is a ValueError, as for
    :class:`ChannelScenario`.
    Local scenarios are the special cases with one strength set to zero.
    With ``corrected=False`` the raw reference expressions are evaluated
    verbatim, including the entries listed in ``RAW_FORM_MISMATCHES`` that the
    Kraus numerics refute; note the raw depolarizing matrix is then not even
    positive semidefinite for some strengths, so the result is returned as a
    plain array rather than a validated density matrix.
    """
    kind = ChannelKind(kind)
    b, c = params.b, params.c
    ga, gb, shape = gamma_qubit, gamma_qutrit, ()
    if not (isinstance(ga, float) and isinstance(gb, float)):
        ga = np.asarray(ga, dtype=float)
        gb = np.asarray(gb, dtype=float)
        shape = ga.shape
        if shape != gb.shape:
            raise ValueError(f"strengths must be equal in shape, got {shape} and {gb.shape}")
    if not shape:
        # Python floats for float strengths: the same IEEE arithmetic as on
        # numpy scalars, at a fraction of the cost per operation.
        ga, gb = float(ga), float(gb)
    if shape or not (0.0 <= ga <= 1.0 and 0.0 <= gb <= 1.0):
        check_strengths(np.asarray(ga), np.asarray(gb))

    if kind is ChannelKind.DEPHASING:
        m = _decoherence_form(shape, params, (b - c) * np.sqrt((1 - ga) * (1 - gb)) / 2.0)
    elif kind is ChannelKind.PHASE_FLIP:
        m = _decoherence_form(shape, params, (b - c) * (1 - ga) * (1 - gb) / 2.0)
    elif kind is ChannelKind.BIT_FLIP:
        m = _flip_form(shape, params, ga, gb)
        m[0, 4] = m[4, 0] = (b - c) * ga * (3 - 2 * gb) / 12.0
        m[2, 4] = m[4, 2] = m[0, 5] = m[5, 0] = (b - c) * (2 - ga) * gb / 12.0
        m[1, 5] = m[5, 1] = m[2, 3] = m[3, 2] = (b - c) * ga * gb / 12.0
        m[1, 3] = m[3, 1] = (b - c) * (2 - ga) * (3 - 2 * gb) / 12.0
    elif kind is ChannelKind.BIT_PHASE_FLIP:
        m = _flip_form(shape, params, ga, gb)
        m[0, 4] = m[4, 0] = -(b - c) * ga * (3 - 2 * gb) / 12.0
        m[0, 5] = m[5, 0] = m[2, 4] = m[4, 2] = (b - c) * (ga - 2) * gb / 24.0
        m[1, 3] = m[3, 1] = (b - c) * (2 - ga) * (3 - 2 * gb) / 12.0
        denom = 24.0 if corrected else 12.0
        m[1, 5] = m[5, 1] = m[2, 3] = m[3, 2] = (b - c) * ga * gb / denom
    else:  # depolarizing
        m = _flip_form(shape, params, ga, gb)
        if corrected:
            m[1, 3] = m[3, 1] = (b - c) * (1 - ga) * (1 - gb) / 2.0
        else:
            m[1, 3] = m[3, 1] = (b - c) * (1 - ga) * (-gb) / 2.0
    if not shape:
        return m
    # The entry axes last, in a copy.
    return np.ascontiguousarray(m.transpose(*range(2, m.ndim), 0, 1))
