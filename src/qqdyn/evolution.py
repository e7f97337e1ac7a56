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
applied to each basis state are tabulated once at import.  Every term
commutes with the symmetry S of ``linalg`` and is real, which the import
certifies, so each is held as its two real symmetric 3x3 blocks, 18 reals
instead of the 72 of a complex 6x6 matrix: at most 27 block pairs per kind,
11 kB for all five.  A call mixes them with the point's weights (2a, 3b, c)
into at most 9 term block pairs.

The import certifies the tables once, and no call checks a state again.
``channels`` certifies each side complete at every strength, and
:func:`_basis_table` checks the images of the three basis states at the
four corners of the strength square with ``check_density``.  For the four
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
one-point case of the same path, :func:`_mixed`, without a second check of
the strengths its ``ChannelScenario`` checked, and :func:`_sweep_basis` the
same mix with polynomial weights for each basis state, from which
``negativity`` tabulates the ESD invariants once at import.  The direct Kraus sum, the
reference the tables are tested against, lives in the tests
(``tests/helpers.py``), since no library path needs it.

For each channel kind the evolved density matrix also has a closed form;
:func:`analytic_evolved` builds it directly from those expressions as an
independent oracle for the Kraus numerics, at one strength pair or over
strength arrays.  Two of the raw expressions are known to disagree with the
Kraus result (see ``RAW_FORM_MISMATCHES``); by default the corrected entries
are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .channels import _WEIGHTINGS, ChannelKind, Side, _rows, channel_terms, channel_weights
from .linalg import BLOCK_SHAPE, TOTAL_DIM, check_matrices, from_blocks, to_blocks
from .states import FAMILY_BASIS, DensityMatrix, StateParams, check_density, family_weights

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


class Mode(str, Enum):
    MULTI_LOCAL = "multilocal"
    QUBIT_ONLY = "qubitonly"
    QUTRIT_ONLY = "qutritonly"


@dataclass(frozen=True)
class ChannelScenario:
    """Which channel kind acts, on which subsystem(s), and how strongly.

    Qubit-only scenarios require gamma_qutrit = 0 and qutrit-only ones
    gamma_qubit = 0.  Multi-local scenarios may carry independent strengths.
    """

    kind: ChannelKind
    mode: Mode
    gamma_qubit: float = 0.0
    gamma_qutrit: float = 0.0

    def __post_init__(self) -> None:
        for g in (self.gamma_qubit, self.gamma_qutrit):
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
        ga, gb = sweep_strengths(mode, gamma)
        return cls(ChannelKind(kind), Mode(mode), float(ga), float(gb))


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


def _basis_table(kind: ChannelKind) -> np.ndarray:
    """What the kind's channels on both sides make of ``FAMILY_BASIS``: the
    terms of the qutrit-side channel applied to those of the qubit-side
    one, qutrit term major, in one real table with one row per basis state
    that holds each term as its 18 block entries.

    Raises ValueError unless every term commutes with S and is real to
    ``linalg.SYMMETRY_TOL``, since the block form holds only such states,
    and unless the table's images of the basis states at the four corners
    of the strength square pass ``check_density``.  The images at (0, 0)
    are the basis states themselves.
    """
    both = channel_terms(kind, Side.QUTRIT, channel_terms(kind, Side.QUBIT, FAMILY_BASIS))
    blocks = to_blocks(both.reshape(-1, *FAMILY_BASIS.shape))
    # Exactly symmetric blocks give exactly symmetric states.
    blocks = (blocks + blocks.swapaxes(-1, -2)) / 2.0
    terms = np.ascontiguousarray(np.moveaxis(blocks, 1, 0))
    terms = terms.reshape(len(FAMILY_BASIS), -1, _BLOCK_SIZE)
    wa, wb = channel_weights(kind, [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0])
    corners = (wb[:, :, None] * wa[:, None, :]).reshape(len(wa), -1)
    check_density((corners @ terms).reshape(len(terms), len(corners), *BLOCK_SHAPE))
    return terms.reshape(len(terms), -1)


#: The basis table of every kind, built and certified once at import.
_BASIS_TABLES = {kind: _basis_table(kind) for kind in ChannelKind}


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials with coefficients of 1, y, ... along axis 0,
    in the dtype of the coefficients (exact rationals stay exact)."""
    shape = (len(a) + len(b) - 1, *np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for i, ai in enumerate(a):
        out[i : i + len(b)] += ai * b
    return out


def _weights_in_y(kind: ChannelKind, mode: Mode) -> tuple[np.ndarray, int]:
    """The weight rows of both sides at one sweep strength of the mode as
    polynomials in y, with k, 1 - gamma = y^k (k = 2 where a row holds s,
    else 1): the products of the two sides' rows, qutrit term major, as the
    basis table holds the terms.

    They come from ``channel_weights`` itself, at gamma = 0 and 1.  u and v
    are affine in gamma, so in y^k, and s = sqrt(u) = y, since dephasing
    has u = 1 - gamma: each weight is its value at gamma = 1 plus, at its
    power of y, the difference to its value at gamma = 0.  An idle side is
    its constant row at gamma = 0, the identity."""
    rows = channel_weights(kind, [0.0, 1.0], [0.0, 1.0])
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
    """What one cell's sweep makes of each state of ``FAMILY_BASIS``, as
    block-stack coefficients of 1, y, y^2, ..., basis state second: a
    (d + 1, 3, 2, 3, 3) array; and k, 1 - gamma = y^k.  The mix of
    :func:`evolve_grid` with each weight a polynomial in y, before the
    family weights; the sweep of a point is its weights (2a, 3b, c) times
    these along the basis axis."""
    w, k = _weights_in_y(kind, mode)
    terms = _BASIS_TABLES[kind].reshape(len(FAMILY_BASIS), -1, _BLOCK_SIZE)
    return (w @ terms).swapaxes(0, 1).reshape(len(w), len(terms), *BLOCK_SHAPE), k


def _mixed(kind: ChannelKind, params: StateParams, rows: np.ndarray) -> np.ndarray:
    """The family state at each pair of both sides' weight rows ``rows``, as
    ``channel_weights`` gives them: one (n, 2, 3, 3) block stack."""
    wa, wb = rows
    terms = (family_weights(params) @ _BASIS_TABLES[kind]).reshape(-1, _BLOCK_SIZE)
    # Each member is its own vector-matrix product, so its state does not
    # depend on the rest of the grid.
    pairs = (wb[:, :, None] * wa[:, None, :]).reshape(len(wa), 1, -1)
    return np.matmul(pairs, terms).reshape(len(wa), *BLOCK_SHAPE)


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
    return _mixed(kind, params, channel_weights(kind, gamma_qubit, gamma_qutrit))


def evolve(scenario: ChannelScenario, params: StateParams) -> DensityMatrix:
    """Evolve the family state through the scenario's channels: the
    one-point case of :func:`evolve_grid`, with its weight rows from the
    same formula.  :class:`ChannelScenario` checked both strengths, so they
    are not checked again."""
    kind = ChannelKind(scenario.kind)
    g = np.array(((scenario.gamma_qubit,), (scenario.gamma_qutrit,)), dtype=float)
    (m,) = _mixed(kind, params, _rows(_WEIGHTINGS[kind], g))
    return DensityMatrix._checked(from_blocks(m))


#: The diagonal of a 6x6 matrix, as the row and the column index.
_DIAGONAL = np.arange(TOTAL_DIM)


def coherence_l1(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Sum of absolute off-diagonal entries in the fixed product basis; for a
    (..., 6, 6) stack, an array of the sums over the leading axes.  Raises
    ValueError for anything else, a block stack included."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
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
    (..., 6, 6) stack, each member equal to the float call to the bit.
    Local scenarios are the special cases with one strength set to zero.
    With ``corrected=False`` the raw reference expressions are evaluated
    verbatim, including the entries listed in ``RAW_FORM_MISMATCHES`` that the
    Kraus numerics refute; note the raw depolarizing matrix is then not even
    positive semidefinite for some strengths, so the result is returned as a
    plain array rather than a validated density matrix.
    """
    kind = ChannelKind(kind)
    b, c = params.b, params.c
    ga = np.asarray(gamma_qubit, dtype=float)
    gb = np.asarray(gamma_qutrit, dtype=float)
    shape = ga.shape
    if shape != gb.shape:
        raise ValueError(f"strengths must be equal in shape, got {shape} and {gb.shape}")
    if not shape:
        # Python floats for float strengths: the same IEEE arithmetic as on
        # numpy scalars, at a fraction of the cost per operation.
        ga, gb = float(ga), float(gb)

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
    # The entry axes last; a copy only for a stack.
    return np.ascontiguousarray(m.transpose(*range(2, m.ndim), 0, 1))
