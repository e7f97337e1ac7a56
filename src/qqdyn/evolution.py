"""Evolution through the three noise scenarios, and closed-form evolved states.

A scenario is multi-local (independent noise on both subsystems), qubit-only,
or qutrit-only.  Local scenarios pin the other side's strength to zero, so
every evolution runs the same code path: the qubit-side channel, then the
qutrit-side channel.  The two commute since they act on different tensor
factors.

The evolution is tabulated.  The family state is the convex mix
rho(0) = 2a (P_2 / 2) + 3b (B_3 / 3) + c |psi-><psi-| of three fixed basis
states (``states.FAMILY_BASIS``), and each side's channel is
u T_u + v T_v (+ s T_s for dephasing) in its squared Kraus weights
u = 1 - p gamma / m, v = gamma / m and in s = sqrt(u) (see ``channels``).
Every channel is linear, so the evolved state at any strength pair is a
weighted sum of fixed matrices.  For each kind, the terms of the qubit side,
of the qutrit side and of both sides applied to each basis state are
tabulated once at import.  Every term commutes with the symmetry S of
``linalg`` and is real, which the import certifies, so each is held as its
two real symmetric 3x3 blocks, 18 reals instead of the 72 of a complex 6x6
matrix: at most 45 block pairs per kind, 20 kB for all five.  A call mixes
them with the point's weights (2a, 3b, c) into at most 9 term block pairs
per stage.

:func:`evolve_grid` then works through the strength arrays in chunks of
``GRID_CHUNK``.  Per chunk it builds each side's weight rows, certifies
completeness at every strength from the Gram polynomial of the same rows,
and forms the states after the qubit side and after both sides as weight
rows times term blocks, validating every member of each stage as a
density matrix.  States stay in block form; ``linalg.from_blocks`` rebuilds
the 6x6 product-basis matrix where an output needs it.  A side at strength
exactly zero is the identity channel and is skipped, member by member.  Sweeps and the ESD detector reduce each
chunk before the next is built, so memory stays bounded for any grid
length, and :func:`evolve` is the one-point case of the same path.
:func:`apply_channel` over ``channels.kraus_operators`` is the direct Kraus
sum, kept as the reference the tables are tested against.

For each channel kind the evolved density matrix also has a closed form;
:func:`analytic_evolved` builds it directly from those expressions as an
independent oracle for the Kraus numerics, at one strength pair or over
strength arrays.  Two of the raw expressions are known to disagree with the
Kraus result (see ``RAW_FORM_MISMATCHES``); by default the corrected entries
are used.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .channels import ChannelKind, Side, channel_terms, channel_weights
from .linalg import BLOCK_SHAPE, TOTAL_DIM, from_blocks, to_blocks
from .states import (
    FAMILY_BASIS,
    DensityMatrix,
    StateParams,
    check_density,
    family_weights,
)

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


def apply_channel(
    channel: np.ndarray, rho: DensityMatrix | np.ndarray
) -> DensityMatrix | np.ndarray:
    """sum_i K_i rho K_i^dagger, revalidated as a density matrix: the direct
    Kraus sum, the reference that the tabulated evolution is tested against.

    ``channel`` is a (..., K, 6, 6) operator stack from ``kraus_operators``
    and ``rho`` a :class:`DensityMatrix` or a (..., 6, 6) stack whose
    leading axes broadcast against the operators'.  A DensityMatrix gives a
    DensityMatrix; a stack gives a stack with every member checked.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    out = (channel @ m[..., None, :, :] @ channel.conj().swapaxes(-1, -2)).sum(axis=-3)
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out)
    check_density(out)
    return out


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


#: Strengths evolved together.  The largest arrays of a chunk are a few
#: (n, 2, 3, 3) real block stacks, 18 kB each at n = 128, and in a sweep the
#: rebuilt (n, 6, 6) real matrices, 37 kB, whatever the grid length.  On a
#: shared 2-vCPU Xeon with one BLAS thread, a 513-point ``run_sweep`` without
#: the ESD search (mean over the 15 cells, best of 7) took 8.3, 5.2, 3.6, 2.6
#: and 2.2 ms with chunks of 16, 32, 64, 128 and 513, and the peak resident
#: memory of a 45-curve sweep run stayed flat up to 128 and rose by 0.3 MB at
#: 513.  The tier-1 test of sweep columns against one-point evaluations runs
#: grids of about 4 chunks, so its cost grows with the chunk: 11.5 s at 64,
#: 17.8 s at 128.
GRID_CHUNK = 128


def _basis_table(kind: ChannelKind) -> tuple[np.ndarray, int, int]:
    """What the kind's channels make of ``FAMILY_BASIS``: the qubit-side
    terms, then the qutrit-side terms, then the terms of both sides (qutrit
    term major), in one real table with one row per basis state that holds
    each term as its 18 block entries; with the qubit-side and qutrit-side
    term counts.

    Raises ValueError unless every term commutes with S and is real to
    ``linalg.SYMMETRY_TOL``: the block form holds only such states.
    """
    qubit = channel_terms(kind, Side.QUBIT, FAMILY_BASIS)
    qutrit = channel_terms(kind, Side.QUTRIT, FAMILY_BASIS)
    both = channel_terms(kind, Side.QUTRIT, qubit)
    terms = np.concatenate([t.reshape(-1, *FAMILY_BASIS.shape) for t in (qubit, qutrit, both)])
    blocks = to_blocks(terms)
    # Exactly symmetric blocks give exactly symmetric states.
    blocks = (blocks + blocks.swapaxes(-1, -2)) / 2.0
    table = np.ascontiguousarray(np.moveaxis(blocks, 1, 0)).reshape(len(FAMILY_BASIS), -1)
    return table, len(qubit), len(qutrit)


#: The basis table of every kind, built and certified once at import.
_BASIS_TABLES = {kind: _basis_table(kind) for kind in ChannelKind}
#: ``FAMILY_BASIS`` in block form, one row of 18 block entries per state.
_FAMILY_BLOCKS = to_blocks(FAMILY_BASIS).reshape(len(FAMILY_BASIS), -1)
_BLOCK_SIZE = _FAMILY_BLOCKS.shape[1]


def _combine(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The (n, 2, 3, 3) block stack sum_t weights[:, t] terms[t].  Each
    strength is its own vector-matrix product, so a state does not depend on
    the other strengths of its chunk."""
    return (weights[:, None, :] @ terms).reshape(len(weights), *BLOCK_SHAPE)


def _stage(out: np.ndarray, members: np.ndarray, weights: np.ndarray, terms: np.ndarray) -> None:
    """Set the states of the chunk members that ``members`` selects."""
    if members.all():
        out[:] = _combine(weights, terms)
    elif members.any():
        out[members] = _combine(weights[members], terms)


def evolve_grid(
    kind: ChannelKind, params: StateParams, gamma_qubit: ArrayLike, gamma_qutrit: ArrayLike
) -> Iterator[np.ndarray]:
    """Evolve the family state at each strength pair (gamma_qubit[i],
    gamma_qutrit[i]), yielding the states in grid order as (n, 2, 3, 3)
    real block stacks (see ``linalg``) of at most ``GRID_CHUNK`` members;
    ``linalg.from_blocks`` gives their product-basis matrices.

    The initial state is validated once, and the family weights (2a, 3b, c)
    mix the kind's basis table into the point's term blocks.  In each chunk
    the weight rows of each side are certified complete at every strength,
    and the states after the qubit side and after both sides are each
    revalidated, for every member.  A side at strength exactly zero is the
    identity channel, and is skipped for that member; a side whose strengths
    in a chunk are all zero is not evaluated at all.
    """
    ga = np.asarray(gamma_qubit, dtype=float)
    gb = np.asarray(gamma_qutrit, dtype=float)
    if ga.ndim != 1 or ga.shape != gb.shape:
        raise ValueError(
            f"strength arrays must be 1-d and equal in length, got {ga.shape} and {gb.shape}"
        )
    kind = ChannelKind(kind)
    weights = family_weights(params)
    rho = (weights @ _FAMILY_BLOCKS).reshape(BLOCK_SHAPE)
    check_density(rho)
    table, ta, tb = _BASIS_TABLES[kind]
    terms = (weights @ table).reshape(-1, _BLOCK_SIZE)
    qubit, qutrit, both = terms[:ta], terms[ta : ta + tb], terms[ta + tb :]
    for s in range(0, len(ga), GRID_CHUNK):
        a, b = ga[s : s + GRID_CHUNK], gb[s : s + GRID_CHUNK]
        # Strength zero is the identity channel, per member, so that a
        # member's state never depends on the rest of its chunk.
        on_a, on_b = a != 0.0, b != 0.0
        any_a = on_a.any()
        out = np.repeat(rho[None], len(a), axis=0)
        if any_a:
            wa = channel_weights(kind, Side.QUBIT, a)
            _stage(out, on_a, wa, qubit)
            check_density(out)
        if on_b.any():
            wb = channel_weights(kind, Side.QUTRIT, b)
            _stage(out, on_b & ~on_a, wb, qutrit)
            if any_a:
                pairs = (wb[:, :, None] * wa[:, None, :]).reshape(len(a), -1)
                _stage(out, on_b & on_a, pairs, both)
            check_density(out)
        yield out


def evolve(scenario: ChannelScenario, params: StateParams) -> DensityMatrix:
    """Evolve the family state through the scenario's channels: the
    one-point case of :func:`evolve_grid`."""
    (m,) = next(evolve_grid(scenario.kind, params, [scenario.gamma_qubit], [scenario.gamma_qutrit]))
    return DensityMatrix._checked(from_blocks(m))


def coherence_l1(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Sum of absolute off-diagonal entries in the fixed product basis; for a
    (..., 6, 6) stack, an array of the sums over the leading axes."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    a = np.abs(m)
    diag = np.arange(TOTAL_DIM)
    a[..., diag, diag] = 0.0
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
    """A zero (*shape, 6, 6) stack with the diagonal (d0, d1, d2, d1, d0, d2),
    the pattern of every closed form."""
    m = np.zeros(shape + (TOTAL_DIM, TOTAL_DIM), dtype=complex)
    m[..., 0, 0] = m[..., 4, 4] = d0
    m[..., 1, 1] = m[..., 3, 3] = d1
    m[..., 2, 2] = m[..., 5, 5] = d2
    return m


def _decoherence_form(params: StateParams, off_diagonal: float | np.ndarray) -> np.ndarray:
    b, c, a = params.b, params.c, params.a
    m = _form(np.shape(off_diagonal), b, (b + c) / 2.0, a)
    m[..., 1, 3] = m[..., 3, 1] = off_diagonal
    return m


def _flip_form(params: StateParams, ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    b, c = params.b, params.c
    r11 = (12 * b + 3 * (b - c) * ga * (gb - 1) + 2 * (1 - 6 * b) * gb) / 12.0
    r22 = (6 * (b + c) - 3 * (b - c) * ga * (gb - 1) + (2 - 6 * b - 6 * c) * gb) / 12.0
    r33 = (3 * (1 - 3 * b - c) + (9 * b + 3 * c - 2) * gb) / 6.0
    return _form(ga.shape, r11, r22, r33)


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
    # [()] gives numpy scalars for floats (cheaper than 0-d arrays), arrays as is.
    ga = np.asarray(gamma_qubit, dtype=float)[()]
    gb = np.asarray(gamma_qutrit, dtype=float)[()]
    if ga.shape != gb.shape:
        raise ValueError(f"strengths must be equal in shape, got {ga.shape} and {gb.shape}")

    if kind is ChannelKind.DEPHASING:
        return _decoherence_form(params, (b - c) * np.sqrt((1 - ga) * (1 - gb)) / 2.0)

    if kind is ChannelKind.PHASE_FLIP:
        return _decoherence_form(params, (b - c) * (1 - ga) * (1 - gb) / 2.0)

    m = _flip_form(params, ga, gb)

    if kind is ChannelKind.BIT_FLIP:
        m[..., 0, 4] = m[..., 4, 0] = (b - c) * ga * (3 - 2 * gb) / 12.0
        m[..., 2, 4] = m[..., 4, 2] = m[..., 0, 5] = m[..., 5, 0] = (b - c) * (2 - ga) * gb / 12.0
        m[..., 1, 5] = m[..., 5, 1] = m[..., 2, 3] = m[..., 3, 2] = (b - c) * ga * gb / 12.0
        m[..., 1, 3] = m[..., 3, 1] = (b - c) * (2 - ga) * (3 - 2 * gb) / 12.0
        return m

    if kind is ChannelKind.BIT_PHASE_FLIP:
        m[..., 0, 4] = m[..., 4, 0] = -(b - c) * ga * (3 - 2 * gb) / 12.0
        m[..., 0, 5] = m[..., 5, 0] = m[..., 2, 4] = m[..., 4, 2] = (b - c) * (ga - 2) * gb / 24.0
        m[..., 1, 3] = m[..., 3, 1] = (b - c) * (2 - ga) * (3 - 2 * gb) / 12.0
        denom = 24.0 if corrected else 12.0
        m[..., 1, 5] = m[..., 5, 1] = m[..., 2, 3] = m[..., 3, 2] = (b - c) * ga * gb / denom
        return m

    if kind is ChannelKind.DEPOLARIZING:
        if corrected:
            m[..., 1, 3] = m[..., 3, 1] = (b - c) * (1 - ga) * (1 - gb) / 2.0
        else:
            m[..., 1, 3] = m[..., 3, 1] = (b - c) * (1 - ga) * (-gb) / 2.0
        return m

    raise ValueError(f"unknown channel kind {kind!r}")
