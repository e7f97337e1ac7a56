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

:func:`evolve_grid` then works through the strength arrays in chunks of
``GRID_CHUNK``.  Per chunk it builds both sides' weight rows, certifies
completeness at every strength from the Gram polynomial of the same rows,
and writes each member's state, its pair weights times the term blocks,
into one buffer of block-pair rows, after the initial state in the first
chunk.  A side at strength zero needs no case of its own: its weight row
is the identity.  One density-matrix certificate covers the whole buffer
in place; only a failed certificate is diagnosed, which names the failing
member.  States stay in block form; ``linalg.from_blocks`` rebuilds the
6x6 product-basis matrix where an output needs it.  Sweeps and the ESD
detector reduce each chunk before the next is built, so memory stays
bounded for any grid length; :func:`evolve` is the one-point case of the
same path, and :func:`_sweep_polynomial` the same mix with polynomial
weights.  :func:`apply_channel` over ``channels.kraus_operators`` is the
direct Kraus sum, kept as the reference the tables are tested against.

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

from .channels import _SHAPES, ChannelKind, Side, channel_terms, channel_weights
from .linalg import BLOCK_SHAPE, TOTAL_DIM, from_blocks, to_blocks
from .states import (
    FAMILY_BASIS,
    DensityMatrix,
    StateParams,
    _certified,
    _conj_t,
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


def _basis_table(kind: ChannelKind) -> np.ndarray:
    """What the kind's channels on both sides make of ``FAMILY_BASIS``: the
    terms of the qutrit-side channel applied to those of the qubit-side
    one, qutrit term major, in one real table with one row per basis state
    that holds each term as its 18 block entries.

    Raises ValueError unless every term commutes with S and is real to
    ``linalg.SYMMETRY_TOL``: the block form holds only such states.
    """
    both = channel_terms(kind, Side.QUTRIT, channel_terms(kind, Side.QUBIT, FAMILY_BASIS))
    blocks = to_blocks(both.reshape(-1, *FAMILY_BASIS.shape))
    # Exactly symmetric blocks give exactly symmetric states.
    blocks = (blocks + blocks.swapaxes(-1, -2)) / 2.0
    return np.ascontiguousarray(np.moveaxis(blocks, 1, 0)).reshape(len(FAMILY_BASIS), -1)


#: The basis table of every kind, built and certified once at import.
_BASIS_TABLES = {kind: _basis_table(kind) for kind in ChannelKind}
#: ``FAMILY_BASIS`` in block form, one row of 18 block entries per state.
_FAMILY_BLOCKS = to_blocks(FAMILY_BASIS).reshape(len(FAMILY_BASIS), -1)
_BLOCK_SIZE = _FAMILY_BLOCKS.shape[1]


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials with coefficients of 1, y, ... along axis 0."""
    out = np.zeros((len(a) + len(b) - 1, *np.broadcast_shapes(a.shape[1:], b.shape[1:])))
    for i, ai in enumerate(a):
        out[i : i + len(b)] += ai * b
    return out


def _weights_in_y(kind: ChannelKind, mode: Mode) -> tuple[np.ndarray, int]:
    """The weight rows of both sides at one sweep strength of the mode as
    polynomials in y (``_KrausShapes.weights_in_y``), with k, 1 - gamma =
    y^k: the products of the two sides' rows, qutrit term major, as the
    basis table holds the terms.  An idle side is its constant weight row
    at gamma = 0, the identity."""
    shapes = [_SHAPES[kind, side] for side in Side]
    # A side is active where the mode's strength at gamma = 1 is non-zero.
    wa, wb = (
        s.weights_in_y.T if g else s.weights(np.zeros(1))
        for s, g in zip(shapes, sweep_strengths(mode, 1.0))
    )
    w = _polymul(wb[:, :, None], wa[:, None, :])
    return w.reshape(len(w), -1), shapes[0].terms - 1


#: The weight polynomials of every cell, built once at import.
_WEIGHTS_IN_Y = {(kind, mode): _weights_in_y(kind, mode) for kind in ChannelKind for mode in Mode}


def _sweep_polynomial(kind: ChannelKind, mode: Mode, params: StateParams) -> tuple[np.ndarray, int]:
    """The states of one cell's sweep as block-stack coefficients of 1, y,
    y^2, ..., and k, 1 - gamma = y^k: the mix of :func:`evolve_grid` with
    each weight a polynomial in y."""
    kind = ChannelKind(kind)
    w, k = _WEIGHTS_IN_Y[kind, Mode(mode)]
    terms = (family_weights(params) @ _BASIS_TABLES[kind]).reshape(-1, _BLOCK_SIZE)
    return (w @ terms).reshape(-1, *BLOCK_SHAPE), k


def evolve_grid(
    kind: ChannelKind, params: StateParams, gamma_qubit: ArrayLike, gamma_qutrit: ArrayLike
) -> Iterator[np.ndarray]:
    """Evolve the family state at each strength pair (gamma_qubit[i],
    gamma_qutrit[i]), yielding the states in grid order as (n, 2, 3, 3)
    real block stacks (see ``linalg``) of at most ``GRID_CHUNK`` members;
    ``linalg.from_blocks`` gives their product-basis matrices.

    The family weights (2a, 3b, c) mix the kind's basis table into the
    point's term blocks.  Each chunk takes both sides' weight rows, each
    certified complete at every strength, and writes every member's mix,
    its pair rows wb x wa times the term blocks, into one fresh buffer of
    block-pair rows, after the initial state in the first chunk.  A side
    at strength zero is weighted like any other: its row (1, 0[, 1]) is the
    identity.  The buffer is certified in place by the certificate of
    ``check_density``, once per chunk, and the chunk's states are yielded
    as a view of it.  Only if that fails does ``check_density`` diagnose
    the initial state (first chunk only; its error names no member), then
    the chunk's states, whose error names the first failing member.
    """
    ga = np.asarray(gamma_qubit, dtype=float)
    gb = np.asarray(gamma_qutrit, dtype=float)
    if ga.ndim != 1 or ga.shape != gb.shape:
        raise ValueError(
            f"strength arrays must be 1-d and equal in length, got {ga.shape} and {gb.shape}"
        )
    kind = ChannelKind(kind)
    weights = family_weights(params)
    rho = weights @ _FAMILY_BLOCKS
    terms = (weights @ _BASIS_TABLES[kind]).reshape(-1, _BLOCK_SIZE)
    # The initial state goes with the first chunk's certificate.
    first = 1
    for s in range(0, len(ga), GRID_CHUNK):
        wa = channel_weights(kind, Side.QUBIT, ga[s : s + GRID_CHUNK])
        wb = channel_weights(kind, Side.QUTRIT, gb[s : s + GRID_CHUNK])
        n = len(wa)
        rows = np.empty((first + n, _BLOCK_SIZE))
        rows[:first] = rho
        # Each member is its own vector-matrix product, so its state does
        # not depend on the rest of its chunk.
        pairs = (wb[:, :, None] * wa[:, None, :]).reshape(n, 1, -1)
        np.matmul(pairs, terms, out=rows[first:].reshape(n, 1, _BLOCK_SIZE))
        blocks = rows.reshape(-1, *BLOCK_SHAPE)
        if not _certified(blocks, _conj_t(blocks)):
            if first:
                check_density(blocks[0])
            check_density(blocks[first:])
        first = 0
        yield blocks[-n:]
    if first:  # an empty grid still certifies the initial state
        check_density(rho.reshape(BLOCK_SHAPE))


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
