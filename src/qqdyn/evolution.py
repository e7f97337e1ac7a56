"""Channel application, the three noise scenarios, and closed-form evolved states.

A scenario is multi-local (independent noise on both subsystems), qubit-only,
or qutrit-only.  Local scenarios pin the other side's strength to zero, so
every evolution runs the same code path: apply the qubit-side channel, then
the qutrit-side channel.  The two applications commute since the operators
act on different tensor factors.

Strengths are evolved in batches: :func:`evolve_grid` takes arrays of qubit
and qutrit strengths and works through them in chunks of ``GRID_CHUNK``,
each chunk one stacked Kraus product per side over (n, K, 6, 6) operator
stacks.  A side held at strength zero throughout a chunk is the identity
channel there and is not applied.  Sweeps and the ESD detector reduce each
chunk before the next is built, so memory stays bounded for any grid
length, and :func:`evolve` is the one-point case of the same path.

For each channel kind the evolved density matrix also has a closed form;
:func:`analytic_evolved` builds it directly from those expressions as an
independent oracle for the Kraus numerics.  Two of the raw expressions are
known to disagree with the Kraus result (see ``RAW_FORM_MISMATCHES``); by
default the corrected entries are used.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .channels import ChannelKind, KrausChannel, Side, kraus_operators
from .linalg import TOTAL_DIM
from .states import DensityMatrix, StateParams, check_density, initial_state

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
    channel: KrausChannel | np.ndarray, rho: DensityMatrix | np.ndarray
) -> DensityMatrix | np.ndarray:
    """sum_i K_i rho K_i^dagger, revalidated as a density matrix.

    ``channel`` is a :class:`KrausChannel` or a (..., K, 6, 6) operator stack
    and ``rho`` a :class:`DensityMatrix` or a (..., 6, 6) stack whose leading
    axes broadcast against the operators'.  A DensityMatrix gives a
    DensityMatrix; a stack gives a stack with every member checked.
    """
    k = channel.operators if isinstance(channel, KrausChannel) else channel
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    out = (k @ m[..., None, :, :] @ k.conj().swapaxes(-1, -2)).sum(axis=-3)
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


#: Strengths evolved together.  The few (16, K, 6, 6) complex stacks alive
#: at once stay under 83 kB each whatever the grid length; chunks of 32 ran
#: a sweep up to a tenth faster but raised the peak resident memory of a
#: run by about 0.4 MB.
GRID_CHUNK = 16


def evolve_grid(
    kind: ChannelKind, params: StateParams, gamma_qubit: ArrayLike, gamma_qutrit: ArrayLike
) -> Iterator[np.ndarray]:
    """Evolve the family state at each strength pair (gamma_qubit[i],
    gamma_qutrit[i]), yielding the states in grid order as (n, 6, 6) stacks
    of at most ``GRID_CHUNK`` members.

    The initial state is validated once; each chunk's Kraus stacks are
    certified complete and its states revalidated after each channel, for
    every member.  A side whose strengths in a chunk are all exactly zero
    is the identity channel there, and is skipped.
    """
    ga = np.asarray(gamma_qubit, dtype=float)
    gb = np.asarray(gamma_qutrit, dtype=float)
    if ga.ndim != 1 or ga.shape != gb.shape:
        raise ValueError(
            f"strength arrays must be 1-d and equal in length, got {ga.shape} and {gb.shape}"
        )
    rho = initial_state(params).matrix
    for s in range(0, len(ga), GRID_CHUNK):
        chunk = slice(s, s + GRID_CHUNK)
        out = rho
        for side, g in ((Side.QUBIT, ga[chunk]), (Side.QUTRIT, gb[chunk])):
            if np.count_nonzero(g):
                out = apply_channel(kraus_operators(kind, side, g), out)
        yield out if out.ndim == 3 else np.repeat(rho[None], len(ga[chunk]), axis=0)


def evolve(scenario: ChannelScenario, params: StateParams) -> DensityMatrix:
    """Evolve the family state through the scenario's channels: the
    one-point case of :func:`evolve_grid`."""
    (m,) = next(evolve_grid(scenario.kind, params, [scenario.gamma_qubit], [scenario.gamma_qutrit]))
    return DensityMatrix._checked(m)


def coherence_l1(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Sum of absolute off-diagonal entries in the fixed product basis; for a
    (..., 6, 6) stack, an array of the sums over the leading axes."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
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


def _decoherence_form(params: StateParams, off_diagonal: float) -> np.ndarray:
    m = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    b, c, a = params.b, params.c, params.a
    np.fill_diagonal(m, [b, (b + c) / 2.0, a, (b + c) / 2.0, b, a])
    m[1, 3] = m[3, 1] = off_diagonal
    return m


def _flip_diagonal(m: np.ndarray, params: StateParams, ga: float, gb: float) -> None:
    b, c = params.b, params.c
    r11 = (12 * b + 3 * (b - c) * ga * (gb - 1) + 2 * (1 - 6 * b) * gb) / 12.0
    r22 = (6 * (b + c) - 3 * (b - c) * ga * (gb - 1) + (2 - 6 * b - 6 * c) * gb) / 12.0
    r33 = (3 * (1 - 3 * b - c) + (9 * b + 3 * c - 2) * gb) / 6.0
    np.fill_diagonal(m, [r11, r22, r33, r22, r11, r33])


def analytic_evolved(
    kind: ChannelKind,
    params: StateParams,
    gamma_qubit: float,
    gamma_qutrit: float,
    corrected: bool = True,
) -> np.ndarray:
    """Closed-form evolved matrix for a multi-local channel of the given kind.

    Local scenarios are the special cases with one strength set to zero.
    With ``corrected=False`` the raw reference expressions are evaluated
    verbatim, including the entries listed in ``RAW_FORM_MISMATCHES`` that the
    Kraus numerics refute; note the raw depolarizing matrix is then not even
    positive semidefinite for some strengths, so the result is returned as a
    plain array rather than a validated density matrix.
    """
    kind = ChannelKind(kind)
    b, c = params.b, params.c
    ga, gb = float(gamma_qubit), float(gamma_qutrit)

    if kind is ChannelKind.DEPHASING:
        return _decoherence_form(params, (b - c) * np.sqrt((1 - ga) * (1 - gb)) / 2.0)

    if kind is ChannelKind.PHASE_FLIP:
        return _decoherence_form(params, (b - c) * (1 - ga) * (1 - gb) / 2.0)

    m = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    _flip_diagonal(m, params, ga, gb)

    if kind is ChannelKind.BIT_FLIP:
        m[0, 4] = m[4, 0] = (b - c) * ga * (3 - 2 * gb) / 12.0
        m[2, 4] = m[4, 2] = m[0, 5] = m[5, 0] = (b - c) * (2 - ga) * gb / 12.0
        m[1, 5] = m[5, 1] = m[2, 3] = m[3, 2] = (b - c) * ga * gb / 12.0
        m[1, 3] = m[3, 1] = (b - c) * (2 - ga) * (3 - 2 * gb) / 12.0
        return m

    if kind is ChannelKind.BIT_PHASE_FLIP:
        m[0, 4] = m[4, 0] = -(b - c) * ga * (3 - 2 * gb) / 12.0
        m[0, 5] = m[5, 0] = m[2, 4] = m[4, 2] = (b - c) * (ga - 2) * gb / 24.0
        m[1, 3] = m[3, 1] = (b - c) * (2 - ga) * (3 - 2 * gb) / 12.0
        denom = 24.0 if corrected else 12.0
        m[1, 5] = m[5, 1] = m[2, 3] = m[3, 2] = (b - c) * ga * gb / denom
        return m

    if kind is ChannelKind.DEPOLARIZING:
        if corrected:
            m[1, 3] = m[3, 1] = (b - c) * (1 - ga) * (1 - gb) / 2.0
        else:
            m[1, 3] = m[3, 1] = (b - c) * (1 - ga) * (-gb) / 2.0
        return m

    raise ValueError(f"unknown channel kind {kind!r}")
