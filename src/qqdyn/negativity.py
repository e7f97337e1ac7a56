"""Negativity via two routes, closed-form negativities, and ESD detection.

Negativity is computed from the spectrum of the partial transpose over the
qutrit: once as trace norm minus one and once as twice the magnitude of the
negative-eigenvalue sum.  The two routes agree identically up to eigensolver
noise and both are reported.  The evolved states come in block form (see
``linalg``): the partial transpose commutes with the symmetry S too, so it
is one fixed real map between block pairs, and the spectrum is that of two
real symmetric 3x3 blocks per state.  A 6x6 state of any kind takes a
complex 6x6 eigensolve of ``partial_transpose_qutrit`` instead, the
product-basis reference that ``validate`` holds the block route to.

Entanglement sudden death (ESD) means the negativity reaches zero at a
finite noise strength, strictly before the infinite-time limit gamma = 1.
For a qubit-qutrit state a positive partial transpose is necessary and
sufficient for separability (Horodecki, Horodecki & Horodecki 1996), so
the state dies exactly where the last negative eigenvalue of
rho^Gamma(gamma) crosses zero.  Along one sweep rho^Gamma, and so each of
its blocks' invariants (trace, principal-minor sum, determinant), is an
exact polynomial in y, 1 - gamma = y^k (k = 2 for dephasing, else 1),
built from the basis tables (``evolution._sweep_basis``).  The invariants
are linear, quadratic and cubic in the family weights (2a, 3b, c), so the
import tabulates them per cell over the monomials of those weights, and a
search contracts the tables with its point's monomials.  In y a
multiple root at gamma = 1 sits at y = 0, where trimming rounding noise
removes it; in gamma rounding would split it into false roots below 1.
The candidates are the real roots in (0, 1) of each block's highest
invariant that does not vanish identically, from both blocks' companion
matrices in one stacked eigensolve.  A 2x3 partial transpose can
have two negative eigenvalues at once (Rana, PRA 87, 054301, 2013), so the
numeric negativity about each root, in one batch, certifies the first
death, and :func:`_section` narrows that bracket to the tolerance.  A curve
that vanishes only at gamma = 1 is asymptotic decay and reports no ESD.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .channels import ChannelKind
from .evolution import ChannelScenario, Mode, evolve_grid, sweep_strengths
from .evolution import _polymul, _sweep_basis
from .linalg import BLOCK_SHAPE, TOTAL_DIM, partial_transpose_blocks, partial_transpose_qutrit
from .states import DensityMatrix, StateParams, family_weights

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: Eigenvalues above this cutoff are eigensolver dust, not negativity.
NEGATIVE_EIG_CUTOFF = -1e-12

#: A state counts as disentangled once its negativity falls to this level.
ESD_NEGATIVITY_THRESHOLD = 1e-12

#: A block invariant e_i whose coefficients stay within this fraction of the
#: largest of e_(i-1) vanishes identically (a zero eigenvalue at every strength).
_ZERO_TOL = 1e-12
#: Coefficients at either end of a polynomial below this fraction of its
#: largest are rounding noise (measured at most 3e-16) and are trimmed.
_NOISE_TOL = 1e-14
#: A complex root pair closer than this to the real axis is a double root
#: split by rounding, and is kept as a candidate.
_IMAG_TOL = 1e-6
#: Columns j + 1 and j + 2 (mod 3) for each column j of a 3x3 matrix.
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]

#: Half-width of the bracket that certifies a root.
ESD_BRACKET = 2.0**-31
#: Interior strengths that one :func:`_section` step samples, evenly spaced,
#: cutting the bracket into 16 parts: 4 bits per ``evolve_grid`` batch.
SECTION_SAMPLES = 15


@dataclass(frozen=True)
class NegativityResult:
    """Negativity with both computation routes retained.

    ``value`` is 2 * max(0, -negative_eigenvalue_sum); ``via_trace_norm`` is
    the trace norm of the partial transpose minus one, clamped at zero.
    Each field is a float for one state and an array for a stack of states.
    """

    value: float | np.ndarray
    negative_eigenvalue_sum: float | np.ndarray
    via_trace_norm: float | np.ndarray


def negativity_numeric(rho: DensityMatrix | np.ndarray) -> NegativityResult:
    """Negativity of a state from the partial-transpose spectrum.

    ``rho`` may be a :class:`DensityMatrix`, any validated 6x6 state or a
    (..., 6, 6) stack of them, whose partial transposes take one batched
    complex eigensolve; or a (..., 2, 3, 3) block stack as
    :func:`evolve_grid` yields it, whose partial transposes are block stacks
    too (``linalg.partial_transpose_blocks``) and take one batched real 3x3
    eigensolve.  For a stack each field of the result is an array over the
    leading axes.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    if m.shape[-3:] == BLOCK_SHAPE:
        eigs = np.linalg.eigvalsh(partial_transpose_blocks(m))
        eigs = eigs.reshape(*eigs.shape[:-2], TOTAL_DIM)
    else:
        pt = partial_transpose_qutrit(m)
        eigs = np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2.0)
    neg_sum = np.where(eigs < NEGATIVE_EIG_CUTOFF, eigs, 0.0).sum(axis=-1)
    # np.maximum(0.0, -neg_sum) would give -0.0 where no eigenvalue is negative.
    value = np.where(neg_sum < 0.0, -2.0 * neg_sum, 0.0)
    via_trace_norm = np.maximum(0.0, np.abs(eigs).sum(axis=-1) - 1.0)
    if eigs.ndim == 1:
        return NegativityResult(float(value), float(neg_sum), float(via_trace_norm))
    return NegativityResult(value, neg_sum, via_trace_norm)


def sweep_negativities(kind: ChannelKind, mode: Mode, params: StateParams, gammas: ArrayLike) -> np.ndarray:
    """Numeric negativity at each sweep strength of one (kind, mode) cell,
    evolved chunk by chunk through :func:`evolve_grid`."""
    chunks = evolve_grid(kind, params, *sweep_strengths(mode, gammas))
    return np.concatenate([negativity_numeric(states).value for states in chunks])


def sweep_alive(kind: ChannelKind, mode: Mode, params: StateParams, gammas: ArrayLike) -> np.ndarray:
    """Whether the state of one (kind, mode) cell is still entangled at each
    sweep strength: the one test of death, for the detector and its oracle."""
    return sweep_negativities(kind, mode, params, gammas) > ESD_NEGATIVITY_THRESHOLD


class NoClosedFormError(ValueError):
    """Raised for scenarios without a closed-form negativity
    (multi-local bit-flip and multi-local bit-phase-flip)."""


def negativity_analytic(
    scenario: ChannelScenario, params: StateParams, corrected: bool = True
) -> float:
    """Closed-form negativity for the scenario, if one exists.

    The trit-flip-only expression is used with its sign-corrected numerator
    (3c - 9b - ...), which is the form consistent with both its own stated
    separability threshold and the Kraus numerics; ``corrected=False``
    evaluates the raw numerator (3b - 9c - ...) instead.  The local bit-flip
    and bit-phase-flip cases reuse the phase-flip and trit-flip expressions,
    an equivalence that holds exactly.
    """
    x = _negativity_form(
        scenario.kind,
        scenario.mode,
        params,
        scenario.gamma_qubit,
        scenario.gamma_qutrit,
        corrected,
    )
    return float(2.0 * max(0.0, x))


def analytic_negativities(
    kind: ChannelKind,
    mode: Mode,
    params: StateParams,
    gamma_qubit: ArrayLike,
    gamma_qutrit: ArrayLike,
    corrected: bool = True,
) -> np.ndarray:
    """:func:`negativity_analytic` at each strength pair of one (kind, mode)
    cell, as an array shaped like the strengths, with the same values to
    the bit.  The strengths must suit the mode, as :class:`ChannelScenario`
    checks for one pair."""
    ga = np.asarray(gamma_qubit, dtype=float)
    gb = np.asarray(gamma_qutrit, dtype=float)
    x = _negativity_form(ChannelKind(kind), Mode(mode), params, ga, gb, corrected)
    # 2 max(0, x) as the scalar form takes it: +0.0 wherever x > 0 fails.
    return np.where(x > 0.0, 2.0 * x, 0.0)


def _negativity_form(kind, mode, params, ga, gb, corrected):
    """The x of the closed-form negativity 2 max(0, x), the one copy of each
    closed form, on float strengths or on strength arrays."""
    b, c = params.b, params.c

    if kind is ChannelKind.DEPHASING:
        return (c - b) / 2.0 * np.sqrt((1 - ga) * (1 - gb)) - b

    if kind is ChannelKind.PHASE_FLIP:
        return (c - b) * (1 - ga) * (1 - gb) / 2.0 - b

    if kind is ChannelKind.DEPOLARIZING:
        lam = (
            9 * (b - c) * ga * (gb - 1) + 2 * gb * (1 - 9 * b + 3 * c) + 18 * b - 6 * c
        ) / 12.0
        return -lam

    if kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        if mode is Mode.QUBIT_ONLY:
            return (c - 3 * b - ga * (c - b)) / 2.0
        if mode is Mode.QUTRIT_ONLY:
            if corrected:
                return (3 * c - 9 * b - (1 - 8 * b + 2 * c) * gb) / 6.0
            return (3 * b - 9 * c - (1 - 8 * b + 2 * c) * gb) / 6.0
        raise NoClosedFormError(
            f"no closed-form negativity for multi-local {kind.value}; use numerics"
        )

    raise ValueError(f"unknown channel kind {kind!r}")


def analytic_esd_gamma(kind: ChannelKind, mode: Mode, params: StateParams) -> float | None:
    """Closed-form ESD threshold on the sweep axis, or None.

    None means either no closed form exists for the scenario (multi-local
    bit-flip and bit-phase-flip) or the threshold is not below 1, i.e. the
    state never dies at finite time.  Multi-local thresholds are for the
    equal-strength diagonal.
    """
    kind, mode = ChannelKind(kind), Mode(mode)
    b, c = params.b, params.c
    if not params.is_entangled:
        raise ValueError("ESD thresholds are defined for entangled parameters only")

    if kind is ChannelKind.DEPHASING:
        ratio = 2 * b / (c - b)
        t = 1.0 - ratio if mode is Mode.MULTI_LOCAL else 1.0 - ratio**2
    elif kind is ChannelKind.PHASE_FLIP:
        ratio = 2 * b / (c - b)
        t = 1.0 - math.sqrt(ratio) if mode is Mode.MULTI_LOCAL else (c - 3 * b) / (c - b)
    elif kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        if mode is Mode.QUBIT_ONLY:
            t = (c - 3 * b) / (c - b)
        elif mode is Mode.QUTRIT_ONLY:
            t = (3 * c - 9 * b) / (1 - 8 * b + 2 * c)
        else:
            return None
    elif kind is ChannelKind.DEPOLARIZING:
        if mode is Mode.QUBIT_ONLY:
            t = (2 * c - 6 * b) / (3 * (c - b))
        elif mode is Mode.QUTRIT_ONLY:
            t = (3 * c - 9 * b) / (1 - 9 * b + 3 * c)
        else:
            # Smaller root of the equal-strength separability condition
            # 9(c-b) g (1-g) + 2 g (1-9b+3c) = 6(c-3b).
            qa = 9 * (c - b)
            qb = qa + 2 * (1 - 9 * b + 3 * c)
            qc = 6 * (c - 3 * b)
            t = (qb - math.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
    else:
        raise ValueError(f"unknown channel kind {kind!r}")

    return t if 0.0 < t < 1.0 else None


def check_tol(tol: float) -> None:
    """Reject an ESD bracket tolerance that is not a positive number."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")


def check_entangled(params: StateParams) -> None:
    """Reject a point outside the entangled regime, where no ESD is defined."""
    if not params.is_entangled:
        raise ValueError("ESD detection requires an entangled initial state")


def _invariant_forms(pt: np.ndarray) -> list[np.ndarray]:
    """e_1, e_2 and e_3 of the eigenvalues of the blocks A = sum_j x_j
    pt[:, j], as forms in the x_j.  ``pt`` holds 3x3 polynomial blocks:
    coefficients of 1, y, ... along axis 0, then the j axis, then any
    further axes, which the forms keep, then the 3x3.  e_i comes back with
    its coefficients along axis 0, then i axes of j, then the further axes;
    summed times x_j x_k ... over every j, k, ... it is e_i of the blocks
    A.  e_1 = tr A, e_2 = ((tr A)^2 - tr A^2) / 2 and e_3 = det A by the
    cofactors of row 0, its rows 0, 1 and 2 taken from pt[:, j], pt[:, k]
    and pt[:, l]: the determinant is linear in each row.  The arithmetic
    keeps the dtype of ``pt``, so exact rationals stay exact."""
    tr = np.trace(pt, axis1=-2, axis2=-1)
    squares = _polymul(pt[:, :, None], pt[:, None].swapaxes(-1, -2)).sum(axis=(-2, -1))
    r0 = pt[:, :, None, None, ..., 0, :]
    r1 = pt[:, None, :, None, ..., 1, :]
    r2 = pt[:, None, None, :, ..., 2, :]
    cofactors = _polymul(r1[..., _NEXT], r2[..., _AFTER])
    cofactors -= _polymul(r1[..., _AFTER], r2[..., _NEXT])
    return [
        tr,
        (_polymul(tr[:, :, None], tr[:, None]) - squares) / 2,
        _polymul(r0, cofactors).sum(axis=-1),
    ]


def _invariant_tables() -> dict[tuple[ChannelKind, Mode], tuple[list[np.ndarray], int]]:
    """Per cell, e_1, e_2 and e_3 of the partial transpose's blocks along its
    sweep (:func:`_invariant_forms` of ``evolution._sweep_basis``) as tables
    over the monomials of the family weights (2a, 3b, c): 3, 9 and 27 rows
    of coefficients of 1, y, ..., both blocks interleaved; and k,
    1 - gamma = y^k.  The cells of one degree in y go through one call."""
    bases = {(kind, mode): _sweep_basis(kind, mode) for kind in ChannelKind for mode in Mode}
    by_degree = {}
    for cell, (basis, _) in bases.items():
        by_degree.setdefault(len(basis), []).append(cell)
    tables = {}
    for cells in by_degree.values():
        # The cells on an axis after the basis axis, which the forms keep.
        pt = np.stack([bases[cell][0] for cell in cells], axis=2)
        # Coefficients after the cell axis: e_i[..., cell, :, :] is a table.
        forms = [np.moveaxis(e, 0, -2) for e in _invariant_forms(partial_transpose_blocks(pt))]
        for j, cell in enumerate(cells):
            tables[cell] = (
                [e[..., j, :, :].reshape(3**i, -1) for i, e in enumerate(forms, 1)],
                bases[cell][1],
            )
    return tables


#: The invariant tables of every cell, built once at import.
_INVARIANT_TABLES = _invariant_tables()


def _block_invariants(kind: ChannelKind, mode: Mode, params: StateParams) -> tuple[list, int]:
    """Per block of the partial transpose along one cell's sweep, S-even
    first, the highest invariant e_i of its eigenvalues that does not vanish
    identically, as (i, coefficients of 1, y, ...), 1 - gamma = y^k; and k.
    Each e_i is the cell's table (:func:`_invariant_tables`) times the
    point's monomials of degree i in its family weights; e_i vanishes when
    its coefficients stay within ``_ZERO_TOL`` of those of e_(i-1), e_0 = 1."""
    tables, k = _INVARIANT_TABLES[kind, mode]
    x = family_weights(params)
    xx = (x[:, None] * x).ravel()
    invariants = [
        (monomials @ table).reshape(-1, 2)
        for monomials, table in zip((x, xx, (xx[:, None] * x).ravel()), tables)
    ]
    scale = [[1.0, 1.0]] + [np.abs(e).max(axis=0).tolist() for e in invariants]
    chosen = []
    for block in range(2):
        for i in (3, 2, 1):
            if not scale[i][block] <= _ZERO_TOL * scale[i - 1][block]:
                chosen.append((i, invariants[i - 1][:, block]))
                break
    return chosen, k


def _strengths_of_roots(coefficients: list[np.ndarray], k: int) -> np.ndarray:
    """The strengths 1 - y^k in (0, 1), in no set order, of the real roots y
    in (0, 1) of each polynomial sum_i c_i y^i of ``coefficients``, noise
    trimmed at both ends (``_NOISE_TOL``), as eigenvalues of their
    power-basis companion matrices in one stacked eigensolve (numpy.polynomial
    would add about 2.8 ms and 0.13 MB of import).  A shorter polynomial's
    companion is padded with -1 on the diagonal, whose roots y > 0 drops."""
    trimmed = []
    for c in coefficients:
        big = np.flatnonzero(np.abs(c) > _NOISE_TOL * np.abs(c).max())
        trimmed.append(c[big[0] : big[-1] + 1])
    size = max(len(c) for c in trimmed) - 1
    if size < 1:
        return np.empty(0)
    companions = np.zeros((len(trimmed), size, size))
    for companion, c in zip(companions, trimmed):
        n = len(c) - 1
        companion[:n, :n] = np.eye(n, k=-1)
        companion[:n, n - 1] -= c[:-1] / c[-1]
        pad = np.arange(n, size)
        companion[pad, pad] = -1.0
    y = np.linalg.eigvals(companions).ravel()
    y = y[np.abs(y.imag) <= _IMAG_TOL].real
    g = 1.0 - y**k
    return g[(y > 0.0) & (g > 0.0) & (g < 1.0)]


def _esd_candidates(kind: ChannelKind, mode: Mode, params: StateParams) -> np.ndarray:
    """The candidate death strengths of one cell, from both blocks' invariants."""
    chosen, k = _block_invariants(kind, mode, params)
    return _strengths_of_roots([c for _, c in chosen], k)


def _narrow(
    lo: float, hi: float, samples: np.ndarray, alive: np.ndarray
) -> tuple[float, float]:
    """Bracket the first death with evaluated samples: the first dead sample
    (or ``hi``) and the last live sample before it (or ``lo``).  Samples
    may come in any order; they are not sorted, since numpy's sort kernels
    add about 0.25 MB of resident memory to handle a dozen numbers."""
    dead = samples[~alive]
    if dead.size:
        hi = min(hi, float(dead.min()))
    before = samples[alive & (samples < hi)]
    if before.size:
        lo = max(lo, float(before.max()))
    return lo, hi


def _section(
    lo: float, hi: float, alive: Callable[[np.ndarray], np.ndarray], tol: float
) -> tuple[float, float]:
    """Narrow a bracket (lo, hi), alive at lo and dead at hi, until it is no
    wider than ``tol`` or no float lies strictly inside it.  Each step
    evaluates ``SECTION_SAMPLES`` evenly spaced interior strengths in one
    call of ``alive`` and keeps the first dead sample and the live sample
    before it."""
    steps = np.arange(1, SECTION_SAMPLES + 1) / (SECTION_SAMPLES + 1)
    while hi - lo > tol:
        samples = lo + (hi - lo) * steps
        samples = samples[(samples > lo) & (samples < hi)]
        if not samples.size:
            break  # no float lies strictly inside the bracket
        lo, hi = _narrow(lo, hi, samples, alive(samples))
    return lo, hi


def _death_bracket(
    roots: np.ndarray, alive: Callable[[np.ndarray], np.ndarray], tol: float
) -> tuple[float, float] | None:
    """Bracket (lo, hi), alive at lo and dead at hi, about the first death;
    None when the state stays entangled below gamma = 1.

    ``roots`` are the candidate strengths in (0, 1), in any order, and
    ``alive(g)`` tells for each strength of an array whether the state
    there is still entangled.  Each candidate root r is sampled at
    r -/+ ``ESD_BRACKET``, and the stretch up to the next root (or
    gamma = 1) at its midpoint, all in one call of ``alive``.  The first
    dead sample and the live sample before it (or gamma = 0) bracket the
    death, which :func:`_section` then narrows down to ``tol``.  A death
    bracketed only by gamma = 1 is asymptotic.
    """
    if not roots.size:
        return None
    h = ESD_BRACKET
    # The next root above each root, or gamma = 1 above the last.
    after = np.where(roots > roots[:, None], roots, 1.0).min(axis=1)
    mids = (roots + after) / 2.0
    samples = np.clip(np.concatenate([roots - h, roots + h, mids[mids > roots + h]]), 0.0, 1.0)
    lo, hi = _narrow(0.0, np.inf, samples, alive(samples))
    if hi >= 1.0:
        return None
    return _section(lo, hi, alive, tol)


def esd_gamma(
    kind: ChannelKind,
    mode: Mode,
    params: StateParams,
    tol: float = 1e-9,
) -> float | None:
    """Smallest sweep strength at which the numeric negativity has died.

    The numeric negativity on either side of each candidate
    (:func:`_esd_candidates`) certifies the first death
    (:func:`_death_bracket`).  The certified bracket is sectioned, one batch
    of evaluations per step, until it is no wider than ``tol`` (a positive
    number) or no float lies strictly between its ends, and its dead end is
    returned.  Returns None when the negativity stays above
    ``ESD_NEGATIVITY_THRESHOLD`` below gamma = 1; a death exactly at
    gamma = 1 is asymptotic decay.
    """
    check_tol(tol)
    kind, mode = ChannelKind(kind), Mode(mode)
    check_entangled(params)
    alive = partial(sweep_alive, kind, mode, params)
    bracket = _death_bracket(_esd_candidates(kind, mode, params), alive, tol)
    return None if bracket is None else bracket[1]


@dataclass(frozen=True)
class EsdReport:
    """ESD findings for one (kind, mode) cell at one parameter point."""

    kind: ChannelKind
    mode: Mode
    b: float
    c: float
    esd_gamma: float | None
    analytic_gamma: float | None
    classification: str  # "ESD" or "NoESD"


def esd_report(
    kind: ChannelKind, mode: Mode, params: StateParams, tol: float = 1e-9
) -> EsdReport:
    """Run the ESD detector and the closed-form threshold side by side."""
    numeric = esd_gamma(kind, mode, params, tol=tol)
    analytic = analytic_esd_gamma(kind, mode, params)
    return EsdReport(
        kind=ChannelKind(kind),
        mode=Mode(mode),
        b=params.b,
        c=params.c,
        esd_gamma=numeric,
        analytic_gamma=analytic,
        classification="ESD" if numeric is not None else "NoESD",
    )


#: Canonical parameter points for the 15-cell ESD classification: the two
#: pure-psi-minus-dominated points, a near-boundary point with a slightly
#: positive, and three interior points.
CANONICAL_POINTS: tuple[StateParams, ...] = (
    StateParams(0.0, 1.0),
    StateParams(0.0, 0.5),
    StateParams(1.0 / 30.0, 0.899),
    StateParams(0.05, 0.8),
    StateParams(0.05, 0.2),
    StateParams(4.0 / 30.0, 0.45),
)

#: Reference classification per (kind, mode) cell:
#:   "b_nonzero" - ESD exactly when b != 0
#:   "always"    - ESD for every entangled parameter point
#:   "exists"    - ESD for at least one point, not necessarily all
REFERENCE_ESD_TABLE: dict[tuple[ChannelKind, Mode], str] = {
    (ChannelKind.DEPHASING, Mode.MULTI_LOCAL): "b_nonzero",
    (ChannelKind.DEPHASING, Mode.QUBIT_ONLY): "b_nonzero",
    (ChannelKind.DEPHASING, Mode.QUTRIT_ONLY): "b_nonzero",
    (ChannelKind.PHASE_FLIP, Mode.MULTI_LOCAL): "b_nonzero",
    (ChannelKind.PHASE_FLIP, Mode.QUBIT_ONLY): "b_nonzero",
    (ChannelKind.PHASE_FLIP, Mode.QUTRIT_ONLY): "b_nonzero",
    (ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL): "exists",
    (ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY): "b_nonzero",
    (ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY): "always",
    (ChannelKind.BIT_PHASE_FLIP, Mode.MULTI_LOCAL): "exists",
    (ChannelKind.BIT_PHASE_FLIP, Mode.QUBIT_ONLY): "b_nonzero",
    (ChannelKind.BIT_PHASE_FLIP, Mode.QUTRIT_ONLY): "always",
    (ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL): "exists",
    (ChannelKind.DEPOLARIZING, Mode.QUBIT_ONLY): "always",
    (ChannelKind.DEPOLARIZING, Mode.QUTRIT_ONLY): "always",
}


def cell_summary(reports: list[EsdReport]) -> dict:
    """Observed label of one table cell, in the labels of ``REFERENCE_ESD_TABLE``
    plus "never", with the ESD and point counts."""
    esd_points = [r for r in reports if r.classification == "ESD"]
    b_zero = [r for r in reports if r.b == 0.0]
    b_nonzero = [r for r in reports if r.b != 0.0]
    if len(esd_points) == len(reports):
        observed = "always"
    elif not esd_points:
        observed = "never"
    elif all(r.classification == "NoESD" for r in b_zero) and all(
        r.classification == "ESD" for r in b_nonzero
    ):
        observed = "b_nonzero"
    else:
        observed = "exists"
    return {
        "observed": observed,
        "esd_count": len(esd_points),
        "point_count": len(reports),
    }


def semantics_match(reference: str, reports: list[EsdReport]) -> bool:
    """Whether the reports of one cell satisfy its ``REFERENCE_ESD_TABLE`` label."""
    if reference == "always":
        return all(r.classification == "ESD" for r in reports)
    if reference == "b_nonzero":
        return all(
            (r.classification == "ESD") == (r.b != 0.0) for r in reports
        )
    if reference == "exists":
        return any(r.classification == "ESD" for r in reports)
    raise ValueError(reference)


def classify_table1(params: StateParams, tol: float = 1e-9) -> list[EsdReport]:
    """ESD reports for all 15 (kind, mode) cells at one parameter point."""
    return [
        esd_report(kind, mode, params, tol=tol)
        for kind in ChannelKind
        for mode in Mode
    ]
