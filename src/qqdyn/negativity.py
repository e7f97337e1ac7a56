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
rho^Gamma(gamma) crosses zero.  Along one sweep the coefficients of the
characteristic polynomial of rho^Gamma are polynomials in the strength.
The Kraus weights of the mixed-unitary channels square to linear functions
of gamma.  Dephasing scales each off-diagonal entry (i, j) of rho^Gamma by
s^(n_i + n_j), s = sqrt(1 - gamma), and leaves the diagonal alone, so
every term of a principal minor carries an even power of s, a power of
1 - gamma.  The detector therefore evaluates rho^Gamma at 16 Chebyshev
nodes in gamma (one :func:`evolve_grid` chunk), interpolates the product
of its eigenvalues (leaving out the ones that vanish identically), and
takes the real roots in (0, 1) as candidates.  A 2x3 partial transpose can
have two negative eigenvalues at once (Rana, PRA 87, 054301, 2013), so the
numeric negativity about each root, in one more batch, certifies the first
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
from .linalg import BLOCK_SHAPE, TOTAL_DIM, partial_transpose_blocks, partial_transpose_qutrit
from .states import DensityMatrix, StateParams

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: Eigenvalues above this cutoff are eigensolver dust, not negativity.
NEGATIVE_EIG_CUTOFF = -1e-12

#: A state counts as disentangled once its negativity falls to this level.
ESD_NEGATIVITY_THRESHOLD = 1e-12

#: Chebyshev nodes of the ESD root search, the strengths
#: x_j = (1 - cos(pi (j + 1/2) / 16)) / 2 in (0, 1): one ``evolve_grid`` chunk.
ESD_NODES = 16
_ANGLES = np.pi * (np.arange(ESD_NODES) + 0.5) / ESD_NODES
_NODES = (1.0 - np.cos(_ANGLES)) / 2.0
#: Node values -> coefficients of the interpolant in T_k(1 - 2 gamma), by
#: the discrete cosine transform at the nodes.
_TO_CHEBYSHEV = 2.0 / ESD_NODES * np.cos(np.outer(np.arange(ESD_NODES), _ANGLES))
_TO_CHEBYSHEV[0] /= 2.0

#: The highest degree the eigenvalue product reaches (12, multi-local
#: bit-phase-flip); coefficients above it must stay below
#: ``ESD_DEGREE_TOL`` of the largest one, or the node values are not the
#: polynomial the root search assumes.
ESD_MAX_DEGREE = 12
ESD_DEGREE_TOL = 1e-10
#: Coefficients below this fraction of the largest are rounding noise
#: (measured below 5e-15) and are dropped before the roots are taken.
_NOISE_TOL = 1e-12
#: A complex root pair closer than this to the real axis is a double root
#: split by rounding, and is kept as a candidate.
_IMAG_TOL = 1e-6
#: Eigenvalues at or below this magnitude at every node are structural zeros.
_ZERO_EIG = 1e-12

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
    eigs = _pt_spectrum(m)
    neg_sum = np.where(eigs < NEGATIVE_EIG_CUTOFF, eigs, 0.0).sum(axis=-1)
    # np.maximum(0.0, -neg_sum) would give -0.0 where no eigenvalue is negative.
    value = np.where(neg_sum < 0.0, -2.0 * neg_sum, 0.0)
    via_trace_norm = np.maximum(0.0, np.abs(eigs).sum(axis=-1) - 1.0)
    if eigs.ndim == 1:
        return NegativityResult(float(value), float(neg_sum), float(via_trace_norm))
    return NegativityResult(value, neg_sum, via_trace_norm)


def _pt_spectrum(m: np.ndarray) -> np.ndarray:
    """The six eigenvalues of the partial transpose of each state in ``m``,
    along a new last axis.  A block stack gives each block's eigenvalues in
    ascending order, the S-even block's first; any other input is taken as
    6x6 matrices, whose eigenvalues come in ascending order, of the partial
    transpose taken Hermitian by averaging with its conjugate transpose."""
    if m.shape[-3:] == BLOCK_SHAPE:
        eigs = np.linalg.eigvalsh(partial_transpose_blocks(m))
        return eigs.reshape(*eigs.shape[:-2], TOTAL_DIM)
    pt = partial_transpose_qutrit(m)
    return np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2.0)


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


def _eigenvalue_product(states: np.ndarray) -> np.ndarray:
    """Product of the partial-transpose eigenvalues of each state in a stack,
    leaving out z zeros, where z is the fewest eigenvalues within
    ``_ZERO_EIG`` of zero at any one state.

    The product is the elementary symmetric polynomial e_{6-z} of the
    eigenvalues, a coefficient of the characteristic polynomial and so a
    polynomial in the matrix entries.
    """
    eigs = _pt_spectrum(states)
    zeros = int((np.abs(eigs) <= _ZERO_EIG).sum(axis=-1).min())
    e = np.zeros((len(eigs), TOTAL_DIM + 1))
    e[:, 0] = 1.0
    for k in range(TOTAL_DIM):
        e[:, 1:] = e[:, 1:] + eigs[:, k, None] * e[:, :-1]
    return e[:, TOTAL_DIM - zeros]


def _chebyshev_roots(c: np.ndarray) -> np.ndarray:
    """Complex roots of sum_k c_k T_k(t), c[-1] != 0, as the eigenvalues of
    the colleague matrix (the companion matrix of the Chebyshev basis),
    symmetrised by the scaling that numpy.polynomial also uses; importing
    numpy.polynomial for this would add about 2.8 ms and 0.13 MB."""
    n = len(c) - 1
    if n < 1:
        return np.empty(0, dtype=complex)
    if n == 1:
        return np.array([-c[0] / c[1]], dtype=complex)
    m = np.zeros((n, n))
    off = np.full(n - 1, 0.5)
    off[0] = np.sqrt(0.5)
    i = np.arange(n - 1)
    m[i, i + 1] = m[i + 1, i] = off
    scale = np.full(n, np.sqrt(0.5))
    scale[0] = 1.0
    m[:, -1] -= 0.5 * (c[:-1] / c[-1]) * (scale / scale[-1])
    return np.linalg.eigvals(m)


def _node_roots(values: np.ndarray) -> np.ndarray:
    """Real roots in (0, 1) of the polynomial through ``values`` at the
    Chebyshev nodes ``_NODES``, in no particular order.

    Raises ValueError when the interpolant's coefficients above
    ``ESD_MAX_DEGREE`` are not negligible, i.e. the values are not those of
    a polynomial of that degree.
    """
    c = _TO_CHEBYSHEV @ values
    scale = np.abs(c).max()
    tail = np.abs(c[ESD_MAX_DEGREE + 1 :]).max()
    if not tail <= ESD_DEGREE_TOL * scale:
        raise ValueError(
            f"partial-transpose eigenvalue product is not a polynomial of degree "
            f"<= {ESD_MAX_DEGREE}: degree {ESD_MAX_DEGREE + 1}+ coefficients reach "
            f"{tail / scale:.1e} of the largest"
        )
    c = c[: ESD_MAX_DEGREE + 1]
    c = c[: np.flatnonzero(np.abs(c) > _NOISE_TOL * scale)[-1] + 1]
    t = _chebyshev_roots(c)
    x = (1.0 - t[np.abs(t.imag) <= _IMAG_TOL].real) / 2.0
    return x[(x > 0.0) & (x < 1.0)]


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
    values: np.ndarray, alive: Callable[[np.ndarray], np.ndarray], tol: float
) -> tuple[float, float] | None:
    """Bracket (lo, hi), alive at lo and dead at hi, about the first death;
    None when the state stays entangled below gamma = 1.

    ``values`` are the eigenvalue products at the strengths ``_NODES``, and
    ``alive(g)`` tells for each strength of an array whether the state
    there is still entangled.  Each candidate root r is sampled at
    r -/+ ``ESD_BRACKET``, and the stretch up to the next root (or
    gamma = 1) at its midpoint, all in one call of ``alive``.  The first
    dead sample and the live sample before it (or gamma = 0) bracket the
    death, which :func:`_section` then narrows down to ``tol``.  A death
    bracketed only by gamma = 1 is asymptotic.
    """
    roots = _node_roots(values)
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

    The partial transpose is evaluated at the 16 Chebyshev nodes
    ``_NODES``; the real roots in (0, 1) of the interpolated eigenvalue
    product are the candidates, and the numeric negativity on either side
    of each certifies the first death (see :func:`_death_bracket`).  The
    certified bracket is sectioned, one batch of evaluations per step,
    until it is no wider than ``tol`` (a positive number), or until no
    float lies strictly between its ends, and its dead end is returned.
    Returns None when the negativity stays above ``ESD_NEGATIVITY_THRESHOLD``
    below gamma = 1; a death exactly at gamma = 1 is asymptotic decay.

    Raises ValueError if the node values fail the degree check, rather than
    returning a threshold from a wrong interpolant.
    """
    check_tol(tol)
    kind, mode = ChannelKind(kind), Mode(mode)
    check_entangled(params)
    (nodes,) = evolve_grid(kind, params, *sweep_strengths(mode, _NODES))
    alive = partial(sweep_alive, kind, mode, params)
    bracket = _death_bracket(_eigenvalue_product(nodes), alive, tol)
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
