"""Negativity via two routes, closed-form negativities, and ESD detection.

Negativity is computed from the spectrum of the partial transpose over the
qutrit: once as trace norm minus one and once as twice the magnitude of the
negative-eigenvalue sum.  The two routes agree identically up to eigensolver
noise and both are reported.

Entanglement sudden death (ESD) means the negativity reaches zero at a
finite noise strength, strictly before the infinite-time limit gamma = 1.
The detector scans the interior of a uniform gamma grid and refines the
first dead point by bisection; a curve that stays positive at every interior
grid point (including curves that vanish exactly at gamma = 1, which is
asymptotic decay rather than sudden death) reports no ESD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelKind
from .evolution import ChannelScenario, Mode, evolve, evolve_grid, sweep_strengths
from .linalg import partial_transpose_qutrit
from .states import DensityMatrix, StateParams

#: Eigenvalues above this cutoff are eigensolver dust, not negativity.
NEGATIVE_EIG_CUTOFF = -1e-12

#: A state counts as disentangled once its negativity falls to this level.
ESD_NEGATIVITY_THRESHOLD = 1e-12

#: Coarse-scan resolution for ESD detection (grid step 1/512).
ESD_SCAN_STEPS = 512


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

    ``rho`` may also be a (..., 6, 6) stack of validated states, taking one
    batched eigensolve; each field of the result is then an array over the
    leading axes.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    pt = partial_transpose_qutrit(m)
    eigs = np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2.0)
    neg_sum = np.where(eigs < NEGATIVE_EIG_CUTOFF, eigs, 0.0).sum(axis=-1)
    # np.maximum(0.0, -neg_sum) would give -0.0 where no eigenvalue is negative.
    value = np.where(neg_sum < 0.0, -2.0 * neg_sum, 0.0)
    via_trace_norm = np.maximum(0.0, np.abs(eigs).sum(axis=-1) - 1.0)
    if pt.ndim == 2:
        return NegativityResult(float(value), float(neg_sum), float(via_trace_norm))
    return NegativityResult(value, neg_sum, via_trace_norm)


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
    b, c = params.b, params.c
    ga, gb = scenario.gamma_qubit, scenario.gamma_qutrit
    kind = scenario.kind

    if kind is ChannelKind.DEPHASING:
        return 2.0 * max(0.0, (c - b) / 2.0 * math.sqrt((1 - ga) * (1 - gb)) - b)

    if kind is ChannelKind.PHASE_FLIP:
        return 2.0 * max(0.0, (c - b) * (1 - ga) * (1 - gb) / 2.0 - b)

    if kind is ChannelKind.DEPOLARIZING:
        lam = (
            9 * (b - c) * ga * (gb - 1) + 2 * gb * (1 - 9 * b + 3 * c) + 18 * b - 6 * c
        ) / 12.0
        return 2.0 * max(0.0, -lam)

    if kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        if scenario.mode is Mode.QUBIT_ONLY:
            return 2.0 * max(0.0, (c - 3 * b - ga * (c - b)) / 2.0)
        if scenario.mode is Mode.QUTRIT_ONLY:
            if corrected:
                return 2.0 * max(0.0, (3 * c - 9 * b - (1 - 8 * b + 2 * c) * gb) / 6.0)
            return 2.0 * max(0.0, (3 * b - 9 * c - (1 - 8 * b + 2 * c) * gb) / 6.0)
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
    """Reject a bisection tolerance that is not a positive number."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")


def esd_gamma(
    kind: ChannelKind,
    mode: Mode,
    params: StateParams,
    tol: float = 1e-9,
) -> float | None:
    """Smallest sweep strength at which the numeric negativity has died.

    The negativity is scanned at the interior grid points k/512, one chunk
    of :func:`evolve_grid` at a time up to the first chunk holding a dead
    point, and the first point at or below ``ESD_NEGATIVITY_THRESHOLD`` is
    refined by bisection on one-point evaluations to within ``tol`` (a
    positive number), or until no float lies strictly between the bracket
    ends.  Returns None when the negativity stays
    above the threshold at every interior grid point; deaths occurring only
    inside the final grid cell (in particular exactly at gamma = 1) are
    reported as None, being asymptotic rather than sudden.
    """
    check_tol(tol)
    kind, mode = ChannelKind(kind), Mode(mode)
    if not params.is_entangled:
        raise ValueError("ESD detection requires an entangled initial state")

    def died(g: float) -> bool:
        state = evolve(ChannelScenario.at(kind, mode, g), params)
        return negativity_numeric(state).value <= ESD_NEGATIVITY_THRESHOLD

    grid = np.arange(1, ESD_SCAN_STEPS) / ESD_SCAN_STEPS
    scanned = 0
    for states in evolve_grid(kind, params, *sweep_strengths(mode, grid)):
        dead = negativity_numeric(states).value <= ESD_NEGATIVITY_THRESHOLD
        if dead.any():
            first = scanned + int(dead.argmax())
            break
        scanned += len(states)
    else:
        return None
    lo = float(grid[first - 1]) if first else 0.0
    hi = float(grid[first])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # no float lies strictly inside the bracket
        if died(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    """Run the bisection detector and the closed-form threshold side by side."""
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
