"""Cross-validation of the Kraus numerics against every closed form.

The report has two parts.  ``checks`` are hard requirements: completeness
(the certificate that the import raises on, reported here as a check),
agreement between the corrected closed forms and the channel algebra,
threshold agreement with the closed forms, the certificate of every ESD
bracket, the local-channel equivalences, and the two negativity routes.
``closed_form_discrepancies`` documents the places where the raw reference
expressions are refuted by the Kraus numerics, together with the
numerically measured correct coefficients; these are findings, not failures.
Grids of strengths are evaluated through :func:`evolve_grid`, one call each.
The numeric leg of the ESD certificate evolves the states at both ends of
each bracket and counts one alive where its numeric negativity is non-zero:
the one numeric test of death (``negativity.NEGATIVE_EIG_CUTOFF``).
"""

from __future__ import annotations

import numpy as np

from .channels import COMPLETENESS_TOL, ChannelKind, completeness_defect
from .evolution import (
    ChannelScenario,
    Mode,
    RAW_FORM_MISMATCHES,
    analytic_evolved,
    evolve,
    evolve_grid,
    sweep_strengths,
)
from .linalg import from_blocks
from .negativity import (
    _LAST_BELOW_ONE,
    CANONICAL_POINTS,
    DEFAULT_TOL,
    NoClosedFormError,
    _alive,
    _block_invariants,
    _death_bracket,
    analytic_esd_gamma,
    analytic_negativities,
    esd_gamma,
    negativity_analytic,
    negativity_numeric,
)
from .states import StateParams, random_entangled_params

_SEED = 20120957


def _check(name: str, max_error: float, tolerance: float, detail: str = "") -> dict:
    return {
        "name": name,
        "passed": bool(max_error <= tolerance),
        "max_error": float(max_error),
        "tolerance": tolerance,
        "detail": detail,
    }


def _completeness_check() -> dict:
    """The largest completeness defect of the five kinds
    (``channels.completeness_defect``), taken from the table as it stands,
    so that a defect is a failed check rather than the error the import
    raises."""
    # np.max, unlike max, keeps a NaN.
    defect = float(np.max([completeness_defect(kind) for kind in ChannelKind]))
    return _check("kraus_completeness", defect, COMPLETENESS_TOL,
                  "Gram polynomials of 5 kinds x 2 sides at gamma = 0 and 1")


def _evolved_form_checks(points: list[StateParams]) -> tuple[list[dict], list[dict]]:
    checks = []
    discrepancies = []
    gammas = np.linspace(0.0, 1.0, 6)
    grid_qubit, grid_qutrit = (g.ravel() for g in np.meshgrid(gammas, gammas, indexing="ij"))
    for kind in ChannelKind:
        known = np.zeros((6, 6), dtype=bool)
        for pos in RAW_FORM_MISMATCHES.get(kind, ()):
            known[pos] = True
        diff_corrected, diff_raw = [], []
        for p in points:
            states = from_blocks(evolve_grid(kind, p, grid_qubit, grid_qutrit))
            diff_corrected.append(np.abs(states - analytic_evolved(kind, p, grid_qubit, grid_qutrit)))
            diff_raw.append(np.abs(states - analytic_evolved(kind, p, grid_qubit, grid_qutrit, corrected=False)))
        mismatch = np.array(diff_raw)
        mismatch[mismatch <= 1e-12] = 0.0
        worst_corrected = float(np.max(diff_corrected))
        worst_raw_outside = float(mismatch[..., ~known].max())
        worst_raw_known = float(mismatch[..., known].max(initial=0.0))
        checks.append(
            _check(
                f"evolved_closed_form_{kind.value}",
                worst_corrected,
                1e-12,
                "corrected form vs Kraus channels, entry-wise",
            )
        )
        checks.append(
            _check(
                f"evolved_raw_form_outside_known_entries_{kind.value}",
                worst_raw_outside,
                1e-12,
                "raw form vs Kraus channels away from the known entries",
            )
        )
        if kind in RAW_FORM_MISMATCHES:
            # Measure the correct coefficients at a reference point.
            p0 = StateParams(0.05, 0.6)
            ga, gb = 0.3, 0.7
            got = evolve(ChannelScenario(kind, Mode.MULTI_LOCAL, ga, gb), p0).matrix
            positions = sorted(RAW_FORM_MISMATCHES[kind])
            entry = {
                "form": f"{kind.value}_evolved",
                "positions": [list(pos) for pos in positions],
                "max_raw_mismatch": worst_raw_known,
                "measured_example": {
                    "b": p0.b,
                    "c": p0.c,
                    "gamma_qubit": ga,
                    "gamma_qutrit": gb,
                    "entries": {
                        f"({i},{j})": [float(got[i, j].real), float(got[i, j].imag)]
                        for (i, j) in positions
                    },
                },
            }
            if kind is ChannelKind.BIT_PHASE_FLIP:
                entry["raw_coefficient"] = "(b-c)*gamma_qubit*gamma_qutrit/12"
                entry["measured_coefficient"] = "(b-c)*gamma_qubit*gamma_qutrit/24"
            else:
                entry["raw_coefficient"] = "(b-c)*(1-gamma_qubit)*(-gamma_qutrit)/2"
                entry["measured_coefficient"] = "(b-c)*(1-gamma_qubit)*(1-gamma_qutrit)/2"
            discrepancies.append(entry)
    return checks, discrepancies


def _sweep_negativities(kind: ChannelKind, mode: Mode, params: StateParams, gammas) -> np.ndarray:
    """Numeric negativity at each sweep strength of one (kind, mode) cell,
    evolved in one :func:`evolve_grid` call."""
    return negativity_numeric(evolve_grid(kind, params, *sweep_strengths(mode, gammas))).value


def _closed_form_curves(points: list[StateParams]) -> dict:
    """(kind, mode) -> (closed form, numeric negativity), each a (points, 33)
    array over 33 even strengths, for every cell with a closed form.  Each
    numeric curve is evaluated once per run, for every check that needs it."""
    gammas = np.linspace(0.0, 1.0, 33)
    curves = {}
    for kind in ChannelKind:
        for mode in Mode:
            strengths = sweep_strengths(mode, gammas)
            try:
                closed = [analytic_negativities(kind, mode, p, *strengths) for p in points]
            except NoClosedFormError:
                continue
            numeric = [_sweep_negativities(kind, mode, p, gammas) for p in points]
            curves[kind, mode] = np.array(closed), np.array(numeric)
    return curves


def _negativity_form_checks(curves: dict) -> tuple[list[dict], list[dict]]:
    checks = [
        _check(
            f"negativity_closed_form_{kind.value}_{mode.value}",
            float(np.abs(closed - numeric).max()),
            1e-10,
            "corrected closed form vs numeric route",
        )
        for (kind, mode), (closed, numeric) in curves.items()
    ]
    # The raw trit-flip-only numerator is negative throughout the entangled
    # regime at zero strength, contradicting the initial negativity; record it.
    p0 = StateParams(0.05, 0.6)
    raw0 = negativity_analytic(
        ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, 0.0), p0, corrected=False
    )
    num0 = negativity_numeric(evolve(ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, 0.0), p0)).value
    discrepancy = {
        "form": "trit_flip_only_negativity",
        "raw_numerator": "3b - 9c - (1-8b+2c)*gamma",
        "measured_numerator": "3c - 9b - (1-8b+2c)*gamma",
        "raw_value_at_zero_strength": raw0,
        "measured_value_at_zero_strength": num0,
    }
    return checks, [discrepancy]


def _threshold_checks(curves: dict) -> list[dict]:
    """The closed-form threshold against the root search at (0.05, 0.6), for
    every cell with a closed form (the cells of ``curves``)."""
    p = StateParams(0.05, 0.6)
    checks = []
    for kind, mode in curves:
        analytic = analytic_esd_gamma(kind, mode, p)
        numeric = esd_gamma(kind, mode, p)
        err = np.inf if (analytic is None or numeric is None) else abs(analytic - numeric)
        checks.append(
            _check(
                f"esd_threshold_{kind.value}_{mode.value}",
                err,
                1e-6,
                f"analytic {analytic} vs root search {numeric} at (b,c)=(0.05,0.6)",
            )
        )
    return checks


def _equivalence_checks(curves: dict) -> list[dict]:
    bit_flip_q = curves[ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY][1]
    phase_flip_form = curves[ChannelKind.PHASE_FLIP, Mode.QUBIT_ONLY][0]
    worst_bf = float(np.abs(bit_flip_q - phase_flip_form).max())
    worst_bpf = max(
        float(np.abs(curves[ChannelKind.BIT_PHASE_FLIP, m][1] - curves[ChannelKind.BIT_FLIP, m][1]).max())
        for m in (Mode.QUBIT_ONLY, Mode.QUTRIT_ONLY)
    )
    return [
        _check("bit_flip_qubit_only_equals_phase_flip_form", worst_bf, 1e-10),
        _check("bit_phase_flip_local_equals_bit_flip_local", worst_bpf, 1e-10),
    ]


#: The edge points of the ESD search: deaths right at the separability
#: boundary, where c - 3b rounds to 5.6e-17, within ulps of gamma = 1 or a
#: hair below it, and where a chosen invariant's coefficients span 88
#: orders of magnitude.
_EDGE_POINTS = tuple(StateParams(b, c) for b, c in (
    (0.0, 1e-9), (0.0, 1e-7), (0.0, 1e-6), (0.15, 0.45), (1.1890606509269398e-88, 0.5),
    (4.1388748763351344e-17, 0.5167034084532541), (0.0, 1 - 3 * 2.0**-53), (0.0, 0.99999999),
    (1e-6, 0.5)))


def _esd_certificate_checks(tol: float = DEFAULT_TOL) -> list[dict]:
    """The first death that :func:`esd_gamma` brackets in each cell,
    certified two ways.  Exactly, at the canonical and the edge points: the
    bracket is alive at lo and dead at hi by the invariants' test of life,
    and no wider than ``tol``; where the search finds no death, the state is
    alive at the last float below 1.  Numerically, at the canonical points:
    the numeric negativity of the evolved states, which shares nothing with
    the invariant tables, is 0 at hi and > 0 at lo and at every strength
    j / 16 below lo, so no earlier death on that grid was missed."""
    widest = at_dead_end = 0.0
    deaths = 0
    for p in CANONICAL_POINTS + _EDGE_POINTS:
        for kind in ChannelKind:
            for mode in Mode:
                invariants, k = _block_invariants(kind, mode, p)
                ends = _death_bracket(invariants, k, tol) or (_LAST_BELOW_ONE,)
                certified = _alive(invariants, k, list(ends)) == [True, False][: len(ends)]
                widest = max(widest, ends[-1] - ends[0] if certified else np.inf)
                if len(ends) == 2 and p in CANONICAL_POINTS:
                    deaths += 1
                    gammas = [j / 16 for j in range(16) if j / 16 < ends[0]] + list(ends)
                    *before, at_hi = _sweep_negativities(kind, mode, p, gammas)
                    at_dead_end = max(at_dead_end, at_hi if min(before) > 0.0 else np.inf)
    points = f"{len(CANONICAL_POINTS)} canonical and {len(_EDGE_POINTS)} edge points"
    return [
        _check("esd_bracket_certified_exactly", widest, tol,
               f"bracket width; alive at lo, dead at hi, by the invariants, 15 cells at {points}"),
        _check("esd_bracket_certified_numerically", at_dead_end, 0.0,
               f"numeric negativity at hi, > 0 at lo and on a 1/16 grid below it, "
               f"at the {deaths} deaths of the canonical points"),
    ]


def _route_agreement_check(n: int = 200) -> list[dict]:
    """Two checks on ``n`` randomized evolved states: the two negativity
    routes agree, and the block route that sweeps and the ESD detector take
    (a real eigensolve of ``linalg.partial_transpose_blocks``) matches the
    product-basis reference, ``partial_transpose_qutrit`` and a complex
    eigensolve of the rebuilt 6x6 matrix."""
    rng = np.random.default_rng(_SEED + 1)
    kinds = list(ChannelKind)
    modes = list(Mode)
    routes = blocks = 0.0
    for p in random_entangled_params(rng, n):
        kind = kinds[int(rng.integers(len(kinds)))]
        mode = modes[int(rng.integers(len(modes)))]
        g = float(rng.uniform())
        (state,) = evolve_grid(kind, p, *sweep_strengths(mode, [g]))
        res = negativity_numeric(from_blocks(state))
        routes = max(routes, abs(res.value - res.via_trace_norm))
        blocks = max(blocks, abs(negativity_numeric(state).value - res.value))
    detail = f"{n} randomized evolved states"
    return [
        _check("negativity_route_agreement", routes, 1e-10, detail),
        _check("negativity_block_route_matches_product_basis", blocks, 1e-10, detail),
    ]


def run_validation() -> dict:
    """Run every cross-check and return the machine-readable report."""
    rng = np.random.default_rng(_SEED)
    points = random_entangled_params(rng, 20)

    checks = [_completeness_check()]
    form_checks, form_disc = _evolved_form_checks(points)
    checks.extend(form_checks)
    curves = _closed_form_curves(points)
    neg_checks, neg_disc = _negativity_form_checks(curves)
    checks.extend(neg_checks)
    checks.extend(_threshold_checks(curves))
    checks.extend(_esd_certificate_checks())
    checks.extend(_equivalence_checks(curves))
    checks.extend(_route_agreement_check())

    notes = [
        "the bit-phase-flip closed form entries (0,5),(5,0),(2,4),(4,2) match "
        "the Kraus numerics as written, with coefficient (b-c)*(gamma_qubit-2)*gamma_qutrit/24",
        "the multi-local phase-flip separability threshold (1-ga)(1-gb) <= 2b/(c-b) "
        "is confirmed unsquared, unlike its dephasing counterpart",
    ]
    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "closed_form_discrepancies": form_disc + neg_disc,
        "notes": notes,
    }
