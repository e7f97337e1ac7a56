"""Acceptance suite: one test (or a small group) per exit criterion.

Each check prints a single `[acceptance] ... PASS/FAIL` line so the suite
doubles as a report.  Run with `pytest tests/test_acceptance.py -v -s`.

The reference table marks the two qutrit-only flip cells (trit-flip and
trit-phase-flip) "always": death at finite time for every entangled point.
Their closed-form threshold (3c - 9b)/(1 - 8b + 2c) lies below 1 exactly
when c - b < 1, which, given 2a + 3b + c = 1, holds at every entangled point
except the maximally entangled boundary (b, c) = (0, 1).  There the state is
the pure psi-minus, its negativity is exactly 1 - gamma, and it vanishes only
at the infinite-time limit gamma = 1: asymptotic decay, not sudden death.
The checks for these cells therefore assert the measured classification (the
closed-form threshold wherever c - b < 1, and N = 1 - gamma with no ESD at
(0, 1)), and their report line names the point where the reference's
"always" does not hold.  The reference table itself is left as the paper
states it.
"""

import numpy as np
import pytest
from pytest import approx

from qqdyn import (
    CANONICAL_POINTS,
    ChannelKind,
    ChannelScenario,
    Mode,
    OPERATOR_COUNTS,
    RAW_FORM_MISMATCHES,
    REFERENCE_ESD_TABLE,
    Side,
    StateParams,
    analytic_evolved,
    coherence_l1,
    esd_gamma,
    evolve,
    initial_state,
    negativity_analytic,
    negativity_numeric,
    random_entangled_params,
)
from qqdyn.channels import kraus_operators


def _report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def grid_points():
    return random_entangled_params(np.random.default_rng(100), 20)


@pytest.fixture(scope="module")
def table(request):
    """ESD detection for all 15 cells over the canonical parameter points."""
    out = {}
    for kind in ChannelKind:
        for mode in Mode:
            out[(kind, mode)] = [
                esd_gamma(kind, mode, p) for p in CANONICAL_POINTS
            ]
    return out


def test_criterion_1_kraus_completeness():
    worst = 0.0
    counts_ok = True
    for kind in ChannelKind:
        for side in Side:
            for g in np.linspace(0.0, 1.0, 11):
                ops = kraus_operators(kind, side, [g])[0]
                counts_ok &= len(ops) == OPERATOR_COUNTS[(kind, side)]
                total = sum(k.conj().T @ k for k in ops)
                worst = max(worst, float(np.abs(total - np.eye(6)).max()))
    _report("C1 kraus completeness", counts_ok and worst <= 1e-12, f"max defect {worst:.2e}")


def test_criterion_2_evolved_matrix_oracles(grid_points):
    gammas = np.linspace(0.0, 1.0, 32)
    rect = np.linspace(0.0, 1.0, 6)
    worst_exact = 0.0
    mismatch_sets_ok = True
    measured = {}
    for kind in ChannelKind:
        excluded = set(RAW_FORM_MISMATCHES.get(kind, ()))
        seen = set()
        worst_raw_outside = 0.0
        for p in grid_points:
            for g in gammas:
                got = evolve(ChannelScenario.at(kind, Mode.MULTI_LOCAL, float(g)), p).matrix
                raw = analytic_evolved(kind, p, float(g), float(g), corrected=False)
                diff = np.abs(got - raw)
                for i, j in zip(*np.where(diff > 1e-12)):
                    seen.add((int(i), int(j)))
                mask = np.ones((6, 6), dtype=bool)
                for pos in excluded:
                    mask[pos] = False
                worst_raw_outside = max(worst_raw_outside, float(diff[mask].max()))
        # Independent strengths on a coarse rectangle, corrected forms exact.
        for p in grid_points[:5]:
            for ga in rect:
                for gb in rect:
                    got = evolve(ChannelScenario(kind, Mode.MULTI_LOCAL, float(ga), float(gb)), p).matrix
                    want = analytic_evolved(kind, p, float(ga), float(gb))
                    worst_exact = max(worst_exact, float(np.abs(got - want).max()))
        mismatch_sets_ok &= seen <= excluded
        if excluded:
            mismatch_sets_ok &= seen == excluded
            p0, ga, gb = StateParams(0.05, 0.6), 0.3, 0.7
            got = evolve(ChannelScenario(kind, Mode.MULTI_LOCAL, ga, gb), p0).matrix
            measured[kind.value] = {pos: complex(got[pos]) for pos in sorted(excluded)}
        worst_exact = max(worst_exact, worst_raw_outside)

    # Measured correct values at the flagged entries.
    b, c, ga, gb = 0.05, 0.6, 0.3, 0.7
    bpf_ok = all(
        v == approx((b - c) * ga * gb / 24.0, abs=1e-14)
        for v in measured["bitphaseflip"].values()
    )
    dep_ok = all(
        v == approx((b - c) * (1 - ga) * (1 - gb) / 2.0, abs=1e-14)
        for v in measured["depolarizing"].values()
    )
    _report(
        "C2 evolved-matrix oracles",
        worst_exact <= 1e-12 and mismatch_sets_ok and bpf_ok and dep_ok,
        f"max entry error {worst_exact:.2e}; flagged entries measured "
        f"bitphaseflip (b-c)ga*gb/24, depolarizing (b-c)(1-ga)(1-gb)/2",
    )


def test_criterion_3_initial_negativity():
    worst = 0.0
    for b in np.linspace(0.0, 1.0 / 6.0, 20, endpoint=False):
        for c in np.linspace(0.0, 1.0, 20):
            if not 3 * b < c <= 1 - 3 * b:
                continue
            p = StateParams(b, c)
            n = negativity_numeric(initial_state(p)).value
            worst = max(worst, abs(n - (c - 3 * b)))
    _report("C3 initial negativity c-3b", worst <= 1e-10, f"max error {worst:.2e}")


def test_criterion_4_esd_thresholds():
    p = StateParams(0.05, 0.6)
    cases = [
        ("dephasing qubit-only", ChannelKind.DEPHASING, Mode.QUBIT_ONLY, 117 / 121, 0.966942),
        ("phase-flip qubit-only", ChannelKind.PHASE_FLIP, Mode.QUBIT_ONLY, 9 / 11, 0.818182),
        ("phase-flip qutrit-only", ChannelKind.PHASE_FLIP, Mode.QUTRIT_ONLY, 9 / 11, 0.818182),
        ("depolarizing qubit-only", ChannelKind.DEPOLARIZING, Mode.QUBIT_ONLY, 6 / 11, 0.545455),
        ("depolarizing qutrit-only", ChannelKind.DEPOLARIZING, Mode.QUTRIT_ONLY, 27 / 47, 0.574468),
        ("trit-flip qutrit-only", ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, 0.75, 0.75),
    ]
    worst = 0.0
    for name, kind, mode, formula, quoted in cases:
        got = esd_gamma(kind, mode, p)
        assert got is not None, name
        worst = max(worst, abs(got - formula), abs(got - quoted))
    _report("C4 esd thresholds at (0.05,0.6)", worst <= 1e-6, f"max |bisect-analytic| {worst:.2e}")


def _esd_iff_b_nonzero(results):
    return all(
        (g is not None) == (p.b != 0.0) for g, p in zip(results, CANONICAL_POINTS)
    )


def test_criterion_5_table_dephasing_row(table):
    ok = all(_esd_iff_b_nonzero(table[(ChannelKind.DEPHASING, m)]) for m in Mode)
    _report("C5 table: dephasing row ESD iff b!=0 (all modes)", ok)


def test_criterion_5_table_phase_flip_row(table):
    ok = all(_esd_iff_b_nonzero(table[(ChannelKind.PHASE_FLIP, m)]) for m in Mode)
    _report("C5 table: phase-flip row ESD iff b!=0 (all modes)", ok)


def test_criterion_5_table_bit_flip_qubit_only(table):
    ok = _esd_iff_b_nonzero(table[(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY)])
    _report("C5 table: bit-flip qubit-only ESD iff b!=0", ok)


def _check_qutrit_only_flip_cell(table, kind: ChannelKind, label: str) -> None:
    """Assert the measured ESD classification of a qutrit-only flip cell.

    Where c - b < 1 the detector must find death at the closed-form threshold
    (3c - 9b)/(1 - 8b + 2c).  Elsewhere (only (b, c) = (0, 1) among entangled
    points) the negativity must be 1 - gamma on the interior grid and no ESD
    may be reported, contrary to the reference's "always".
    """
    cell = (kind, Mode.QUTRIT_ONLY)
    ok = REFERENCE_ESD_TABLE[cell] == "always"
    parts = []
    for g, p in zip(table[cell], CANONICAL_POINTS):
        point = f"(b={p.b:.3g},c={p.c:.3g})"
        if p.c - p.b < 1.0:
            threshold = (3 * p.c - 9 * p.b) / (1 - 8 * p.b + 2 * p.c)
            ok &= g is not None and abs(g - threshold) <= 1e-6
            parts.append(f"{point}->{g} vs {threshold:.6g}")
        else:
            worst = max(
                abs(
                    negativity_numeric(
                        evolve(ChannelScenario.at(kind, Mode.QUTRIT_ONLY, k / 512), p)
                    ).value
                    - (1.0 - k / 512)
                )
                for k in range(1, 512)
            )
            ok &= g is None and worst <= 1e-10
            parts.append(
                f"{point}->{g}: reference 'always' does not hold here, "
                f"N = 1-gamma to {worst:.2e}, asymptotic decay"
            )
    _report(f"C5 table: {label} qutrit-only ESD at (3c-9b)/(1-8b+2c) where c-b<1", ok, "; ".join(parts))


def test_criterion_5_table_bit_flip_qutrit_only(table):
    _check_qutrit_only_flip_cell(table, ChannelKind.BIT_FLIP, "trit-flip")


def test_criterion_5_table_bit_flip_multi_local(table):
    results = table[(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL)]
    some = any(g is not None for g in results)
    dependent = any(g is None for g in results)
    _report("C5 table: bit-flip multi-local ESD exists, parameter-dependent", some and dependent)


def test_criterion_5_table_bit_phase_flip_qubit_only(table):
    ok = _esd_iff_b_nonzero(table[(ChannelKind.BIT_PHASE_FLIP, Mode.QUBIT_ONLY)])
    _report("C5 table: bit-phase-flip qubit-only ESD iff b!=0", ok)


def test_criterion_5_table_bit_phase_flip_qutrit_only(table):
    _check_qutrit_only_flip_cell(table, ChannelKind.BIT_PHASE_FLIP, "trit-phase-flip")


def test_criterion_5_table_bit_phase_flip_multi_local(table):
    results = table[(ChannelKind.BIT_PHASE_FLIP, Mode.MULTI_LOCAL)]
    _report("C5 table: bit-phase-flip multi-local ESD exists", any(g is not None for g in results))


def test_criterion_5_table_depolarizing_row(table):
    ok = all(
        all(g is not None for g in table[(ChannelKind.DEPOLARIZING, m)]) for m in Mode
    )
    _report("C5 table: depolarizing row ESD in all modes for all points", ok)


def test_criterion_6_figure_properties():
    bell = StateParams(0.0, 1.0)
    # Multi-local bit-flip keeps the maximally entangled state alive at every
    # interior grid point; the widest a=0 mixture dies early.
    interior_min = min(
        negativity_numeric(
            evolve(ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, k / 512), bell)
        ).value
        for k in range(1, 512)
    )
    no_esd_bell = esd_gamma(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, bell) is None
    g_wide = esd_gamma(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, StateParams.a_zero(4 / 30))
    g_bpf = esd_gamma(ChannelKind.BIT_PHASE_FLIP, Mode.MULTI_LOCAL, bell)

    ok = (
        no_esd_bell
        and interior_min > 1e-12
        and g_wide == approx(0.271139015, abs=1e-6)
        and g_bpf is not None
        and g_bpf < 1.0
        and g_bpf == approx(0.720136377, abs=1e-6)
    )
    _report(
        "C6 figure properties",
        ok,
        f"bit-flip bell min N {interior_min:.2e}, b=4/30 crossing {g_wide}, "
        f"bit-phase-flip bell crossing {g_bpf}",
    )


def test_criterion_7_coherence_dichotomy():
    p = StateParams(0.05, 0.6)  # b != c
    vanish = {}
    survive = {}
    for kind in ChannelKind:
        c = coherence_l1(evolve(ChannelScenario.at(kind, Mode.MULTI_LOCAL, 1.0), p))
        if kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
            survive[kind.value] = c
        else:
            vanish[kind.value] = c
    ok = all(v <= 1e-12 for v in vanish.values()) and all(v > 1e-3 for v in survive.values())
    _report(
        "C7 coherence dichotomy at full strength",
        ok,
        f"vanishing {max(vanish.values()):.2e}, surviving min {min(survive.values()):.3f}",
    )


def test_criterion_8_local_channel_equivalences(grid_points):
    gammas = np.linspace(0.0, 1.0, 33)
    worst_bf = 0.0
    worst_bpf = 0.0
    for p in grid_points:
        for g in gammas:
            g = float(g)
            bf_qubit = negativity_numeric(
                evolve(ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY, g), p)
            ).value
            pf_form = negativity_analytic(
                ChannelScenario.at(ChannelKind.PHASE_FLIP, Mode.QUBIT_ONLY, g), p
            )
            worst_bf = max(worst_bf, abs(bf_qubit - pf_form))
            for mode in (Mode.QUBIT_ONLY, Mode.QUTRIT_ONLY):
                bpf = negativity_numeric(evolve(ChannelScenario.at(ChannelKind.BIT_PHASE_FLIP, mode, g), p)).value
                bf = negativity_numeric(evolve(ChannelScenario.at(ChannelKind.BIT_FLIP, mode, g), p)).value
                worst_bpf = max(worst_bpf, abs(bpf - bf))
    _report(
        "C8 local-channel equivalences",
        worst_bf <= 1e-10 and worst_bpf <= 1e-10,
        f"bit-flip vs phase-flip form {worst_bf:.2e}, bit-phase-flip vs bit-flip {worst_bpf:.2e}",
    )


def test_criterion_9_negativity_route_agreement():
    rng = np.random.default_rng(200)
    kinds, modes = list(ChannelKind), list(Mode)
    worst = 0.0
    for p in random_entangled_params(rng, 1000):
        kind = kinds[int(rng.integers(5))]
        mode = modes[int(rng.integers(3))]
        g = float(rng.uniform())
        res = negativity_numeric(evolve(ChannelScenario.at(kind, mode, g), p))
        worst = max(worst, abs(res.value - res.via_trace_norm))
    _report("C9 negativity route agreement (1000 states)", worst <= 1e-10, f"max gap {worst:.2e}")
