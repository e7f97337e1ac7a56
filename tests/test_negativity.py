import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from pytest import approx

from qqdyn import (
    CANONICAL_POINTS,
    ChannelKind,
    ChannelScenario,
    DensityMatrix,
    EsdReport,
    Mode,
    NoClosedFormError,
    StateParams,
    analytic_esd_gamma,
    classify_table1,
    esd_gamma,
    esd_report,
    evolve,
    evolve_grid,
    initial_state,
    negativity_analytic,
    negativity_numeric,
    random_entangled_params,
    run_sweep,
)
from qqdyn import evolution, negativity, sweep, validate
from qqdyn.linalg import partial_transpose_blocks
from qqdyn.states import family_weights

from helpers import brute_negativity

P = StateParams(0.05, 0.6)


def test_negativity_examples():
    assert negativity_numeric(DensityMatrix(np.eye(6) / 6)).value == 0.0
    assert negativity_numeric(initial_state(StateParams(0.0, 1.0))).value == approx(1.0, abs=1e-12)
    res = negativity_numeric(initial_state(P))
    assert res.value == approx(0.45, abs=1e-10)
    assert res.negative_eigenvalue_sum == approx(-0.225, abs=1e-10)
    assert res.via_trace_norm == approx(0.45, abs=1e-10)


def test_negativity_routes_agree():
    rng = np.random.default_rng(20)
    kinds, modes = list(ChannelKind), list(Mode)
    for p in random_entangled_params(rng, 30):
        kind = kinds[int(rng.integers(5))]
        mode = modes[int(rng.integers(3))]
        g = float(rng.uniform())
        res = negativity_numeric(evolve(ChannelScenario.at(kind, mode, g), p))
        assert res.value == approx(res.via_trace_norm, abs=1e-10)
        assert res.value == approx(2 * max(0.0, -res.negative_eigenvalue_sum), abs=1e-14)


def test_negativity_matches_brute_force():
    rng = np.random.default_rng(21)
    for p in random_entangled_params(rng, 10):
        for g in (0.0, 0.35, 0.8):
            state = evolve(ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, g), p)
            assert negativity_numeric(state).value == approx(brute_negativity(state.matrix), abs=1e-12)


def test_separable_mixtures_have_zero_negativity():
    rng = np.random.default_rng(22)
    for _ in range(20):
        m = np.zeros((6, 6), dtype=complex)
        for _ in range(6):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            vec = np.kron(u / np.linalg.norm(u), v / np.linalg.norm(v))
            m += rng.uniform(0.1, 1.0) * np.outer(vec, vec.conj())
        m /= m.trace().real
        assert negativity_numeric(DensityMatrix(m)).value == 0.0


def test_analytic_zero_strength_reduces_to_initial():
    for kind in ChannelKind:
        for mode in Mode:
            sc = ChannelScenario.at(kind, mode, 0.0)
            try:
                val = negativity_analytic(sc, P)
            except NoClosedFormError:
                continue
            assert val == approx(P.c - 3 * P.b, abs=1e-14)


def test_analytic_matches_numeric():
    rng = np.random.default_rng(23)
    for p in random_entangled_params(rng, 5):
        for kind in ChannelKind:
            for mode in Mode:
                for g in np.linspace(0.0, 1.0, 9):
                    sc = ChannelScenario.at(kind, mode, float(g))
                    try:
                        an = negativity_analytic(sc, p)
                    except NoClosedFormError:
                        continue
                    nm = negativity_numeric(evolve(sc, p)).value
                    assert an == approx(nm, abs=1e-10), (kind, mode, p, g)


def test_analytic_rectangle_strengths():
    # Independent strengths for the three kinds with two-variable forms.
    for kind in (ChannelKind.DEPHASING, ChannelKind.PHASE_FLIP, ChannelKind.DEPOLARIZING):
        for ga in (0.0, 0.3, 0.9):
            for gb in (0.1, 0.6):
                sc = ChannelScenario(kind, Mode.MULTI_LOCAL, ga, gb)
                an = negativity_analytic(sc, P)
                nm = negativity_numeric(evolve(sc, P)).value
                assert an == approx(nm, abs=1e-10)


def test_analytic_exact_zero_at_thresholds():
    sc = ChannelScenario.at(ChannelKind.PHASE_FLIP, Mode.QUBIT_ONLY, (P.c - 3 * P.b) / (P.c - P.b))
    assert negativity_analytic(sc, P) == approx(0.0, abs=1e-15)
    g = (3 * P.c - 9 * P.b) / (1 - 9 * P.b + 3 * P.c)
    sc = ChannelScenario.at(ChannelKind.DEPOLARIZING, Mode.QUTRIT_ONLY, g)
    assert negativity_analytic(sc, P) == approx(0.0, abs=1e-15)


def test_no_closed_form_for_multilocal_flips():
    for kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        with pytest.raises(NoClosedFormError):
            negativity_analytic(ChannelScenario.at(kind, Mode.MULTI_LOCAL, 0.5), P)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_sweep_analytic_column_equals_per_row_scalar_calls(kind):
    # The array closed forms give the scalar values to the bit, the sign of
    # zero included, and the multi-local flips leave the column empty.
    points = list(CANONICAL_POINTS) + [StateParams(0.1, 0.35), StateParams.a_zero(0.15)]
    for p in points:
        for mode in Mode:
            for start, stop, steps in ((0.0, 1.0, 513), (0.25, 0.75, 37)):
                for row in run_sweep(kind, mode, p, start, stop, steps).rows:
                    try:
                        want = negativity_analytic(ChannelScenario.at(kind, mode, row.gamma), p)
                    except NoClosedFormError:
                        want = None
                    got = row.negativity_analytic
                    assert (got is None) == (want is None), (p, mode, row.gamma)
                    if got is not None:
                        assert type(got) is float
                        assert repr(got) == repr(want), (p, mode, row.gamma)


def test_uncorrected_trit_flip_form_is_dead_at_zero():
    sc = ChannelScenario.at(ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, 0.0)
    assert negativity_analytic(sc, P, corrected=False) == 0.0
    assert negativity_analytic(sc, P, corrected=True) == approx(0.45, abs=1e-14)


def test_monotone_in_strength():
    grid = np.linspace(0.0, 1.0, 65)
    for p in (StateParams(0.0, 1.0), P):
        for kind in ChannelKind:
            for mode in Mode:
                vals = [
                    negativity_numeric(evolve(ChannelScenario.at(kind, mode, float(g)), p)).value
                    for g in grid
                ]
                assert max(np.diff(vals)) <= 1e-12, (kind, mode, p)


def test_esd_gamma_examples():
    got = esd_gamma(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, P)
    assert got == approx(117.0 / 121.0, abs=1e-6)
    assert esd_gamma(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(0.0, 0.5)) is None
    got = esd_gamma(ChannelKind.BIT_PHASE_FLIP, Mode.MULTI_LOCAL, StateParams(0.0, 1.0))
    assert got == approx(0.720136377, abs=1e-6)


def test_esd_gamma_requires_entangled_state():
    with pytest.raises(ValueError):
        esd_gamma(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(0.1, 0.2))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_non_positive_tolerance_rejected_before_evaluation(tol, monkeypatch):
    def no_evolve(*args):
        raise AssertionError("evolve called before the tolerance was checked")

    monkeypatch.setattr(evolution, "evolve_grid", no_evolve)
    monkeypatch.setattr(sweep, "evolve_grid", no_evolve)
    with pytest.raises(ValueError, match="tol"):
        esd_gamma(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, P, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        run_sweep(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, P, steps=5, tol=tol)


def test_boundary_deaths_are_not_sudden():
    # These curves stay positive on the open interval and vanish only at the
    # infinite-time limit, so no ESD is reported.
    bell = StateParams(0.0, 1.0)
    assert esd_gamma(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, bell) is None
    assert esd_gamma(ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, bell) is None
    assert esd_gamma(ChannelKind.PHASE_FLIP, Mode.MULTI_LOCAL, StateParams(0.0, 0.5)) is None


def test_analytic_thresholds():
    assert analytic_esd_gamma(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, P) == approx(117 / 121)
    assert analytic_esd_gamma(ChannelKind.PHASE_FLIP, Mode.QUBIT_ONLY, P) == approx(9 / 11)
    assert analytic_esd_gamma(ChannelKind.PHASE_FLIP, Mode.QUTRIT_ONLY, P) == approx(9 / 11)
    assert analytic_esd_gamma(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY, P) == approx(9 / 11)
    assert analytic_esd_gamma(ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, P) == approx(0.75)
    assert analytic_esd_gamma(ChannelKind.DEPOLARIZING, Mode.QUBIT_ONLY, P) == approx(6 / 11)
    assert analytic_esd_gamma(ChannelKind.DEPOLARIZING, Mode.QUTRIT_ONLY, P) == approx(27 / 47)
    assert analytic_esd_gamma(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL, P) is None
    assert analytic_esd_gamma(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(0.0, 0.5)) is None
    # Boundary threshold exactly 1 reports None.
    assert analytic_esd_gamma(ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, StateParams(0.0, 1.0)) is None


#: Points whose closed-form threshold rounds to the last float below 1,
#: 1 - 2^-53, while the exact one lies above it, so no strength below 1 is
#: separable: the qutrit-only flips at c = 1 - 2^-53 die at 1 - 2^-53 / 3,
#: and local dephasing at (2e-9, 0.5) at 1 - 6.4e-17.
ROUNDED_TO_LAST_BELOW_ONE = [
    (ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, StateParams(0.0, 1.0 - 1e-16)),
    (ChannelKind.BIT_PHASE_FLIP, Mode.QUTRIT_ONLY, StateParams(0.0, 1.0 - 1e-16)),
    (ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(2e-9, 0.5)),
    (ChannelKind.DEPHASING, Mode.QUTRIT_ONLY, StateParams(2e-9, 0.5)),
]


@pytest.mark.parametrize(
    "kind, mode, p", ROUNDED_TO_LAST_BELOW_ONE,
    ids=[f"{k.value}-{m.value}" for k, m, _ in ROUNDED_TO_LAST_BELOW_ONE],
)
def test_threshold_rounded_below_one_is_decided_exactly(kind, mode, p):
    assert analytic_esd_gamma(kind, mode, p) is None
    assert esd_gamma(kind, mode, p) is None


def test_threshold_within_ulps_of_one_that_is_dead_below_one_is_kept():
    # Both exact thresholds, about 1 - 4e-16, lie below 1 - 2^-53.
    for kind, mode, p in (
        (ChannelKind.PHASE_FLIP, Mode.QUBIT_ONLY, StateParams(1e-16, 0.5)),
        (ChannelKind.DEPHASING, Mode.QUBIT_ONLY, StateParams(5e-9, 0.5)),
    ):
        got = analytic_esd_gamma(kind, mode, p)
        assert got is not None and 1.0 - 2.0**-50 <= got < 1.0, (kind, mode, got)
    # At c = 1 - 3 * 2^-53 the qutrit-only flip threshold rounds to 1, but
    # the exact one, 1 - 2^-53 / (1 - 2^-52), lies below the last float.
    p = StateParams(0.0, 1.0 - 3 * 2.0**-53)
    assert analytic_esd_gamma(ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, p) == 1.0 - 2.0**-53


@pytest.mark.parametrize("c", [1e-9, 1e-8])
def test_multi_local_depolarizing_threshold_is_stable_near_the_boundary(c):
    # At b = 0 the threshold is about c / 3 and c - 3b is small: the root
    # qa g^2 - qb g + qc = 0 must not cancel in qb - sqrt(qb^2 - 4 qa qc).
    with localcontext() as ctx:
        ctx.prec = 50
        b, c50 = Decimal(0), Decimal(c)
        qa = 9 * (c50 - b)
        qb = qa + 2 * (1 - 9 * b + 3 * c50)
        qc = 6 * (c50 - 3 * b)
        want = (qb - (qb * qb - 4 * qa * qc).sqrt()) / (2 * qa)
    got = analytic_esd_gamma(ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL, StateParams(0.0, c))
    assert got is not None
    assert abs(Decimal(got) - want) <= Decimal("1e-15") * want


def test_esd_report_agreement_invariant():
    cases = [
        (ChannelKind.DEPHASING, Mode.QUBIT_ONLY, P),
        (ChannelKind.PHASE_FLIP, Mode.QUTRIT_ONLY, P),
        (ChannelKind.DEPOLARIZING, Mode.MULTI_LOCAL, P),
        (ChannelKind.DEPOLARIZING, Mode.QUTRIT_ONLY, StateParams(0.0, 1.0)),
        (ChannelKind.BIT_FLIP, Mode.QUTRIT_ONLY, StateParams(0.05, 0.2)),
    ]
    for kind, mode, p in cases:
        rep = esd_report(kind, mode, p)
        assert rep.esd_gamma is not None and rep.analytic_gamma is not None
        assert abs(rep.esd_gamma - rep.analytic_gamma) <= 1e-6
        assert rep.classification == "ESD"


def test_classify_table1_shape():
    reports = classify_table1(P)
    assert len(reports) == 15
    assert {(r.kind, r.mode) for r in reports} == {(k, m) for k in ChannelKind for m in Mode}
    assert all(r.b == P.b and r.c == P.c for r in reports)


def _cell(bs, dies):
    """One cell's reports at the points of ``bs``, dead where ``dies`` says."""
    return [
        EsdReport(ChannelKind.DEPHASING, Mode.MULTI_LOCAL, b, 0.9, 0.5 if d else None, None,
                  "ESD" if d else "NoESD")
        for b, d in zip(bs, dies)
    ]


@pytest.mark.parametrize(
    "bs, dies, observed, holding",
    [
        # Every point dies: "always", which is also "b_nonzero" when no
        # point has b = 0.
        ((0.0, 0.05, 0.1), (True, True, True), "always", {"always", "exists"}),
        ((0.05, 0.1), (True, True), "always", {"always", "b_nonzero", "exists"}),
        # No point dies: "never", which is also "b_nonzero" when every
        # point has b = 0.
        ((0.0, 0.05), (False, False), "never", {"never"}),
        ((0.0, 0.0), (False, False), "never", {"never", "b_nonzero"}),
        # Exactly the points with b != 0 die.
        ((0.0, 0.05, 0.1), (False, True, True), "b_nonzero", {"b_nonzero", "exists"}),
        # Anything else.
        ((0.0, 0.05, 0.1), (True, True, False), "exists", {"exists"}),
        ((0.0, 0.05), (True, False), "exists", {"exists"}),
        ((0.05, 0.1), (False, True), "exists", {"exists"}),
    ],
)
def test_cell_labels_observe_the_first_label_that_holds(bs, dies, observed, holding):
    reports = _cell(bs, dies)
    assert {label for label, holds in negativity.CELL_LABELS.items() if holds(reports)} == holding
    assert next(label for label, holds in negativity.CELL_LABELS.items() if holds(reports)) == observed


def test_canonical_points_are_valid():
    assert len(CANONICAL_POINTS) == 6
    assert all(p.is_entangled for p in CANONICAL_POINTS)
    assert CANONICAL_POINTS[2].a > 0.0


def test_multilocal_flip_family_snapshots():
    # Regression values from the bisection detector on the equal-strength axis.
    cases = [
        (ChannelKind.BIT_FLIP, StateParams.a_zero(1 / 30), 0.675860110),
        (ChannelKind.BIT_FLIP, StateParams.a_zero(3 / 30), 0.441331674),
        (ChannelKind.BIT_PHASE_FLIP, StateParams.a_zero(1 / 30), 0.646486863),
        (ChannelKind.BIT_PHASE_FLIP, StateParams.a_zero(4 / 30), 0.270694637),
    ]
    for kind, p, want in cases:
        assert esd_gamma(kind, Mode.MULTI_LOCAL, p) == approx(want, abs=1e-6)


def test_last_cell_death_is_found():
    # The closed-form threshold lies inside the last cell (511/512, 1) of a
    # 1/512 grid, which a grid scan never looks into.
    p = StateParams(0.0005412990998970812, 0.9983761027003087)
    want = analytic_esd_gamma(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, p)
    assert 511 / 512 < want < 1.0
    got = esd_gamma(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, p)
    assert got is not None and abs(got - want) <= 1e-9


def _candidates(*roots_in_gamma, lift=0.0):
    """The candidate strengths of prod_r (gamma - r) + lift, taken as a
    polynomial in y = 1 - gamma."""
    c = np.poly([1.0 - r for r in roots_in_gamma])[::-1] * (-1.0) ** len(roots_in_gamma)
    c[0] += lift
    return np.array(negativity._strengths_of_roots([c], 1))


def test_root_search_finds_death_before_revival_inside_one_grid_cell():
    # Negativity stand-in: alive while (g - death)(g - revival) > 0, so dead
    # only between the two roots, both inside the grid cell (153/512, 154/512).
    death, revival = 0.2995, 0.3005
    poly = lambda g: (g - death) * (g - revival) * (g + 0.5)
    alive = lambda g: poly(np.asarray(g)) > 0.0
    assert alive(np.arange(1, 512) / 512).all()
    width = 2.0 * negativity.ESD_BRACKET
    lo, hi = negativity._death_bracket(_candidates(death, revival, -0.5), alive, width)
    assert lo < death <= hi
    assert hi - lo <= 2.0 * negativity.ESD_BRACKET


@pytest.mark.parametrize("offset", [-1e-7, 1e-7], ids=["early", "late"])
def test_root_search_widens_about_a_root_that_missed_its_crossing(offset):
    # The polynomial has its root at 0.3, but the state dies 1e-7 earlier
    # or later, beyond the first certification bracket on either side.
    crossing = 0.3 + offset
    lo, hi = negativity._death_bracket(
        _candidates(0.3, -2.0), lambda g: np.asarray(g) < crossing, 2e-7)
    assert lo < crossing <= hi
    assert hi - lo <= 2e-7


def test_root_search_keeps_a_double_root_lifted_off_the_axis():
    # Two eigenvalues dying together make a double root of the invariant;
    # rounding can lift it into a complex pair, which stays a candidate.
    roots = _candidates(0.3, 0.3, -2.0, lift=1e-15)
    assert roots.size and np.abs(roots - 0.3).max() < 1e-6
    width = 2.0 * negativity.ESD_BRACKET
    lo, hi = negativity._death_bracket(roots, lambda g: np.asarray(g) < 0.3, width)
    assert lo < 0.3 <= hi
    assert hi - lo <= 2.0 * negativity.ESD_BRACKET


@pytest.mark.parametrize(
    "lo, hi, crossing, tol",
    [(0.0, 1.0, 1 / 3, 1e-9), (0.1, 0.9, 0.1 + 1e-12, 1e-13), (0.25, 0.5, 0.5, 3e-6),
     (0.3, 0.3 + 2.0**-30, 0.3 + 1e-10, 1e-14)],
    ids=["unit-interval", "near-lo", "at-hi", "certified-width"],
)
def test_section_brackets_the_crossing_in_log16_batches(lo, hi, crossing, tol):
    batches = []

    def alive(g):
        batches.append(len(g))
        return np.asarray(g) < crossing

    got_lo, got_hi = negativity._section(lo, hi, alive, tol)
    assert got_lo < crossing <= got_hi
    assert got_hi - got_lo <= tol
    assert len(batches) <= math.ceil(math.log((hi - lo) / tol, 16))
    assert max(batches) <= negativity.SECTION_SAMPLES


def test_section_below_float_spacing_stops_with_no_float_inside():
    crossing = 0.7 + 1e-11
    lo, hi = negativity._section(0.5, 0.75, lambda g: np.asarray(g) < crossing, 1e-300)
    assert lo < crossing <= hi
    assert np.nextafter(lo, hi) == hi


def test_oracle_sections_its_grid_cell_in_six_batches(monkeypatch):
    batches = []

    def counting(*args):
        batches.append(args)
        return sweep_negativities(*args)

    sweep_negativities = validate._sweep_negativities
    monkeypatch.setattr(validate, "_sweep_negativities", counting)
    got = validate._grid_bisection_esd(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, P, tol=1e-9)
    assert len(batches[0][-1]) == validate._SCAN_STEPS - 1
    assert len(batches) - 1 <= 6
    assert got == approx(117.0 / 121.0, abs=1e-9)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_qubit_only_thresholds_at_a_zero_match_closed_forms(kind):
    # At a = 0 a block's determinant vanishes identically in most cells, so
    # the root search works on the deflated invariant.  Qubit-only first,
    # then every other mode that has a closed form.
    modes = [Mode.QUBIT_ONLY, Mode.QUTRIT_ONLY]
    if kind not in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        modes.append(Mode.MULTI_LOCAL)  # the multi-local flips have no closed form
    for b in (0.0, 1e-4, 1 / 30, 2 / 30, 3 / 30, 4 / 30, 0.15, 0.166):
        p = StateParams.a_zero(b)
        for mode in modes:
            got = esd_gamma(kind, mode, p)
            want = analytic_esd_gamma(kind, mode, p)
            if want is None:
                assert got is None, (b, mode, got)
            else:
                assert got is not None and abs(got - want) <= 1e-9, (b, mode, got, want)


@pytest.mark.parametrize("kind", [ChannelKind.DEPHASING, ChannelKind.PHASE_FLIP],
                         ids=["dephasing", "phaseflip"])
def test_decoherence_at_b_zero_is_never_sudden(kind):
    # At b = 0 the negativity decays to zero only at gamma = 1, where the
    # invariants have a multiple root; rounding must not split it into
    # deaths just below 1.
    for c in (0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
        p = StateParams(0.0, c)
        for mode in Mode:
            assert esd_report(kind, mode, p).classification == "NoESD", (c, mode)


def test_threshold_a_hair_below_one_is_found():
    # Bit flip on the qubit at b = 1e-7 dies at 1 - 4e-7; the constant term
    # of the determinant is about 1.6e-13, which a coarser trim would drop.
    p = StateParams(1e-7, 0.5)
    want = analytic_esd_gamma(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY, p)
    got = esd_gamma(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY, p)
    assert got is not None and abs(got - want) <= 1e-9, (got, want)


@pytest.mark.parametrize("b, c", [(1e-8, 0.5), (1e-8, 0.9), (1e-9, 0.0625), (1e-9, 0.5)])
def test_threshold_a_hair_below_one_at_smaller_b_is_found(b, c):
    # The same death at 1 - 4b (1 - 4e-8 at b = 1e-8, and so on), whose
    # constant term lies below 1e-14 of the determinant's largest
    # coefficient, but far above its own rounding bound.
    p = StateParams(b, c)
    want = analytic_esd_gamma(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY, p)
    got = esd_gamma(ChannelKind.BIT_FLIP, Mode.QUBIT_ONLY, p)
    assert got is not None and abs(got - want) <= 1e-9, (got, want)


#: b = 1.19e-88: the qutrit-only flips' chosen invariant has a leading
#: coefficient 4e-89 of its largest, whose companion root near 2.5e88 would
#: drown the death at 0.75 in rounding; and multi-local phase flip dies at
#: 1 - sqrt(2b / (c - b)), which rounds to 1, though b is not 0.
LEADING_POINT = (1.1890606509269398e-88, 0.5)
#: Points where a threshold lies a hair below gamma = 1, or within ulps of
#: it, or where the negativity falls slowly; (0, 1e-9), (0, 1e-7) and
#: (0, 1e-6), which start a hair inside the separability boundary and die
#: almost at once; (0.15, 0.45), where c - 3b rounds to 5.6e-17; and
#: ``LEADING_POINT``.
EDGE_POINTS = [(1e-8, 0.5), (1e-8, 0.9), (1e-9, 0.0625), (1e-9, 0.5), (1e-7, 0.5),
               (1e-6, 0.0625), (1e-6, 0.5), (0.0, 1 - 1e-16), (0.0, 1 - 1e-8), (1e-9, 0.9),
               (0.0, 1e-9), (0.0, 1e-7), (0.0, 1e-6), (0.15, 0.45),
               (4.1388748763351344e-17, 0.5167034084532541), (0.0, 1 - 3 * 2.0**-53),
               LEADING_POINT]
#: The multi-local flips, which have no closed form, at edge points: the
#: threshold of the exact invariant polynomials, within its bound, or None.
EDGE_EXACT = {
    ((0.0, 1 - 1e-8), ChannelKind.BIT_FLIP): (0.9946344114, 1e-9),
    ((0.0, 1 - 1e-16), ChannelKind.BIT_FLIP): (0.99994485, 1e-8),
}


@pytest.mark.parametrize("point", EDGE_POINTS, ids=[f"{b:g}-{c:.17g}" for b, c in EDGE_POINTS])
def test_edge_point_thresholds(point):
    # Every death with a closed form is found within 1e-9 of it, and none
    # where it has none; the multi-local flips meet the exact thresholds
    # where known (multi-local phase flip at (0, 1 - 1e-16) has none), and
    # every death found is dead by the numeric negativity.
    p = StateParams(*point)
    for kind in ChannelKind:
        for mode in Mode:
            got = esd_gamma(kind, mode, p)
            if mode is Mode.MULTI_LOCAL and kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
                if (point, kind) in EDGE_EXACT:
                    want, bound = EDGE_EXACT[point, kind]
                    assert got is not None and abs(got - want) <= bound, (kind, got)
            else:
                want = analytic_esd_gamma(kind, mode, p)
                assert (got is None) == (want is None), (kind, mode, got, want)
                assert got is None or abs(got - want) <= 1e-9, (kind, mode, got, want)
            if got is not None:
                state = evolve(ChannelScenario.at(kind, mode, got), p)
                assert negativity_numeric(state).value == 0.0
    if point != LEADING_POINT:
        assert (esd_gamma(ChannelKind.PHASE_FLIP, Mode.MULTI_LOCAL, p) is None) == (point[0] == 0.0)


def test_search_probes_both_ends_of_the_strength_range():
    # gamma = 0 is a candidate, so 2^-31 is always probed: at (0.15, 0.45),
    # where c - 3b rounds to 5.6e-17, every cell is dead there.
    p = StateParams(0.15, 0.45)
    for kind in ChannelKind:
        for mode in Mode:
            assert esd_gamma(kind, mode, p) == 2.0**-31, (kind, mode)
    # A root whose halfway point to gamma = 1 rounds to 1 is probed itself,
    # so deaths within ulps of 1 are found at the last float below it.
    flips = (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP)
    cases = {
        (4.1388748763351344e-17, 0.5167034084532541): [
            (ChannelKind.DEPHASING, Mode.MULTI_LOCAL),
            (ChannelKind.PHASE_FLIP, Mode.QUBIT_ONLY),
            (ChannelKind.PHASE_FLIP, Mode.QUTRIT_ONLY),
            *((kind, Mode.QUBIT_ONLY) for kind in flips),
        ],
        (0.0, 1 - 3 * 2.0**-53): [(kind, Mode.QUTRIT_ONLY) for kind in flips],
    }
    for point, cells in cases.items():
        p = StateParams(*point)
        for kind, mode in cells:
            assert esd_gamma(kind, mode, p) == 1 - 2.0**-53, (point, kind, mode)
            assert 1 - 2.0**-51 < analytic_esd_gamma(kind, mode, p) < 1.0, (point, kind, mode)


def _as_floats(invariants, p):
    """The exact invariants of :func:`negativity._block_invariants` as
    floats: e_i comes times 93312 d^i, d the largest denominator of the
    point's float weights."""
    d = max(v.as_integer_ratio()[1] for v in family_weights(p).tolist())
    return [[v / (93312 * d ** (i // 2 + 1)) for v in c] for i, c in enumerate(invariants)]


def test_chosen_invariants_equal_those_of_the_evolved_blocks():
    # Every invariant e_i of both blocks, and each block's chosen one,
    # evaluated at random strengths, is e_i of the eigenvalues of the
    # partial transpose of the evolved state.
    rng = np.random.default_rng(16)
    points = random_entangled_params(rng, 6) + [StateParams.a_zero(0.1), StateParams(0.0, 0.5)]
    g = rng.uniform(0.0, 1.0, 7)
    for p in points:
        for kind in ChannelKind:
            for mode in Mode:
                invariants, k = negativity._block_invariants(kind, mode, p)
                # Invariant, then power of y, then block.
                blocks = np.array(_as_floats(invariants, p)).reshape(3, 2, -1).swapaxes(1, 2)
                states = evolve_grid(kind, p, *evolution.sweep_strengths(mode, g))
                eigs = np.linalg.eigvalsh(partial_transpose_blocks(states))
                # e_1, e_2, e_3 of each block from its eigenvalues.
                e = [eigs.sum(axis=-1),
                     (eigs[..., [0, 0, 1]] * eigs[..., [1, 2, 2]]).sum(axis=-1),
                     eigs.prod(axis=-1)]
                y = (1.0 - g) ** (1.0 / k)
                powers = np.vander(y, blocks.shape[1], increasing=True)
                for i in range(3):
                    got = powers @ blocks[i]
                    assert np.abs(got - e[i]).max() <= 1e-14, (p, kind, mode, i)
                chosen = negativity._chosen_invariants(invariants)
                assert len(chosen) == 2, (p, kind, mode)
                for block, c in enumerate(chosen):
                    # The chosen invariant is over its largest coefficient
                    # and y^m, m the count trimmed at the low end.
                    coefficients = blocks[:, :, block]
                    i = next(i for i in (2, 1, 0) if coefficients[i].any())
                    low = int(np.flatnonzero(coefficients[i])[0])
                    top = np.abs(coefficients[i]).max()
                    got = np.vander(y, len(c), increasing=True) @ c * y**low * top
                    assert np.abs(got - e[i][:, block]).max() <= 1e-14, (p, kind, mode, block)


def _direct_invariants(kind, mode, p):
    """e_0 = 1, e_1, e_2 and e_3 of both partial-transpose blocks along one
    cell's sweep, by the polynomial algebra on the point's own blocks: its
    weight polynomials in y times its term blocks, then trace,
    ((tr A)^2 - tr A^2) / 2 and the determinant by the cofactors of row 0."""
    polymul = evolution._polymul
    w, k = evolution._weights_in_y(kind, mode)
    terms = (family_weights(p) @ evolution._BASIS_TABLES[kind]).reshape(-1, 18)
    pt = partial_transpose_blocks((w @ terms).reshape(-1, 2, 3, 3))
    tr = np.trace(pt, axis1=-2, axis2=-1)
    r1, r2 = pt[..., 1, :], pt[..., 2, :]
    later, last = [1, 2, 0], [2, 0, 1]
    cofactors = polymul(r1[..., later], r2[..., last]) - polymul(r1[..., last], r2[..., later])
    return [
        np.ones((1, 2)),
        tr,
        (polymul(tr, tr) - polymul(pt, pt.swapaxes(-1, -2)).sum(axis=(-2, -1))) / 2.0,
        polymul(pt[..., 0, :], cofactors).sum(axis=-1),
    ], k


def test_invariant_tables_equal_the_direct_algebra():
    # The integer tables contract the algebra over the monomials of the
    # family weights: at each point every e_i has the coefficients that the
    # algebra on the point's own blocks gives, to rounding, and zeros beyond
    # its degree.  The tables hold integers, and every invariant coefficient
    # is an exact integer too.
    for table, _, _ in negativity._INVARIANT_TABLES.values():
        assert all(type(v) is int for row in table for v in row)
    rng = np.random.default_rng(19)
    points = [*CANONICAL_POINTS, *random_entangled_params(rng, 20),
              StateParams.a_zero(0.1), StateParams(0.0, 0.5), StateParams(0.15, 0.45)]
    for p in points:
        for kind in ChannelKind:
            for mode in Mode:
                invariants, k = negativity._block_invariants(kind, mode, p)
                assert all(type(v) is int for c in invariants for v in c)
                direct, direct_k = _direct_invariants(kind, mode, p)
                assert k == direct_k
                blocks = np.array(_as_floats(invariants, p)).reshape(3, 2, -1).swapaxes(1, 2)
                assert blocks.shape[1] == len(direct[3])
                for i in (1, 2, 3):
                    want = direct[i]
                    got = blocks[i - 1]
                    assert not got[len(want):].any(), (p, kind, mode, i)
                    err = np.abs(got[: len(want)] - want).max()
                    assert err <= 1e-14 * np.abs(want).max(), (p, kind, mode, i)


def _exact_sign(c, k, g):
    """The sign of sum_j c_j y^j at y = (1 - g)^(1/k), in exact rationals.
    For k = 2 it is E + y O, E and O its even and odd powers of y, linear
    in y: it is taken at rationals closer and closer about sqrt(1 - g),
    from math.isqrt, until both ends agree, or at the root itself where
    1 - g is a square."""
    t = 1 - Fraction(g)
    if k == 1:
        v = sum(Fraction(v) * t**j for j, v in enumerate(c))
        return (v > 0) - (v < 0)
    even = sum(v * t ** (j // 2) for j, v in enumerate(c) if j % 2 == 0)
    odd = sum(v * t ** (j // 2) for j, v in enumerate(c) if j % 2)
    if not even and not odd:
        return 0
    for bits in (64, 256, 1024, 4096):
        den = t.denominator << bits
        root = math.isqrt(t.numerator * t.denominator << 2 * bits)
        ends = [even + Fraction(r, den) * odd for r in (root, root + 1)]
        if Fraction(root, den) ** 2 == t:
            ends = ends[:1]
        signs = {(v > 0) - (v < 0) for v in ends}
        if len(signs) == 1 and 0 not in signs or len(ends) == 1:
            return signs.pop()
    raise AssertionError(f"sign of {c} at {g} not decided")


def test_alive_equals_the_exact_sign_of_the_invariants():
    # The test of life is alive exactly where some invariant of either block
    # is negative, evaluated in fractions.Fraction: at random strengths, at
    # the ends of the range and at strengths within 1e-15 of the candidate
    # roots, in every cell (k = 2 for dephasing, 1 for the others).
    rng = np.random.default_rng(28)
    points = [CANONICAL_POINTS[1], CANONICAL_POINTS[3], *random_entangled_params(rng, 2),
              StateParams(0.0, 1e-9), StateParams(0.15, 0.45), StateParams.a_zero(0.1)]
    ends = [0.0, 5e-324, 1e-300, 2.0**-31, 0.25, 0.5, 0.75, 1 - 2.0**-53]
    mixed = 0
    for p in points:
        for kind in ChannelKind:
            for mode in Mode:
                invariants, k = negativity._block_invariants(kind, mode, p)
                roots = negativity._strengths_of_roots(negativity._chosen_invariants(invariants), k)
                near = [min(max(r + d, 0.0), 1 - 2.0**-53) for r in roots
                        for d in (-1e-15, -2.0**-53, 0.0, 2.0**-53, 1e-15)]
                probes = [*rng.uniform(0.0, 1.0, 4).tolist(), *ends, *near]
                want = [any(_exact_sign(c, k, g) < 0 for c in invariants) for g in probes]
                assert negativity._alive(invariants, k, probes) == want, (p, kind, mode)
                mixed += len(set(want)) > 1
    assert mixed  # both outcomes occur in some cells
    # Invariants with a root at y = 1/2, where E and O differ in sign and
    # E^2 = t O^2 exactly: zero there, so not alive, and either sign beside.
    for c in ([-1, 2], [1, -2], [-3, 2, 8], [3, -2, -8]):
        invariants = [c] + [[0]] * 5
        for k, root in ((1, 0.5), (2, 0.75)):
            probes = [np.nextafter(root, 0.0), root, np.nextafter(root, 1.0)]
            want = [_exact_sign(c, k, g) < 0 for g in probes]
            assert negativity._alive(invariants, k, probes) == want == [want[0], False, want[2]]
def test_stacked_roots_are_the_roots_of_each_block():
    # Both blocks' companions go to one eigensolve, the shorter padded; the
    # padding adds no root, and each block keeps its own roots.
    padded = 0
    for p in [*CANONICAL_POINTS, StateParams.a_zero(0.1), StateParams.a_zero(0.2)]:
        for kind in ChannelKind:
            for mode in Mode:
                invariants, k = negativity._block_invariants(kind, mode, p)
                chosen = negativity._chosen_invariants(invariants)
                assert all(c[0] and c[-1] for c in chosen), (p, kind, mode)
                got = np.sort(negativity._strengths_of_roots(chosen, k))
                want = np.sort([g for c in chosen for g in negativity._strengths_of_roots([c], k)])
                assert len(got) == len(want), (p, kind, mode)
                assert np.abs(got - want).max(initial=0.0) <= 1e-12, (p, kind, mode)
                padded += len({len(c) for c in chosen}) == 2
    assert padded  # some blocks' polynomials differ in degree after trimming


def test_invariant_forms_keep_exact_rationals():
    # Fed exact rationals (every float is one), the forms stay exact, and
    # they round to the float forms.
    basis, _ = evolution._sweep_basis(ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL)
    pt = partial_transpose_blocks(basis)
    exact = negativity._invariant_forms(np.vectorize(Fraction, otypes=[object])(pt))
    for e, f in zip(exact, negativity._invariant_forms(pt)):
        assert all(isinstance(v, (Fraction, int)) for v in e.flat)
        assert np.abs(e.astype(float) - f).max() <= 1e-15 * np.abs(f).max()


def test_default_tolerance_needs_no_bisection(monkeypatch):
    # The search evolves no state: the candidates and the test of life both
    # come from the invariant tables.  Each cell takes at most one batch of
    # that test, and the certified bracket is already narrower than
    # tol = 1e-9.
    def no_evolve(*args):
        raise AssertionError("the ESD search evolved a state")

    batches = []

    def counting_alive(*args):
        batches.append(args)
        return alive(*args)

    alive = negativity._alive
    monkeypatch.setattr(evolution, "evolve_grid", no_evolve)
    monkeypatch.setattr(negativity, "_alive", counting_alive)
    for p in (P, *CANONICAL_POINTS):
        for kind in ChannelKind:
            for mode in Mode:
                batches.clear()
                esd_gamma(kind, mode, p)
                assert len(batches) <= 1, (p, kind, mode)
