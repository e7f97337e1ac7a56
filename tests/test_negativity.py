import math

import numpy as np
import pytest
from pytest import approx

from qqdyn import (
    CANONICAL_POINTS,
    ChannelKind,
    ChannelScenario,
    DensityMatrix,
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
from qqdyn import negativity, sweep, validate
from qqdyn.negativity import sweep_negativities

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

    monkeypatch.setattr(negativity, "evolve_grid", no_evolve)
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


def test_root_search_finds_death_before_revival_inside_one_grid_cell():
    # Negativity stand-in: alive while (g - death)(g - revival) > 0, so dead
    # only between the two roots, both inside the grid cell (153/512, 154/512).
    death, revival = 0.2995, 0.3005
    poly = lambda g: (g - death) * (g - revival) * (g + 0.5)
    alive = lambda g: poly(np.asarray(g)) > 0.0
    assert alive(np.arange(1, 512) / 512).all()
    width = 2.0 * negativity.ESD_BRACKET
    lo, hi = negativity._death_bracket(poly(negativity._NODES), alive, width)
    assert lo < death <= hi
    assert hi - lo <= 2.0 * negativity.ESD_BRACKET


@pytest.mark.parametrize("offset", [-1e-7, 1e-7], ids=["early", "late"])
def test_root_search_widens_about_a_root_that_missed_its_crossing(offset):
    # The interpolant has its root at 0.3, but the state dies 1e-7 earlier
    # or later, beyond the first certification bracket on either side.
    crossing = 0.3 + offset
    values = (negativity._NODES - 0.3) * (negativity._NODES + 2.0)
    lo, hi = negativity._death_bracket(values, lambda g: np.asarray(g) < crossing, 2e-7)
    assert lo < crossing <= hi
    assert hi - lo <= 2e-7


def test_root_search_keeps_a_double_root_lifted_off_the_axis():
    # Two eigenvalues dying together make a double root of the product;
    # rounding can lift it into a complex pair, which stays a candidate.
    values = (negativity._NODES - 0.3) ** 2 * (negativity._NODES + 2.0) + 1e-15
    width = 2.0 * negativity.ESD_BRACKET
    lo, hi = negativity._death_bracket(values, lambda g: np.asarray(g) < 0.3, width)
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

    monkeypatch.setattr(negativity, "sweep_negativities", counting)
    got = validate._grid_bisection_esd(ChannelKind.DEPHASING, Mode.QUBIT_ONLY, P, tol=1e-9)
    assert len(batches[0][-1]) == validate._SCAN_STEPS - 1
    assert len(batches) - 1 <= 6
    assert got == approx(117.0 / 121.0, abs=1e-9)


def test_root_search_on_a_degree_twelve_polynomial():
    roots = np.linspace(0.05, 0.95, 12)
    values = np.prod(negativity._NODES[:, None] - roots, axis=1)
    assert np.abs(np.sort(negativity._node_roots(values)) - roots).max() <= 1e-9


def test_degree_guard_rejects_non_polynomial_node_values():
    with pytest.raises(ValueError, match="not a polynomial of degree"):
        negativity._node_roots(np.abs(negativity._NODES - 0.4))
    with pytest.raises(ValueError, match="not a polynomial of degree"):
        negativity._node_roots(negativity._NODES ** 13)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
def test_qubit_only_thresholds_at_a_zero_match_closed_forms(kind):
    # At a = 0 two partial-transpose eigenvalues vanish identically, so the
    # determinant is zero and the root search works on the deflated product.
    for b in (0.0, 1e-4, 1 / 30, 2 / 30, 3 / 30, 4 / 30, 0.15, 0.166):
        p = StateParams.a_zero(b)
        got = esd_gamma(kind, Mode.QUBIT_ONLY, p)
        want = analytic_esd_gamma(kind, Mode.QUBIT_ONLY, p)
        if want is None:
            assert got is None, (b, got)
        else:
            assert got is not None and abs(got - want) <= 1e-9, (b, got, want)


def test_default_tolerance_needs_no_bisection(monkeypatch):
    # Each cell takes one batch at the nodes and at most one certification
    # batch, and the certified bracket is already narrower than tol = 1e-9.
    batches = []

    def counting_grid(*args):
        batches.append(args)
        return evolve_grid(*args)

    monkeypatch.setattr(negativity, "evolve_grid", counting_grid)
    for kind in ChannelKind:
        for mode in Mode:
            batches.clear()
            esd_gamma(kind, mode, P)
            assert len(batches) <= 2, (kind, mode)
