"""Property tests over random points of the family and random strengths.

Examples are drawn from a fixed seed (``derandomize``) and capped in number,
so that every run checks the same cases in bounded time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qqdyn import (
    ChannelKind,
    ChannelScenario,
    Mode,
    NoClosedFormError,
    StateParams,
    analytic_esd_gamma,
    analytic_evolved,
    esd_gamma,
    evolve,
    evolve_grid,
    negativity_analytic,
    negativity_numeric,
)
from qqdyn.negativity import ESD_NEGATIVITY_THRESHOLD

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

kinds = st.sampled_from(list(ChannelKind))
strengths = st.floats(0.0, 1.0)


@st.composite
def points(draw) -> StateParams:
    """Any point of the family: b in [0, 1/3], then c in [0, 1 - 3b]."""
    b = draw(st.floats(0.0, 1.0 / 3.0))
    return StateParams(b, draw(st.floats(0.0, max(0.0, 1.0 - 3.0 * b))))


@st.composite
def scenarios(draw) -> ChannelScenario:
    """A scenario of any kind and mode; local modes zero the idle side."""
    kind, mode = draw(kinds), draw(st.sampled_from(list(Mode)))
    ga, gb = draw(strengths), draw(strengths)
    if mode is Mode.QUBIT_ONLY:
        gb = 0.0
    elif mode is Mode.QUTRIT_ONLY:
        ga = 0.0
    return ChannelScenario(kind, mode, ga, gb)


@PROPERTY
@given(scenarios(), points())
def test_evolution_preserves_trace_hermiticity_and_positivity(scenario, p):
    m = evolve(scenario, p).matrix
    assert abs(m.trace() - 1.0) <= 1e-12
    assert np.abs(m - m.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(m).min() >= -1e-12


@PROPERTY
@given(scenarios(), points())
def test_negativity_routes_agree(scenario, p):
    res = negativity_numeric(evolve(scenario, p))
    assert abs(res.value - res.via_trace_norm) <= 1e-10


@PROPERTY
@given(scenarios(), points())
def test_corrected_closed_forms_match_numerics(scenario, p):
    state = evolve(scenario, p)
    form = analytic_evolved(scenario.kind, p, scenario.gamma_qubit, scenario.gamma_qutrit)
    assert np.abs(state.matrix - form).max() <= 1e-12
    try:
        closed = negativity_analytic(scenario, p)
    except NoClosedFormError:
        return
    assert abs(negativity_numeric(state).value - closed) <= 1e-10


@PROPERTY
@given(kinds, points(), st.lists(st.tuples(strengths, strengths), min_size=1, max_size=80), st.data())
def test_one_point_equals_its_member_of_a_batch(kind, p, pairs, data):
    i = data.draw(st.integers(0, len(pairs) - 1))
    ga, gb = np.array(pairs).T
    batch = np.concatenate(list(evolve_grid(kind, p, ga, gb)))
    single = evolve(ChannelScenario(kind, Mode.MULTI_LOCAL, ga[i], gb[i]), p).matrix
    assert np.array_equal(batch[i], single)


#: Cells with a closed-form threshold: all but the multi-local flips.
CLOSED_FORM_CELLS = [
    (kind, mode)
    for kind in ChannelKind
    for mode in Mode
    if not (mode is Mode.MULTI_LOCAL and kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP))
]


@st.composite
def entangled_points(draw) -> StateParams:
    """A point with c - 3b >= 0.05, and b >= 0.005 or b = 0 with c <= 0.99.

    Closer to the edges, a threshold can lie within 5e-10 of gamma = 1,
    where the detector reports asymptotic decay (dephasing at b = 1e-6,
    c = 0.5 dies at 1 - 1.6e-11; the flips at b = 0 die at 3c/(1 + 2c)),
    or the negativity can fall so slowly that its 1e-12 death threshold is
    crossed over 1e-9 before the exact zero (multi-local phase flip at
    b = 1e-6, c = 0.0625, by 2.2e-9).
    """
    if draw(st.booleans()):
        return StateParams(0.0, draw(st.floats(0.05, 0.99)))
    b = draw(st.floats(0.005, 0.95 / 6.0))
    return StateParams(b, draw(st.floats(3.0 * b + 0.05, 1.0 - 3.0 * b)))


def _negativity_at(kind, mode, p, g):
    return negativity_numeric(evolve(ChannelScenario.at(kind, mode, g), p)).value


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(entangled_points())
def test_esd_threshold_matches_closed_form_and_is_certified(p):
    tol = 1e-9
    for kind, mode in CLOSED_FORM_CELLS:
        got = esd_gamma(kind, mode, p, tol=tol)
        want = analytic_esd_gamma(kind, mode, p)
        assert (got is None) == (want is None), (kind, mode, got, want)
        if got is None:
            continue
        assert abs(got - want) <= 1e-9, (kind, mode, got, want)
        assert _negativity_at(kind, mode, p, got) <= ESD_NEGATIVITY_THRESHOLD
        assert _negativity_at(kind, mode, p, got - tol) > ESD_NEGATIVITY_THRESHOLD
