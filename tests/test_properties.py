"""Property tests over random points of the family and random strengths,
and over random perturbations of one density matrix.

Examples are drawn from a fixed seed (``derandomize``) and capped in number,
so that every run checks the same cases in bounded time.
"""

import numpy as np
import pytest
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
    coherence_l1,
    esd_gamma,
    evolve,
    evolve_grid,
    negativity_analytic,
    negativity_numeric,
)
from qqdyn import negativity
from qqdyn.linalg import from_blocks, partial_transpose_blocks
from qqdyn.states import DENSITY_TOL, check_density

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
def test_numeric_negativity_is_zero_or_above_twice_the_cutoff(scenario, p):
    # Every eigenvalue summed lies below NEGATIVE_EIG_CUTOFF = -1e-12, so a
    # negativity that is not exactly zero exceeds 2e-12: the one cutoff is
    # the whole numeric test of death.
    state = evolve(scenario, p)
    blocks = evolve_grid(scenario.kind, p, [scenario.gamma_qubit], [scenario.gamma_qutrit])
    for value in (negativity_numeric(state).value, float(negativity_numeric(blocks).value[0])):
        assert value == 0.0 or value > 2e-12, value


#: Entries at the magnitudes of a density matrix's: zeros of both signs, and
#: |x| in [1e-30, 1], far above the 1e-146 below which LAPACK rescales a
#: matrix before its eigensolve; many with random mantissas, so that a sum
#: in another order rounds otherwise.
entries = (
    st.sampled_from([0.0, -0.0])
    | st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 1e-30)
    | st.builds(lambda x, e: x * 10.0**e, st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 0.1),
                st.integers(-29, 0))
)


@st.composite
def diagonal_pt_stacks(draw, forced: bool) -> tuple[np.ndarray, int]:
    """A (n, 2, 3, 3) block stack whose partial transposes have no non-zero
    strictly lower entry, unless ``forced``, and a drawn member.

    Each block is zero or has a drawn diagonal, its strictly lower entries
    are zeros of either sign, and its (0, 2) and (1, 2) entries, which stay
    above the diagonal of the partial transpose, are drawn too.  If
    ``forced``, the drawn member gets a symmetric pair at (1, 0), (2, 0) or
    (2, 1) of one block, which puts a non-zero entry at that place below the
    diagonal of its partial transpose.
    """
    n = draw(st.integers(1, 8))
    m = np.zeros((n, 2, 3, 3))
    lower = np.tril_indices(3, -1)
    for block in m.reshape(2 * n, 3, 3):
        block[lower] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=3, max_size=3))
        if draw(st.booleans()):
            block[np.diag_indices(3)] = draw(st.lists(entries, min_size=3, max_size=3))
            block[[0, 1], [2, 2]] = draw(st.lists(entries, min_size=2, max_size=2))
    k = draw(st.integers(0, n - 1))
    if forced:
        block = m[k, draw(st.integers(0, 1))]
        r, c = draw(st.sampled_from([(1, 0), (2, 0), (2, 1)]))
        block[r, c] = block[c, r] = draw(st.floats(0.01, 1.0))
    return m, k


def _fields_from_eigvalsh(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """The fields of ``negativity_numeric`` for each member of the block
    stack ``m``, from the eigvalsh eigenvalues of its partial transposes."""
    eigs = np.linalg.eigvalsh(partial_transpose_blocks(m)).reshape(len(m), 6)
    neg_sum = np.where(eigs < negativity.NEGATIVE_EIG_CUTOFF, eigs, 0.0).sum(axis=-1)
    value = np.where(neg_sum < 0.0, -2.0 * neg_sum, 0.0)
    return value, neg_sum, np.maximum(0.0, np.abs(eigs).sum(axis=-1) - 1.0)


@pytest.mark.parametrize("forced", [False, True], ids=["diagonal", "forced"])
@PROPERTY
@given(st.data())
def test_diagonal_partial_transposes_give_the_eigensolver_result_bit_for_bit(forced, data):
    m, k = data.draw(diagonal_pt_stacks(forced))
    one = data.draw(st.booleans())
    want = _fields_from_eigvalsh(m)
    with pytest.MonkeyPatch.context() as patch:
        if not forced:
            # The diagonal path runs no eigensolve.
            patch.setattr(np.linalg, "eigvalsh", None)
        got = negativity_numeric(m[k] if one else m)
    members = slice(k, k + 1) if one else slice(0, len(m))
    for name, expected in zip(("value", "negative_eigenvalue_sum", "via_trace_norm"), want):
        assert np.asarray(getattr(got, name)).tobytes() == expected[members].tobytes(), name


# from_blocks does not check finiteness (see its docstring): it passes the
# bad entry on as NaN entries, with numpy's warning, which the mark expects.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_block_stack_still_fails_the_eigensolve(bad):
    # Dephasing's partial transposes are diagonal at every strength, so the
    # stack would skip the eigensolve: the partial transpose rejects it
    # first, as the 6x6 route does.
    g = np.linspace(0.0, 1.0, 9)
    states = evolve_grid(ChannelKind.DEPHASING, StateParams(0.05, 0.6), g, g).copy()
    states[4, 1, 2, 2] = bad
    with pytest.raises(ValueError, match="^rho contains NaN or Inf entries$"):
        negativity_numeric(states)
    product = from_blocks(states)
    assert np.isnan(product[4]).any() and np.isfinite(np.delete(product, 4, axis=0)).all()
    with pytest.raises(ValueError, match="^rho contains NaN or Inf entries$"):
        negativity_numeric(product)


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
    # Byte for byte: the one-state calls reduce one state on their own
    # (negativity_numeric sums its six eigenvalues in Python).
    i = data.draw(st.integers(0, len(pairs) - 1))
    ga, gb = np.array(pairs).T
    batch = from_blocks(evolve_grid(kind, p, ga, gb))
    single = evolve(ChannelScenario(kind, Mode.MULTI_LOCAL, ga[i], gb[i]), p)
    assert np.array_equal(batch[i], single.matrix)
    one, stack = negativity_numeric(single), negativity_numeric(batch)
    for name in ("value", "negative_eigenvalue_sum", "via_trace_norm"):
        assert type(getattr(one, name)) is float, name
        assert np.float64(getattr(one, name)).tobytes() == getattr(stack, name)[i].tobytes(), name
    assert np.float64(coherence_l1(single)).tobytes() == coherence_l1(batch)[i].tobytes()


#: Points at the edges of the family: entangled just inside the
#: separability boundary, on it, and the separable corner, all with a = 0.
EDGE_POINTS = [StateParams(0.0, 1e-9), StateParams(1.0 / 6.0, 0.5), StateParams(1.0 / 3.0, 0.0)]
#: The corners of the strength square, (gamma_qubit, gamma_qutrit).
CORNERS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


@pytest.mark.parametrize("kind", list(ChannelKind), ids=[k.value for k in ChannelKind])
@PROPERTY
@given(
    st.one_of(points(), st.sampled_from(EDGE_POINTS)),
    st.lists(st.tuples(strengths, strengths), max_size=40),
)
def test_every_evolved_state_is_a_density_matrix(kind, p, pairs):
    # The import certifies the tables, and no call checks a state: the
    # check of each state a call returns, the corners included.
    ga, gb = np.array(pairs + CORNERS).T
    for m in from_blocks(evolve_grid(kind, p, ga, gb)):
        check_density(m)


#: Cells with a closed-form threshold: all but the multi-local flips.
CLOSED_FORM_CELLS = [
    (kind, mode)
    for kind in ChannelKind
    for mode in Mode
    if not (mode is Mode.MULTI_LOCAL and kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP))
]


#: The least initial negativity c - 3b of :func:`entangled_points`.  The
#: search decides life exactly, so it finds the deaths right at the
#: separability boundary, where a block holds two eigenvalues near zero,
#: within the tolerance too.  The margin only keeps 3b + MIN_NEGATIVITY
#: above 3b in floats, about 9 ulps at 0.5.
MIN_NEGATIVITY = 1e-15


@st.composite
def entangled_points(draw) -> StateParams:
    """Any point of the entangled regime 3b < c <= 1 - 3b whose initial
    negativity c - 3b is at least ``MIN_NEGATIVITY``; b leaves c a range
    at least that wide."""
    b = draw(st.floats(0.0, (1.0 - 2.0 * MIN_NEGATIVITY) / 6.0))
    return StateParams(b, draw(st.floats(3.0 * b + MIN_NEGATIVITY, 1.0 - 3.0 * b)))


def _negativity_at(kind, mode, p, g):
    return negativity_numeric(evolve(ChannelScenario.at(kind, mode, g), p)).value


def _alive_at(kind, mode, p, g):
    """Whether the state is entangled at g by the invariants' test of life."""
    invariants, k = negativity._block_invariants(kind, mode, p)
    return negativity._alive(invariants, k, [g])[0]


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
        # Dead as a caller checks it, by the numeric negativity; alive at
        # got - tol (or gamma = 0) by the test that the search decides with.
        assert _negativity_at(kind, mode, p, got) == 0.0
        assert _alive_at(kind, mode, p, max(got - tol, 0.0)), (kind, mode, got)


def _state(rng, eigenvalues):
    """A density matrix with the given spectrum in a random eigenbasis."""
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u, _ = np.linalg.qr(x)
    return (u * eigenvalues) @ u.conj().T


def _spectrum(rng, smallest):
    """Six eigenvalues summing to 1, the first ``smallest`` and some of the
    others zero, so that states of any rank occur."""
    rest = rng.uniform(size=5) * (rng.uniform(size=5) < 0.6)
    rest[0] += 1e-3
    return np.concatenate([[smallest], rest / rest.sum() * (1.0 - smallest)])


#: Each perturbation of one state, at a signed offset from the tolerance,
#: with the start of the message it gets (None: accepted).
PERTURBATIONS = {
    "none": None,
    "eigenvalue-above": None,
    "eigenvalue-below": "not positive semidefinite",
    "hermiticity-within": None,
    "hermiticity-beyond": "not Hermitian",
    "trace-within": None,
    "trace-beyond": "trace must be 1",
    "nan": "density matrix contains NaN or Inf",
    "inf": "density matrix contains NaN or Inf",
}


@st.composite
def perturbed_states(draw, perturbation):
    """A complex 6x6 state of any rank perturbed as ``perturbation`` names."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind, _, side = perturbation.partition("-")
    offset = 1.0 if side in ("below", "beyond") else -1.0
    smallest = -DENSITY_TOL - offset * 2e-13 if kind == "eigenvalue" else 0.0
    m = _state(rng, _spectrum(rng, smallest))
    if kind == "hermiticity":
        c = (r + draw(st.integers(1, 5))) % 6
        m[r, c] += np.exp(2j * np.pi * rng.uniform()) * (DENSITY_TOL + offset * 1e-12)
    elif kind == "trace":
        m[r, r] += draw(st.sampled_from((-1.0, 1.0))) * (DENSITY_TOL + offset * 1e-12)
    elif kind in ("nan", "inf"):
        values = (np.nan, complex(0.0, np.nan)) if kind == "nan" else (
            np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, -np.inf))
        m[r, c] = draw(st.sampled_from(values))
    return m


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("perturbation", list(PERTURBATIONS))
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(st.data())
def test_check_density_decides_each_perturbation_at_the_tolerance(perturbation, data):
    m = data.draw(perturbed_states(perturbation))
    expected = PERTURBATIONS[perturbation]
    if expected is None:
        check_density(m)
    else:
        with pytest.raises(ValueError, match=f"^{expected}"):
            check_density(m)
