import numpy as np
import pytest
from pytest import approx

from qqdyn import (
    DensityMatrix,
    StateParams,
    initial_state,
    negativity_numeric,
)
from qqdyn.states import BELL_KINDS, FAMILY_BASIS, _BELL_PROJECTORS

from helpers import brute_negativity


def test_params_derived_weight():
    p = StateParams(0.05, 0.6)
    assert p.a == approx(0.125)
    assert StateParams(0.0, 1.0).a == approx(0.0)


def test_params_rejects_invalid():
    with pytest.raises(ValueError):
        StateParams(-0.01, 0.5)
    with pytest.raises(ValueError):
        StateParams(0.1, 1.1)
    with pytest.raises(ValueError):
        StateParams(0.3, 0.5)  # 3b + c > 1


def test_params_entangled_predicate():
    assert StateParams(0.05, 0.6).is_entangled
    assert not StateParams(0.05, 0.15).is_entangled  # c = 3b boundary
    assert not StateParams(0.05, 0.1).is_entangled
    assert StateParams(0.0, 1.0).is_entangled  # c = 1 - 3b boundary included
    assert not StateParams(0.1, 0.0).is_entangled


def test_a_zero_family():
    p = StateParams.a_zero(4.0 / 30.0)
    assert p.c == approx(0.6)
    assert p.a == approx(0.0, abs=1e-15)


def test_bell_states():
    psim = _BELL_PROJECTORS["psi-"]
    assert psim[1, 1] == approx(0.5)
    assert psim[3, 3] == approx(0.5)
    assert psim[1, 3] == approx(-0.5)
    assert psim[3, 1] == approx(-0.5)

    phip = _BELL_PROJECTORS["phi+"]
    assert phip[0, 0] == approx(0.5)
    assert phip[4, 4] == approx(0.5)
    assert phip[0, 4] == approx(0.5)

    for kind in BELL_KINDS:
        dm = DensityMatrix(_BELL_PROJECTORS[kind])
        assert dm.matrix.trace() == approx(1.0)
        assert (dm.matrix @ dm.matrix).trace().real == approx(1.0)  # pure
    assert FAMILY_BASIS[2] == approx(psim)


def test_initial_state_structure():
    p = StateParams(0.05, 0.6)
    m = initial_state(p).matrix
    assert np.diag(m).real == approx([0.05, 0.325, 0.125, 0.325, 0.05, 0.125])
    assert m[1, 3] == approx((p.b - p.c) / 2)
    off = m - np.diag(np.diag(m))
    off[1, 3] = off[3, 1] = 0.0
    assert np.abs(off).max() == approx(0.0, abs=1e-15)


def test_initial_state_worked_example():
    m = initial_state(StateParams(1 / 6, 0.5)).matrix
    assert np.diag(m).real == approx([1 / 6, 1 / 3, 0, 1 / 3, 1 / 6, 0])
    assert m[1, 3] == approx(-1 / 6)


def test_initial_state_singlet_limit():
    assert initial_state(StateParams(0.0, 1.0)).matrix == approx(_BELL_PROJECTORS["psi-"])


def test_initial_negativity_values():
    assert negativity_numeric(initial_state(StateParams(0.0, 1.0))).value == approx(1.0)
    assert negativity_numeric(initial_state(StateParams(0.05, 0.6))).value == approx(0.45)
    assert negativity_numeric(initial_state(StateParams(0.08, 0.24))).value == approx(0.0)
    assert negativity_numeric(initial_state(StateParams(1 / 6, 1 / 6))).value == approx(0.0)


def test_initial_negativity_matches_numeric_on_grid():
    for b in np.linspace(0.0, 1.0 / 3.0, 25):
        for c in np.linspace(0.0, 1.0, 25):
            if 3 * b + c > 1.0:
                continue
            p = StateParams(b, c)
            n = negativity_numeric(initial_state(p)).value
            assert n == approx(max(0.0, c - 3 * b), abs=1e-10)


def test_entangled_predicate_iff_positive_negativity():
    # 100x100 grid over the valid parameter simplex; points sitting on the
    # c = 3b boundary to within float resolution are skipped since the
    # predicate is ill-conditioned exactly there.
    for b in np.linspace(0.0, 1.0 / 3.0, 100):
        for c in np.linspace(0.0, 1.0, 100):
            if 3 * b + c > 1.0 or abs(c - 3 * b) < 1e-9:
                continue
            p = StateParams(b, c)
            n = brute_negativity(initial_state(p).matrix)
            assert (n > 1e-12) == p.is_entangled, (b, c, n)


def test_initial_state_affine_in_weights():
    p1, p2 = StateParams(0.02, 0.7), StateParams(0.12, 0.3)
    lam = 0.37
    mixed = StateParams(lam * p1.b + (1 - lam) * p2.b, lam * p1.c + (1 - lam) * p2.c)
    direct = lam * initial_state(p1).matrix + (1 - lam) * initial_state(p2).matrix
    assert initial_state(mixed).matrix == approx(direct, abs=1e-14)


def test_density_matrix_validation():
    good = np.eye(6) / 6
    DensityMatrix(good)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(6))  # trace 6
    bad_herm = good.astype(complex).copy()
    bad_herm[0, 1] = 1e-3
    with pytest.raises(ValueError):
        DensityMatrix(bad_herm)
    not_psd = np.diag([0.7, 0.5, -0.2, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(not_psd)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3)


def test_density_matrix_is_immutable():
    dm = initial_state(StateParams(0.05, 0.6))
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 9.0
