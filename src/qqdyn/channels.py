"""Kraus operators of the five noise channels, held as data, and the same
channels as weighted sums of fixed terms.

Every (kind, side) channel is a fixed stack of 6x6 operator shapes weighted
by scalar functions of the strength gamma, K_i = fixed_i + w_i(gamma)
shape_i.  A qubit-side shape is padded as (op x I3), a qutrit-side one as
(I2 x op), once at import, so a channel application is always the plain sum
sum_i K_i rho K_i^dagger in the composite space, regardless of side.
The package never forms that sum: the tests build it from the shapes, as
the direct Kraus sum that the polynomial form is held to.

The squared weights are linear in gamma, u = w_0^2 = 1 - p gamma / m and
v = w_i^2 = gamma / m for i > 0, and only K_0 may have a fixed part.
Expanding the Kraus sum therefore gives exactly

    E_gamma(rho) = u T_u(rho) + v T_v(rho) + s T_s(rho),  s = w_0 = sqrt(u),

a polynomial T_0 + gamma T_1 + s T_2 in gamma and s written in the squared
weights.  T_s collects the cross terms of K_0's fixed part and shape and
exists only for dephasing; for the mixed-unitary kinds shape_0 is I and T_u
is the identity map.  The squared weights keep every summand about the size
of the result, as in the Kraus sum itself, where (1, gamma) would have T_0
and gamma T_1 cancel towards gamma = 1.  :func:`channel_terms` gives the
terms of any states, which the evolution tabulates once at import for the
family's basis states.  :func:`channel_weights` gives the weight rows
(u, v[, s]) of both sides at once, for a strength array per side, from one
formula over per-kind columns of p and m.  The ESD search's weight
polynomials in y, 1 - gamma = y^k, take the same columns in integers at
gamma = 0 and 1, each row times its m (``evolution._integer_rows``), so
that its tables stay exact; the tests hold the two to one another.

Completeness is certified once, at import, for every (kind, side): its
Gram polynomial sum_i K_i^dagger K_i = u G_u + v G_v + s G_s must have
G_s = 0 and be I6 at gamma = 0 and 1.  u and v are affine in gamma, so
the Gram polynomial is then I6 at every strength, and a call checks only
its strengths.  Each side is certified apart, so that a defect of one
cannot cancel against the other.  :func:`completeness_defect` is that
certificate's one computation, which ``validate`` reports too.  A complete
channel is trace preserving, and completely positive by its Kraus form.
For the eight mixed-unitary channels more holds:
E_gamma(rho) = u rho + v sum_i U_i rho U_i^dagger is affine in gamma, so
the two-sided map, and with it the evolved state, is bi-affine in
(gamma_qubit, gamma_qutrit), a convex mix of its values at the four
corners of the strength square.  Dephasing, whose s term is not affine,
rests on its Kraus form alone.

Eight of the ten channels are mixed-unitary: K_0 = sqrt(1 - f gamma) I and
K_i = sqrt(f gamma / n) U_i for n unitaries U_i, with f = 1/2 for the qubit
flips, 3/4 for qubit depolarizing, 2/3 for the qutrit flips and 8/9 for
qutrit depolarizing.  Dephasing keeps the level-0 projector P_0 untouched:
K_0 = P_0 + sqrt(1 - gamma)(I - P_0) and K_j = sqrt(gamma) P_j.

All five channels admit the strength parametrization gamma = 1 - exp(-t * rate)
in [0, 1]; gamma = 0 is the identity channel and gamma = 1 the infinite-time
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .linalg import TOTAL_DIM

if TYPE_CHECKING:
    from collections.abc import Callable

    from numpy.typing import ArrayLike

COMPLETENESS_TOL = 1e-12

_EYE = np.eye(TOTAL_DIM, dtype=complex)

#: Primitive cube root of unity used by the qutrit phase operators.
OMEGA = np.exp(2j * np.pi / 3.0)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

I2 = np.eye(2, dtype=complex)
I3 = np.eye(3, dtype=complex)

#: Qutrit cyclic shift (|0> -> |2> -> |1> -> |0>) and phase diag(1, w, w*).
QUTRIT_SHIFT = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
QUTRIT_PHASE = np.diag([1.0, OMEGA, np.conj(OMEGA)])


class ChannelKind(str, Enum):
    DEPHASING = "dephasing"
    PHASE_FLIP = "phaseflip"
    BIT_FLIP = "bitflip"
    BIT_PHASE_FLIP = "bitphaseflip"
    DEPOLARIZING = "depolarizing"


class Side(str, Enum):
    QUBIT = "qubit"
    QUTRIT = "qutrit"


@dataclass(frozen=True)
class _KrausShapes:
    """K_i(gamma) = fixed_i + w_i(gamma) shape_i, all padded to 6x6, with
    weights w_0 = sqrt(1 - p gamma / m) and w_i = sqrt(gamma / m) for i > 0.

    Only K_0 may have a fixed part, and without one shape_0 is the identity
    (the mixed-unitary kinds)."""

    fixed: np.ndarray
    shapes: np.ndarray
    p: int
    m: int

    def __post_init__(self) -> None:
        mixed_unitary = np.array_equal(self.shapes[0], _EYE)
        if self.fixed[1:].any() or not (self.fixed[0].any() or mixed_unitary):
            raise ValueError("only K_0 may have a fixed part, and without one shape_0 is I")

    @cached_property
    def terms(self) -> int:
        """Length of the weight rows: (u, v, s) with a fixed part, else (u, v)."""
        return 3 if self.fixed.any() else 2

    def expand(self, pair: Callable, identity: np.ndarray) -> np.ndarray:
        """The coefficients (C_u, C_v[, C_s]) of sum_i pair(K_i, K_i) =
        u C_u + v C_v + s C_s, for a ``pair`` linear in each operator and
        equal to ``identity`` at pair(I, I).

        Expanding each K_i = fixed_i + w_i shape_i, the squares w_i^2 give
        the u and v terms and the cross terms of K_0 carry w_0 = s; the
        fixed part's own term is constant, and 1 = u + p v.
        """
        f, k = self.fixed, self.shapes
        # Without a fixed part shape_0 is I, so pair(I, I) takes no product.
        square0 = identity if self.terms == 2 else pair(k[0], k[0])
        rest = sum(pair(x, x) for x in k[1:])
        if self.terms == 2:
            return np.array([square0, rest])
        fixed0 = pair(f[0], f[0])
        cross = pair(f[0], k[0]) + pair(k[0], f[0])
        return np.array([square0 + fixed0, rest + self.p * fixed0, cross])


def _embedded(side: Side, ops) -> np.ndarray:
    if side is Side.QUBIT:
        return np.array([np.kron(op, I3) for op in ops])
    return np.array([np.kron(I2, op) for op in ops])


def _mixed_unitary(side: Side, m: int, unitaries) -> _KrausShapes:
    """K_0 = sqrt(1 - n gamma / m) I and K_i = sqrt(gamma / m) U_i for the n
    unitaries U_i, that is f = n / m."""
    eye = I2 if side is Side.QUBIT else I3
    shapes = _embedded(side, [eye, *unitaries])
    return _KrausShapes(np.zeros_like(shapes), shapes, len(unitaries), m)


def _dephasing(side: Side) -> _KrausShapes:
    """K_0 = P_0 + sqrt(1 - gamma)(I - P_0) and K_j = sqrt(gamma) P_j."""
    eye = I2 if side is Side.QUBIT else I3
    proj = [np.diag(row) for row in eye]
    fixed = _embedded(side, [proj[0]] + [0 * eye] * (len(proj) - 1))
    shapes = _embedded(side, [eye - proj[0], *proj[1:]])
    return _KrausShapes(fixed, shapes, 1, 1)


def _qutrit_depolarizing_words() -> list[np.ndarray]:
    y, z = QUTRIT_SHIFT, QUTRIT_PHASE
    return [y, z, y @ y, y @ z, y @ y @ z, y @ z @ z, y @ y @ z @ z, z @ z]


_PHASED_SHIFT_DOWN = np.array([[0, 0, OMEGA], [1, 0, 0], [0, np.conj(OMEGA), 0]])
_PHASED_SHIFT_UP = np.array([[0, np.conj(OMEGA), 0], [0, 0, OMEGA], [1, 0, 0]])

#: The operator table, built once at import, K_0 first.  The mixed-unitary
#: entries give m = n / f.
_SHAPES: dict[tuple[ChannelKind, Side], _KrausShapes] = {
    (ChannelKind.DEPHASING, Side.QUBIT): _dephasing(Side.QUBIT),
    (ChannelKind.DEPHASING, Side.QUTRIT): _dephasing(Side.QUTRIT),
    (ChannelKind.PHASE_FLIP, Side.QUBIT): _mixed_unitary(Side.QUBIT, 2, [SIGMA_Z]),
    (ChannelKind.PHASE_FLIP, Side.QUTRIT): _mixed_unitary(
        Side.QUTRIT, 3, [QUTRIT_PHASE.conj(), QUTRIT_PHASE]
    ),
    (ChannelKind.BIT_FLIP, Side.QUBIT): _mixed_unitary(Side.QUBIT, 2, [SIGMA_X]),
    (ChannelKind.BIT_FLIP, Side.QUTRIT): _mixed_unitary(
        Side.QUTRIT, 3, [QUTRIT_SHIFT.T, QUTRIT_SHIFT]
    ),
    (ChannelKind.BIT_PHASE_FLIP, Side.QUBIT): _mixed_unitary(Side.QUBIT, 2, [SIGMA_Y]),
    (ChannelKind.BIT_PHASE_FLIP, Side.QUTRIT): _mixed_unitary(
        Side.QUTRIT,
        6,
        [_PHASED_SHIFT_DOWN, _PHASED_SHIFT_DOWN.conj(), _PHASED_SHIFT_UP, _PHASED_SHIFT_UP.conj()],
    ),
    (ChannelKind.DEPOLARIZING, Side.QUBIT): _mixed_unitary(
        Side.QUBIT, 4, [SIGMA_X, SIGMA_Y, SIGMA_Z]
    ),
    (ChannelKind.DEPOLARIZING, Side.QUTRIT): _mixed_unitary(
        Side.QUTRIT, 9, _qutrit_depolarizing_words()
    ),
}


def _strength_pairs(gamma_qubit: ArrayLike, gamma_qutrit: ArrayLike) -> np.ndarray:
    """Both sides' strengths as one (2, N) float array, qubit side first,
    possibly empty; reject a pair that is not two 1-d arrays of one length,
    and any strength outside [0, 1], NaN included."""
    try:
        g = np.array((gamma_qubit, gamma_qutrit), dtype=float)
    except ValueError:  # arrays of unequal shapes
        g = None
    if g is None or g.ndim != 2:
        shapes = np.shape(gamma_qubit), np.shape(gamma_qutrit)
        raise ValueError(f"strengths must be 1-d arrays of one length, got shapes {shapes}")
    check_strengths(g)
    return g


def check_strengths(*gammas: np.ndarray) -> None:
    """Reject any strength outside [0, 1], NaN included, naming the first."""
    for g in gammas:
        ok = (g >= 0.0) & (g <= 1.0)
        if not ok.all():
            raise ValueError(f"gamma must lie in [0, 1], got {g[~ok][0]}")


_EYE_ROW = _EYE.view(float).ravel()


class _Weighting(NamedTuple):
    """What weights a kind's two sides at once, qubit side first: the (2, 1)
    columns of p and m, the number of terms T of a weight row, and each
    side's (p, m) as Python floats."""

    p: np.ndarray
    m: np.ndarray
    terms: int
    sides: tuple[tuple[float, float], ...]


def _weights(p, m, g, terms: int, sqrt: Callable) -> tuple:
    """The weights (u, v[, s]) at the strengths ``g``: u = 1 - p g / m,
    v = g / m and s = sqrt(u).  The one weight formula, for one side's
    Python floats with ``math.sqrt`` or for arrays with ``np.sqrt``: the same
    IEEE operations either way, so the two agree to the bit."""
    u = 1.0 - p * g / m
    return (u, g / m, sqrt(u)) if terms == 3 else (u, g / m)


def _rows(weighting: _Weighting, g: np.ndarray) -> np.ndarray:
    """The (2, N, T) weight rows (u, v[, s]) at the (2, N) strengths ``g``."""
    w = np.empty((*g.shape, weighting.terms))
    for i, x in enumerate(_weights(weighting.p, weighting.m, g, weighting.terms, np.sqrt)):
        w[..., i] = x
    return w


def _gram(kind: ChannelKind, side: Side) -> np.ndarray:
    """The Gram polynomial sum_i K_i^dagger K_i = u G_u + v G_v + s G_s of
    one side, one real row per term holding the complex entries as (real,
    imaginary) pairs."""
    s = _SHAPES[kind, side]
    return s.expand(lambda a, b: a.conj().T @ b, _EYE).view(float).reshape(s.terms, -1)


def completeness_defect(kind: ChannelKind) -> float:
    """The completeness defect of one kind, from the table as it stands: the
    largest entry of |G_s| and of each side's Gram polynomial less I6 at
    gamma = 0 and 1 (NaN if any is NaN).  u and v are affine in gamma, so a
    Gram polynomial with G_s = 0 is within that defect of I6 at every
    strength.  The sides are taken apart, so that a defect of one cannot
    cancel against the other."""
    defects = []
    for side in Side:
        s, gram = _SHAPES[kind, side], _gram(kind, side)
        ends = np.array(_weights(s.p, s.m, np.array([0.0, 1.0]), s.terms, np.sqrt)).T
        defects += [ends @ gram - _EYE_ROW, gram[2:]]
    return float(np.abs(np.concatenate(defects)).max())


def _weighting(kind: ChannelKind) -> _Weighting:
    """The weighting of one kind, after rejecting a completeness defect above
    ``COMPLETENESS_TOL``, NaN included."""
    defect = completeness_defect(kind)
    if not defect <= COMPLETENESS_TOL:
        raise ValueError(f"completeness violated: max deviation {defect:.3e}")
    shapes = [_SHAPES[kind, side] for side in Side]
    sides = tuple((float(s.p), float(s.m)) for s in shapes)
    p, m = np.array(sides).T[..., None]
    return _Weighting(p, m, shapes[0].terms, sides)


#: The weighting of every kind, built and certified once at import.
_WEIGHTINGS = {kind: _weighting(kind) for kind in ChannelKind}


def channel_weights(kind: ChannelKind, gamma_qubit: ArrayLike, gamma_qutrit: ArrayLike) -> np.ndarray:
    """The (2, N, T) weight rows (u, v[, s]) of one channel kind, qubit side
    first, at the N strength pairs of the 1-d arrays ``gamma_qubit`` and
    ``gamma_qutrit``: the squared weights u = 1 - p gamma / m and
    v = gamma / m of each side, and s = sqrt(u).  A strength of zero gives
    the identity row (1, 0[, 1]).  The import certified completeness at
    every strength (:func:`_weighting`), so only the strengths are
    checked."""
    return _rows(_WEIGHTINGS[ChannelKind(kind)], _strength_pairs(gamma_qubit, gamma_qutrit))


def channel_terms(kind: ChannelKind, side: Side, rho: np.ndarray) -> np.ndarray:
    """The terms (T_u, T_v[, T_s]) of one channel kind and side applied to a
    (..., 6, 6) stack ``rho``, stacked along a new first axis: the channel
    maps rho to u T_u + v T_v + s T_s with the weights of
    :func:`channel_weights`."""
    shapes = _SHAPES[(ChannelKind(kind), Side(side))]
    return shapes.expand(lambda a, b: a @ rho @ b.conj().T, rho)
