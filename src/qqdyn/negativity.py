"""Negativity via two routes, closed-form negativities, and ESD detection.

Negativity is computed from the spectrum of the partial transpose over the
qutrit: once as trace norm minus one and once as twice the magnitude of the
negative-eigenvalue sum.  The two routes agree identically up to eigensolver
noise and both are reported.  An eigenvalue counts as negative below
``NEGATIVE_EIG_CUTOFF``, the one numeric cutoff.  The evolved states come in
block form (see ``linalg``): the partial transpose commutes with the
symmetry S too, so it is one fixed real map between block pairs, and the
spectrum is that of two real symmetric 3x3 blocks per state.  Where every
block of a stack is diagonal, as in every mode of dephasing and phase flip
and the qubit-only mode of the other kinds, the spectrum is the sorted
diagonal, which is what LAPACK returns, and no eigensolve runs.  A 6x6 state
of any kind takes a complex 6x6 eigensolve of ``partial_transpose_qutrit``
instead, the product-basis reference that ``validate`` holds the block
route to.

Entanglement sudden death (ESD) means the negativity reaches zero at a
finite noise strength, strictly before the infinite-time limit gamma = 1.
For a qubit-qutrit state a positive partial transpose is necessary and
sufficient for separability (Horodecki, Horodecki & Horodecki 1996), so
the state dies exactly where the last negative eigenvalue of
rho^Gamma(gamma) crosses zero.  Along one sweep each block's invariants
e_1, e_2, e_3 (trace, principal-minor sum, determinant) are exact
polynomials in y, 1 - gamma = y^k (k = 2 for dephasing, else 1), and
linear, quadratic and cubic in the family weights (2a, 3b, c).  The import
tabulates them per cell over the 3 + 6 + 10 distinct monomials of those
weights, as the integers over 93312 that they are.  Every float weight is
a dyadic rational, so all three times one power of two are integers, and
a search contracts its table with its point's monomials in exact integer
arithmetic.  A coefficient is zero only when it is exactly zero: that
picks each block's highest invariant that does not vanish identically and
trims it at both ends, so a multiple root at gamma = 1 (y = 0) does not
split into false roots below 1.  The candidates are the real roots in
(0, 1) of the two picked invariants, from one stacked companion eigensolve
on their coefficients rounded to floats.

A real symmetric 3x3 block is positive semidefinite exactly when its e_1,
e_2 and e_3 are all >= 0.  So the state is alive where some invariant of
either block is negative and dead where all are >= 0, and at a float
strength, a dyadic rational too, :func:`_alive` decides this exactly, in
integers.  A 2x3 partial transpose can have two negative eigenvalues at
once (Rana, PRA 87, 054301, 2013), so that test about each candidate
certifies the first death, and :func:`_section` narrows the bracket to the
tolerance.  The search evolves no state and has no fixed threshold.  A
curve that vanishes only at gamma = 1 is asymptotic decay, not ESD.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement, product
from typing import TYPE_CHECKING

import numpy as np

from .channels import ChannelKind
from .evolution import ChannelScenario, Mode
from .evolution import _polymul, _sweep_basis
from .linalg import BLOCK_SHAPE, TOTAL_DIM, partial_transpose_blocks, partial_transpose_qutrit
from .states import DensityMatrix, StateParams, family_weights

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: Eigenvalues above this cutoff are eigensolver dust, not negativity.  So a
#: numeric negativity is either exactly 0.0 or above 2e-12, and 0.0 is the
#: numeric test of death (of ``validate``'s grid-scan oracle).
NEGATIVE_EIG_CUTOFF = -1e-12

#: Every entry of the invariant tables is an integer over this grid,
#: 93312 = 2^7 3^6, which the import certifies (:func:`_snapped`).
_TABLE_GRID = 93312.0
#: A complex root pair closer than this to the real axis is a double root
#: split by rounding, and is kept as a candidate.
_IMAG_TOL = 1e-6
#: A chosen invariant's leading coefficients below this fraction of its
#: largest are dropped from its companion matrix, where they would only add
#: roots near infinity and drown the others in rounding.
_LEADING_CUTOFF = 2.0**-52
#: Columns j + 1 and j + 2 (mod 3) for each column j of a 3x3 matrix.
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]

#: Half-width of the bracket that certifies a root.
ESD_BRACKET = 2.0**-31
#: Interior strengths that one :func:`_section` step samples, evenly spaced,
#: cutting the bracket into 16 parts: 4 bits per call of the test of life.
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
    :func:`evolve_grid` returns it, whose partial transposes are block stacks
    too (``linalg.partial_transpose_blocks``) and take one batched real 3x3
    eigensolve, or none where every block is diagonal.  For a stack each
    field of the result is an array over the leading axes.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    if m.shape[-3:] == BLOCK_SHAPE:
        pt = partial_transpose_blocks(m)
        # One flattened block per row: columns 3, 6 and 7 are its strictly
        # lower entries, the only ones besides the diagonal (::4) that
        # eigvalsh reads.  LAPACK returns the diagonal of a diagonal block
        # exactly, sorted, unless it rescales a block whose entries all lie
        # below about 1e-146 (or one above 1e145).
        flat = pt.reshape(-1, 9)
        if not (flat[:, 3].any() or flat[:, 6:8].any()):
            eigs = np.sort(flat[:, ::4], axis=-1)
        else:
            eigs = np.linalg.eigvalsh(pt)
        eigs = eigs.reshape(*pt.shape[:-3], TOTAL_DIM)
    else:
        pt = partial_transpose_qutrit(m)
        eigs = np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2.0)
    if eigs.ndim == 1:
        # Summed from 0.0 in numpy's order for six; max keeps 0.0 over -0.0.
        neg_sum = total = 0.0
        for e in eigs.tolist():
            if e < NEGATIVE_EIG_CUTOFF:
                neg_sum += e
            total += abs(e)
        return NegativityResult(max(0.0, -2.0 * neg_sum), neg_sum, max(0.0, total - 1.0))
    neg_sum = np.where(eigs < NEGATIVE_EIG_CUTOFF, eigs, 0.0).sum(axis=-1)
    # np.maximum(0.0, -neg_sum) would give -0.0 where no eigenvalue is negative.
    value = np.where(neg_sum < 0.0, -2.0 * neg_sum, 0.0)
    return NegativityResult(value, neg_sum, np.maximum(0.0, np.abs(eigs).sum(axis=-1) - 1.0))


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
    x = _negativity_form(scenario.kind, scenario.mode, params, scenario.gamma_qubit,
                         scenario.gamma_qutrit, corrected)
    return float(2.0 * max(0.0, x))


def analytic_negativities(
    kind: ChannelKind,
    mode: Mode,
    params: StateParams,
    gamma_qubit: ArrayLike,
    gamma_qutrit: ArrayLike,
) -> np.ndarray:
    """:func:`negativity_analytic` at each strength pair of one (kind, mode)
    cell, as an array shaped like the strengths, with the same values to
    the bit.  The strengths must suit the mode, as :class:`ChannelScenario`
    checks for one pair."""
    ga = np.asarray(gamma_qubit, dtype=float)
    gb = np.asarray(gamma_qutrit, dtype=float)
    x = _negativity_form(ChannelKind(kind), Mode(mode), params, ga, gb)
    # 2 max(0, x) as the scalar form takes it: +0.0 wherever x > 0 fails.
    return np.where(x > 0.0, 2.0 * x, 0.0)


def _negativity_form(kind, mode, params, ga, gb, corrected=True):
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


#: The last float below 1, the last strength at which ESD can show.
_LAST_BELOW_ONE = 1.0 - 2.0**-53
#: A rounded threshold at or above this, 8 ulps below 1, may round an exact
#: one that lies above ``_LAST_BELOW_ONE``, or one below it up to 1: the
#: float forms take at most about 6 roundings.
_NEAR_ONE = 1.0 - 2.0**-50


def analytic_esd_gamma(kind: ChannelKind, mode: Mode, params: StateParams) -> float | None:
    """Closed-form ESD threshold on the sweep axis, or None.

    None means either no closed form exists for the scenario (multi-local
    bit-flip and bit-phase-flip) or the threshold is not below 1, i.e. the
    state never dies at finite time.  Multi-local thresholds are for the
    equal-strength diagonal.  A rounded threshold within 8 ulps of 1 is
    decided exactly (:func:`_dead_below_one`): None unless the state is
    dead at the last float below 1, and never above that float.
    """
    kind, mode = ChannelKind(kind), Mode(mode)
    b, c = params.b, params.c
    check_entangled(params)

    ratio = 2 * b / (c - b)
    if kind is ChannelKind.DEPHASING:
        t = 1.0 - ratio if mode is Mode.MULTI_LOCAL else 1.0 - ratio**2
    elif kind is ChannelKind.PHASE_FLIP:
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
            # 9(c-b) g (1-g) + 2 g (1-9b+3c) = 6(c-3b), qa g^2 - qb g + qc = 0,
            # in the form that does not cancel as qc, so c - 3b, goes to 0.
            qa = 9 * (c - b)
            qb = qa + 2 * (1 - 9 * b + 3 * c)
            qc = 6 * (c - 3 * b)
            t = 2 * qc / (qb + math.sqrt(qb * qb - 4 * qa * qc))
    else:
        raise ValueError(f"unknown channel kind {kind!r}")

    if t >= _NEAR_ONE:
        return min(t, _LAST_BELOW_ONE) if _dead_below_one(kind, mode, b, c) else None
    return t if 0.0 < t else None


def _dead_below_one(kind: ChannelKind, mode: Mode, b: float, c: float) -> bool:
    """Whether the closed form is dead at ``_LAST_BELOW_ONE``, decided
    exactly on the float inputs: whether 1 - t >= 2^-53 for the exact
    threshold t.  Over their common denominator d, b and c are integers
    (:func:`_over_common_denominator`), and 1 - t is a quotient of integers
    in them.

    Only the thresholds that reach 1 come here, those of dephasing, phase
    flip and the local flips; the depolarizing ones are at most 3/4.
    """
    (b, c), d = _over_common_denominator([b, c])
    # 1 - t as num / den, over the ratio 2b / (c - b).
    num, den = 2 * b, c - b
    if kind is ChannelKind.DEPHASING:
        if mode is not Mode.MULTI_LOCAL:
            num, den = num * num, den * den
    elif kind is ChannelKind.PHASE_FLIP and mode is Mode.MULTI_LOCAL:
        # 1 - t = sqrt(ratio), compared squared.
        num <<= 53
    elif kind is not ChannelKind.PHASE_FLIP and mode is not Mode.QUBIT_ONLY:
        # The qutrit-only flips, t = (3c - 9b) / (1 - 8b + 2c).
        num, den = d + b - c, d - 8 * b + 2 * c
    # Else t = (c - 3b) / (c - b), so 1 - t is the ratio.
    return num << 53 >= den


def _over_common_denominator(values: list[float]) -> tuple[list[int], int]:
    """Floats, which are dyadic rationals, as integers over their common
    denominator d, the largest power of two among theirs; and d."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max(q for _, q in ratios)
    return [n * (d // q) for n, q in ratios], d


def check_tol(tol: float) -> None:
    """Reject an ESD bracket tolerance that is not a positive number."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")


def check_entangled(params: StateParams) -> None:
    """Reject a point outside the entangled regime, where no ESD is defined."""
    if not params.is_entangled:
        raise ValueError("ESD detection requires an entangled initial state")


def _invariant_forms(pt: np.ndarray) -> list[np.ndarray]:
    """e_1, e_2 and e_3 of the eigenvalues of the blocks A = sum_j x_j
    pt[:, j], as forms in the x_j.  ``pt`` holds 3x3 polynomial blocks:
    coefficients of 1, y, ... along axis 0, then the j axis, then any
    further axes, which the forms keep, then the 3x3.  e_i comes back with
    its coefficients along axis 0, then i axes of j, then the further axes;
    summed times x_j x_k ... over every j, k, ... it is e_i of the blocks
    A.  e_1 = tr A, e_2 = ((tr A)^2 - tr A^2) / 2 and e_3 = det A by the
    cofactors of row 0, its rows 0, 1 and 2 taken from pt[:, j], pt[:, k]
    and pt[:, l]: the determinant is linear in each row.  The arithmetic
    keeps the dtype of ``pt``, so exact rationals stay exact."""
    tr = np.trace(pt, axis1=-2, axis2=-1)
    squares = _polymul(pt[:, :, None], pt[:, None].swapaxes(-1, -2)).sum(axis=(-2, -1))
    r0 = pt[:, :, None, None, ..., 0, :]
    r1 = pt[:, None, :, None, ..., 1, :]
    r2 = pt[:, None, None, :, ..., 2, :]
    cofactors = _polymul(r1[..., _NEXT], r2[..., _AFTER])
    cofactors -= _polymul(r1[..., _AFTER], r2[..., _NEXT])
    return [
        tr,
        (_polymul(tr[:, :, None], tr[:, None]) - squares) / 2,
        _polymul(r0, cofactors).sum(axis=-1),
    ]


def _snapped(t: np.ndarray) -> np.ndarray:
    """``t`` in units of 1 / 93312 (``_TABLE_GRID``), each entry the integer
    whose rational it rounds; raises if an entry lies more than 1e-6 of a
    grid unit off the grid, which no rounding explains."""
    scaled = t * _TABLE_GRID
    whole = np.round(scaled)
    if not np.abs(scaled - whole).max() <= 1e-6:
        raise RuntimeError("an invariant table entry is off the 1/93312 grid")
    return whole.astype(np.int64)


def _monomials(x: list) -> list:
    """The 3 + 6 + 10 distinct monomials of degree 1, 2 and 3 in the three
    items of ``x``."""
    return [math.prod(m) for d in (1, 2, 3) for m in combinations_with_replacement(x, d)]


def _invariant_tables() -> dict[tuple[ChannelKind, Mode], tuple[list, int, int]]:
    """Per cell, e_1, e_2 and e_3 of the partial transpose's blocks along its
    sweep (:func:`_invariant_forms` of ``evolution._sweep_basis``) as one
    integer table over the monomials of degree 1, 2 and 3 of the family
    weights (2a, 3b, c), in units of 1 / 93312 (:func:`_snapped`); with
    D + 1, D the degree of e_3 in y, and k, 1 - gamma = y^k.

    The forms expand over the 3 + 9 + 27 ordered monomials, which are summed
    into the 19 distinct ones of :func:`_monomials`, told apart by their
    values at the primes 2, 3 and 5.  A table is kept as its non-zero
    entries, in three lists of ints: the monomial, the slot (2 i + block)
    (D + 1) + j of the coefficient of y^j of e_(i + 1) that it adds to, and
    the integer.  The cells of one degree in y go through one call."""
    bases = {(kind, mode): _sweep_basis(kind, mode) for kind in ChannelKind for mode in Mode}
    by_degree = {}
    for cell, (basis, _) in bases.items():
        by_degree.setdefault(len(basis), []).append(cell)
    distinct = _monomials([2, 3, 5])
    # The distinct monomial of each ordered one of degree 1, 2 and 3.
    merge = [[distinct.index(math.prod(m)) for m in product((2, 3, 5), repeat=d)]
             for d in (1, 2, 3)]
    # Equal entries share one int object, which keeps the tables small.
    shared, tables = {}, {}
    for cells in by_degree.values():
        # The cells on an axis after the basis axis, which the forms keep.
        pt = np.stack([bases[cell][0] for cell in cells], axis=2)
        forms = _invariant_forms(partial_transpose_blocks(pt))
        size = len(forms[-1])
        table = np.zeros((len(distinct), len(cells), 3, 2, size), dtype=np.int64)
        for i, (e, rows) in enumerate(zip(forms, merge)):
            # A row per ordered monomial, then cells, blocks and powers of y.
            e = np.moveaxis(e, 0, -1).reshape(len(rows), len(cells), 2, -1)
            np.add.at(table[:, :, i, :, : e.shape[-1]], rows, _snapped(e))
        for cell, t in zip(cells, table.swapaxes(0, 1).reshape(len(cells), len(distinct), -1)):
            m, slot, v = np.stack([*t.nonzero(), t[t != 0]]).tolist()
            v = list(map(shared.setdefault, v, v))
            tables[cell] = ([m, slot, v], size, bases[cell][1])
    return tables


#: The invariant tables of every cell, built once at import.
_INVARIANT_TABLES = _invariant_tables()


def _block_invariants(kind: ChannelKind, mode: Mode, params: StateParams) -> tuple[list, int]:
    """e_1, e_2 and e_3 of the eigenvalues of both partial-transpose blocks
    along one cell's sweep, exactly, as integers: six lists of the
    coefficients of 1, y, ..., y^D, e_(i + 1) of block b at 2 i + b (the
    S-even block is 0); and k, 1 - gamma = y^k.

    The float weights (2a, 3b, c) are integers w over their common
    denominator d (:func:`_over_common_denominator`); e_i comes times
    93312 d^i, its cell's table (:func:`_invariant_tables`) contracted with
    the monomials of degree i of w."""
    table, size, k = _INVARIANT_TABLES[kind, mode]
    monomials = _monomials(_over_common_denominator(family_weights(params).tolist())[0])
    flat = [0] * (6 * size)
    for m, slot, v in zip(*table):
        flat[slot] += v * monomials[m]
    return [flat[i : i + size] for i in range(0, 6 * size, size)], k


def _chosen_invariants(invariants: list) -> list[list[float]]:
    """Per block, the coefficients of its highest invariant e_i that does not
    vanish identically, with its zero coefficients trimmed off both ends, as
    floats over the largest in magnitude (each a correctly rounded
    quotient), less any leading ones below ``_LEADING_CUTOFF``;
    ``invariants`` as :func:`_block_invariants` returns them."""
    chosen = []
    for block in (0, 1):
        for c in invariants[4 + block :: -2]:
            if any(c):
                top = max(map(abs, c))
                c = [v / top for v in c[next(j for j, v in enumerate(c) if v) :]]
                while abs(c[-1]) < _LEADING_CUTOFF:
                    c.pop()
                chosen.append(c)
                break
    return chosen


def _strengths_of_roots(coefficients: list, k: int) -> list[float]:
    """The strengths 1 - y^k in (0, 1), in no set order, of the real roots y
    in (0, 1) of each polynomial sum_i c_i y^i of ``coefficients``, whose
    leading coefficient is non-zero, as eigenvalues of their power-basis
    companion matrices in one stacked eigensolve (numpy.polynomial would add
    about 2.8 ms and 0.13 MB of import).  A shorter polynomial's companion is
    padded with -1 on the diagonal, whose roots y > 0 drops."""
    size = max((len(c) for c in coefficients), default=1) - 1
    if size < 1:
        return []
    companions = []
    for c in coefficients:
        n = len(c) - 1
        companion = [[0.0] * size for _ in range(size)]
        for i in range(n):
            companion[i][n - 1] = -c[i] / c[n]
        for i in range(1, n):
            companion[i][i - 1] = 1.0
        for i in range(n, size):
            companion[i][i] = -1.0
        companions.append(companion)
    strengths = []
    for y in np.linalg.eigvals(companions).ravel().tolist():
        if abs(y.imag) <= _IMAG_TOL and y.real > 0.0:
            g = 1.0 - y.real**k
            if 0.0 < g < 1.0:
                strengths.append(g)
    return strengths


def _alive(invariants: list, k: int, gammas: list[float]) -> list[bool]:
    """At each strength of ``gammas``, whether the state is entangled there:
    whether some invariant of either block is negative, decided exactly.

    A float g is a dyadic rational n / d, d = 2^s, so t = 1 - g = u / d
    with u = d - n, and y = t^(1/k).  Each invariant is E(t) + y O(t), E
    and O its even and odd powers of y for k = 2, or E itself and O = 0 for
    k = 1 (:func:`_negative`).  The determinants go first, where a live
    state most often shows.  ``invariants`` and k as
    :func:`_block_invariants` returns them."""
    # E and O highest power first, as Horner's rule takes them, and O as
    # long as E; an invariant with no negative coefficient is >= 0 at y >= 0.
    parts = [(c[::-1], []) if k == 1 else (c[::2][::-1], (c[1::2] + [0] * (len(c) % 2))[::-1])
             for c in invariants[::-1] if min(c) < 0]
    return [any(_negative(even, odd, d - n, d.bit_length() - 1) for even, odd in parts)
            for n, d in map(float.as_integer_ratio, gammas)]


def _negative(even: list[int], odd: list[int], u: int, s: int) -> bool:
    """Whether E(t) + sqrt(t) O(t) < 0 at t = u / 2^s, E and O given by
    ``even`` and ``odd`` as :func:`_alive` makes them.  Horner's rule with
    shifts gives both times 2^(s (m - 1)), m the length of ``even``; where
    their signs differ, E^2 against t O^2 decides."""
    e = o = 0
    for j, v in enumerate(even):
        e = e * u + (v << s * j)
    for j, v in enumerate(odd):
        o = o * u + (v << s * j)
    if not o or (e < 0) == (o < 0):
        return e < 0
    # E^2 - t O^2, times a power of two.
    gap = (e * e << s) - u * o * o
    return gap > 0 if e < 0 else gap < 0


def _narrow(lo: float, hi: float, samples: list, alive: list) -> tuple[float, float]:
    """Bracket the first death with evaluated samples: the first dead sample
    (or ``hi``) and the last live sample before it (or ``lo``).  Samples
    may come in any order."""
    hi = min([g for g, a in zip(samples, alive) if not a], default=hi)
    lo = max([g for g, a in zip(samples, alive) if a and g < hi], default=lo)
    return lo, hi


def _section(
    lo: float, hi: float, alive: Callable[[list], list[bool]], tol: float
) -> tuple[float, float]:
    """Narrow a bracket (lo, hi), alive at lo and dead at hi, until it is no
    wider than ``tol`` or no float lies strictly inside it.  Each step
    evaluates ``SECTION_SAMPLES`` evenly spaced interior strengths in one
    call of ``alive`` and keeps the first dead sample and the live sample
    before it."""
    steps = [i / (SECTION_SAMPLES + 1) for i in range(1, SECTION_SAMPLES + 1)]
    while hi - lo > tol:
        samples = [g for s in steps if lo < (g := lo + (hi - lo) * s) < hi]
        if not samples:
            break  # no float lies strictly inside the bracket
        lo, hi = _narrow(lo, hi, samples, alive(samples))
    return lo, hi


def _death_bracket(
    roots, alive: Callable[[list], list[bool]], tol: float
) -> tuple[float, float] | None:
    """Bracket (lo, hi), alive at lo and dead at hi, about the first death;
    None when the state stays entangled below gamma = 1.

    ``roots`` are the candidate strengths in (0, 1), in any order, to which
    gamma = 0 is added, and ``alive(g)`` tells for each strength of a list
    whether the state there is still entangled; it is at gamma = 0.  Each
    candidate r is sampled at r - ``ESD_BRACKET`` if that is positive, above
    it at r + ``ESD_BRACKET``, halfway to gamma = 1 or at the last float
    below 1, whichever is least, and the stretch up to the next candidate
    (or gamma = 1) at its midpoint, all in one call of ``alive``.  So 2^-31
    is always sampled, and so is a root whose halfway point rounds to 1.
    The first dead sample and the live sample before it (or gamma = 0)
    bracket the death, which :func:`_section` then narrows down to ``tol``.
    """
    h = ESD_BRACKET
    roots = sorted({0.0, *roots})
    samples = []
    for r, after in zip(roots, [*roots[1:], 1.0]):
        above = min(r + h, (r + 1.0) / 2.0, _LAST_BELOW_ONE)
        samples += [r - h, above]
        if above < (mid := (r + after) / 2.0) < 1.0:
            samples.append(mid)
    samples = [g for g in samples if g > 0.0]
    lo, hi = _narrow(0.0, math.inf, samples, alive(samples))
    return None if hi == math.inf else _section(lo, hi, alive, tol)


def esd_gamma(
    kind: ChannelKind,
    mode: Mode,
    params: StateParams,
    tol: float = 1e-9,
) -> float | None:
    """Smallest sweep strength at which the state has died, decided on the
    invariant polynomials of its partial transpose, without evolving it.

    The invariants' exact test of life (:func:`_alive`) on either side of
    gamma = 0 and of each candidate, a root of a block's chosen invariant
    (:func:`_chosen_invariants`), certifies the first death
    (:func:`_death_bracket`).  The bracket is sectioned, one batch of
    evaluations per step, until it is no wider than ``tol`` (a positive
    number) or no float lies strictly between its ends.  Its dead end is
    returned, where the state is separable; None when no strength below
    gamma = 1 is.  A death exactly at gamma = 1 is asymptotic decay.
    """
    check_tol(tol)
    kind, mode = ChannelKind(kind), Mode(mode)
    check_entangled(params)
    invariants, k = _block_invariants(kind, mode, params)
    roots = _strengths_of_roots(_chosen_invariants(invariants), k)
    bracket = _death_bracket(roots, partial(_alive, invariants, k), tol)
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
    numeric = esd_gamma(kind, mode, params, tol)
    return EsdReport(ChannelKind(kind), Mode(mode), params.b, params.c, numeric,
                     analytic_esd_gamma(kind, mode, params),
                     "NoESD" if numeric is None else "ESD")


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


#: The test of each cell label over one cell's reports, the labels of
#: ``REFERENCE_ESD_TABLE`` plus "never".  A cell is observed as the first
#: label whose test holds, and matches its reference where that label's test
#: holds.
CELL_LABELS: dict[str, Callable[[list[EsdReport]], bool]] = {
    "always": lambda reports: all(r.classification == "ESD" for r in reports),
    "never": lambda reports: not any(r.classification == "ESD" for r in reports),
    "b_nonzero": lambda reports: all((r.classification == "ESD") == (r.b != 0.0) for r in reports),
    "exists": lambda reports: any(r.classification == "ESD" for r in reports),
}


def classify_table1(params: StateParams, tol: float = 1e-9) -> list[EsdReport]:
    """ESD reports for all 15 (kind, mode) cells at one parameter point."""
    return [esd_report(kind, mode, params, tol) for kind in ChannelKind for mode in Mode]
