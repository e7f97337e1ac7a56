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
weights, from the evolution's integer tables (integers over 6) by the
polynomial algebra of ``linalg._invariant_forms``, exactly, as integers:
e_i times (12 m_qubit m_qutrit)^i, a positive scale that leaves its signs,
the only thing the search reads, as they are.  Every float weight is a
dyadic rational, so all three times one power of two are integers, and a
search contracts its table with its point's monomials in exact integer
arithmetic.  A coefficient is zero only when it is exactly zero: that
picks each block's highest invariant that does not vanish identically,
cut at its table degree, its highest power of y with a non-zero table
entry, and with its low zeros trimmed, so that a multiple root at
gamma = 1 (y = 0) does not split into false roots below 1.  Descartes'
rule of signs, after one integer Taylor shift, counts the picked
invariants' roots in (0, 1): 0 means none and 1 exactly one simple root.
At every point of the closed entangled triangle every invariant counts 0
or 1, a theorem that ``tests/test_root_count_certificate.py`` proves from
the tables, with signs of polar forms on sub-triangles.

A real symmetric 3x3 block is positive semidefinite exactly when its e_1,
e_2 and e_3 are all >= 0.  So the state is alive where some invariant of
either block is negative and dead where all are >= 0, and at a float
strength, a dyadic rational too, :func:`_alive` decides this exactly, in
integers.  Each counted root is bracketed by bisection over float
strengths, on the exact sign of its invariant.  A 2x3 partial transpose
can have two negative eigenvalues at once (Rana, PRA 87, 054301, 2013),
and the state dies or revives only at a counted root, so the test of life
at the bracket ends certifies the first death.  The search evolves no
state and has no fixed threshold.  A curve that vanishes only at
gamma = 1 is asymptotic decay, not ESD.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import TYPE_CHECKING

import numpy as np

from .channels import ChannelKind, check_strengths
from .evolution import ChannelScenario, Mode
from .evolution import _sweep_basis
from .linalg import (_PT_GATHER, BLOCK_SHAPE, TOTAL_DIM, _invariant_forms,
                     partial_transpose_blocks, partial_transpose_qutrit)
from .states import DensityMatrix, StateParams, family_weights

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: Eigenvalues above this cutoff are eigensolver dust, not negativity.  So a
#: numeric negativity is either exactly 0.0 or above 2e-12, and 0.0 is the
#: numeric test of death (of ``validate``'s numeric ESD certificate).
NEGATIVE_EIG_CUTOFF = -1e-12


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

    ``rho`` may be a :class:`DensityMatrix`, whose type vouches for its
    shape and finiteness, so that neither is checked again; any validated
    6x6 state or a (..., 6, 6) stack of them, as an array-like, whose
    partial transposes take one batched complex eigensolve; or a
    (..., 2, 3, 3) block stack as :func:`evolve_grid` returns it, whose
    partial transposes are block stacks too
    (``linalg.partial_transpose_blocks``) and take one batched real 3x3
    eigensolve, or none where every block is diagonal.  For a stack each
    field of the result is an array over the leading axes.
    """
    if isinstance(rho, DensityMatrix):
        # A finite complex 6x6 by construction: check_density passed it, or
        # the evolution mixed it from the tables the import certified.  So
        # its partial transpose is the gather of partial_transpose_qutrit,
        # with none of that function's checks.
        pt = rho.matrix.take(_PT_GATHER)
    else:
        m = np.asarray(rho)
        pt = partial_transpose_blocks(m) if m.shape[-3:] == BLOCK_SHAPE else partial_transpose_qutrit(m)
    if pt.shape[-3:] == BLOCK_SHAPE:
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
    the bit.  A strength outside [0, 1] is a ValueError, as for
    :class:`ChannelScenario`; that the strengths suit the mode, which it
    checks for one pair, is left to the caller."""
    ga = np.asarray(gamma_qubit, dtype=float)
    gb = np.asarray(gamma_qutrit, dtype=float)
    check_strengths(ga, gb)
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

    # The bit and bit-phase flips.
    if mode is Mode.QUBIT_ONLY:
        return (c - 3 * b - ga * (c - b)) / 2.0
    if mode is Mode.QUTRIT_ONLY:
        if corrected:
            return (3 * c - 9 * b - (1 - 8 * b + 2 * c) * gb) / 6.0
        return (3 * b - 9 * c - (1 - 8 * b + 2 * c) * gb) / 6.0
    raise NoClosedFormError(
        f"no closed-form negativity for multi-local {kind.value}; use numerics"
    )


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
    else:  # depolarizing
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


#: The default ESD tolerance, the widest bracket :func:`esd_gamma` returns a
#: death in; every function and command that takes a ``tol`` defaults to it.
DEFAULT_TOL = 1e-9


def check_tol(tol: float) -> None:
    """Reject an ESD bracket tolerance that is not a positive number."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")


def check_entangled(params: StateParams) -> None:
    """Reject a point outside the entangled regime, where no ESD is defined."""
    if not params.is_entangled:
        raise ValueError("ESD detection requires an entangled initial state")


def _monomials(x: list) -> list:
    """The 3 + 6 + 10 distinct monomials of degree 1, 2 and 3 in the three
    items of ``x``."""
    return [math.prod(m) for d in (1, 2, 3) for m in combinations_with_replacement(x, d)]


def _invariant_tables() -> dict[tuple[ChannelKind, Mode], tuple[list, list[int], int]]:
    """Per cell, e_1, e_2 and e_3 of the partial transpose's blocks along its
    sweep as one integer table over the monomials of degree 1, 2 and 3 of
    the family weights (2a, 3b, c); with the bounds of its six rows, and k,
    1 - gamma = y^k.  e_i comes times (12 m_qubit m_qutrit)^i, a positive
    scale of its own, which the signs that the search reads do not see.

    The partial transposes of twice the integer sweep basis
    (``evolution._sweep_basis``) are integers, at the scale 12 m_qubit
    m_qutrit, so :func:`linalg._invariant_forms` takes them in float64
    exactly: every form entry is an integer, checked below 2^53, that is
    cast to int64 once the forms are summed.  The forms expand over the
    3 + 9 + 27 ordered monomials, which are summed into the 19 distinct
    ones of :func:`_monomials`, told apart by their values at the primes 2,
    3 and 5.  Row 2 i + block holds the coefficients of 1, y, ..., y^D of
    e_(i + 1) of that block, D its highest power of y with a non-zero
    entry, its table degree; the rows lie end to end, row r at slots
    bounds[r] up to bounds[r + 1].  A table is kept as its non-zero
    entries, in three lists of ints: the monomial, the slot of the
    coefficient that it adds to, and the integer.  The cells of one degree
    in y go through one call."""
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
        forms = _invariant_forms(partial_transpose_blocks(2.0 * pt))
        size = len(forms[-1])
        table = np.zeros((len(distinct), len(cells), 3, 2, size))
        for i, (e, rows) in enumerate(zip(forms, merge)):
            # A row per ordered monomial, then cells, blocks and powers of y.
            e = np.moveaxis(e, 0, -1).reshape(len(rows), len(cells), 2, -1)
            np.add.at(table[:, :, i, :, : e.shape[-1]], rows, e)
        if not np.abs(table).max() < 2.0**53:
            raise RuntimeError("an invariant table entry is too large to be exact in float64")
        # Cells, then rows, monomials and powers of y.
        table = table.astype(np.int64).transpose(1, 2, 3, 0, 4)
        table = table.reshape(len(cells), 6, len(distinct), -1)
        for cell, t in zip(cells, table):
            widths = [1 + np.flatnonzero(row.any(axis=0)).max() for row in t]
            t = np.concatenate([row[:, :w] for row, w in zip(t, widths)], axis=1)
            m, slot, v = np.stack([*t.nonzero(), t[t != 0]]).tolist()
            v = list(map(shared.setdefault, v, v))
            tables[cell] = ([m, slot, v], np.cumsum([0, *widths]).tolist(), bases[cell][1])
    return tables


#: The invariant tables of every cell, built once at import.
_INVARIANT_TABLES = _invariant_tables()


def _block_invariants(kind: ChannelKind, mode: Mode, params: StateParams) -> tuple[list, int]:
    """e_1, e_2 and e_3 of the eigenvalues of both partial-transpose blocks
    along one cell's sweep, exactly, as integers: six lists of the
    coefficients of 1, y, ..., y^D, D the table degree of each, e_(i + 1)
    of block b at 2 i + b (the S-even block is 0); and k, 1 - gamma = y^k.

    The float weights (2a, 3b, c) are integers w over their common
    denominator d (:func:`_over_common_denominator`); e_i comes times
    (12 m_qubit m_qutrit d)^i (:func:`_contracted`)."""
    w = _over_common_denominator(family_weights(params).tolist())[0]
    return _contracted(_INVARIANT_TABLES[kind, mode], w)


def _contracted(table: tuple, w: list[int]) -> tuple[list, int]:
    """The six rows of a cell's table (:func:`_invariant_tables`), each
    contracted with the monomials of its degree of the integer weights w;
    and k.  Row 2 i + b is e_(i + 1) of block b at the weights w times
    (12 m_qubit m_qutrit)^(i + 1)."""
    entries, bounds, k = table
    monomials = _monomials(w)
    flat = [0] * bounds[-1]
    for m, slot, v in zip(*entries):
        flat[slot] += v * monomials[m]
    return [flat[i:j] for i, j in zip(bounds, bounds[1:])], k


def _chosen_invariants(invariants: list) -> list[list[int]]:
    """Per block, the coefficients of its highest invariant e_i that does not
    vanish identically, cut at its table degree, with its low zero
    coefficients trimmed off; ``invariants`` as :func:`_block_invariants`
    returns them.  A block's count of negative eigenvalues changes only at
    a root of this invariant: where e_3 vanishes identically so does an
    eigenvalue, and e_2 is the product of the other two."""
    chosen = []
    for block in (0, 1):
        c = next((c for c in invariants[4 + block :: -2] if any(c)), [])
        if nonzero := [j for j, v in enumerate(c) if v]:
            chosen.append(c[nonzero[0] :])
    return chosen


def _shifted(c: list[int]) -> list[int]:
    """The coefficients of p(x + 1), given those of p(x) = sum c_i x^i: the
    Taylor shift, by repeated synthetic division."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _root_count(c: list[int]) -> int:
    """Descartes' rule of signs for the roots of sum c_i y^i in 0 < y < 1.
    With y = 1 / (1 + x), (1 + x)^n times the polynomial is the reversed
    polynomial shifted by 1, whose positive roots x are those y.  The count
    of sign changes of its coefficients exceeds the count of those roots,
    with multiplicity, by an even number: 0 means no root there and 1
    exactly one simple root."""
    signs = [v > 0 for v in _shifted(c[::-1]) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _alive(invariants: list, k: int, gammas: list[float]) -> list[bool]:
    """At each strength of ``gammas``, whether the state is entangled there:
    whether some invariant of either block is negative, decided exactly
    (:func:`_negative`).  The determinants go first, where a live state
    most often shows.  ``invariants`` and k as :func:`_block_invariants`
    returns them."""
    parts = _parts(invariants[::-1], k)
    return [any(_negative(even, odd, g) for even, odd in parts) for g in gammas]


def _parts(invariants: list, k: int) -> list[tuple[list[int], list[int]]]:
    """Each invariant that can be negative as E(t) + y O(t), with y =
    t^(1/k): E and O its even and odd powers of y for k = 2, or E itself
    and O = 0 for k = 1.  E and O come highest power first, as Horner's
    rule takes them, and O as long as E; an invariant with no negative
    coefficient is >= 0 at y >= 0 and is left out."""
    return [(c[::-1], []) if k == 1 else (c[::2][::-1], (c[1::2] + [0] * (len(c) % 2))[::-1])
            for c in invariants if min(c) < 0]


def _negative(even: list[int], odd: list[int], g: float) -> bool:
    """Whether E(t) + sqrt(t) O(t) < 0 at t = 1 - g, E and O given by
    ``even`` and ``odd`` as :func:`_parts` makes them.  A float g is a
    dyadic rational n / 2^s, so t = u / 2^s with u = 2^s - n.  Horner's
    rule with shifts gives E and O times 2^(s (m - 1)), m the length of
    ``even``; where their signs differ, E^2 against t O^2 decides."""
    n, d = g.as_integer_ratio()
    u, s = d - n, d.bit_length() - 1
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


def _bisected(before: Callable[[float], bool], tol: float) -> tuple[float, float]:
    """Bisect (0, 1] over float strengths on ``before``, which holds below
    one strength and fails from it on, until the bracket is no wider than
    ``tol`` and ends below 1, or no float lies strictly inside it."""
    lo, hi = 0.0, 1.0
    while (hi - lo > tol or hi == 1.0) and lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (mid, hi) if before(mid) else (lo, mid)
    return lo, hi


def _root_bracket(c: list[int], k: int, tol: float) -> tuple[float, float] | None:
    """A bracket (lo, hi] of float strengths, as :func:`_bisected` narrows
    it, about the strength of the one root in (0, 1) of p(y) = sum c_i y^i,
    c_0 != 0; None where p has no root there.  Below that strength p has
    the sign opposite to c_0, its sign at y = 0 (gamma = 1), which
    :func:`_negative` decides exactly.

    Descartes' count (:func:`_root_count`) of every invariant, cut at its
    table degree, is 0 or 1 at every point of the closed entangled
    triangle: ``tests/test_root_count_certificate.py`` proves it from the
    tables.  So a count above 1 means the tables changed; it raises."""
    count = _root_count(c)
    if count > 1:
        raise RuntimeError(f"an invariant counts {count} roots in 0 < y < 1; the tables allow 1")
    if not count:
        return None
    ((even, odd),) = _parts([c if c[0] > 0 else [-v for v in c]], k)
    lo, hi = _bisected(lambda g: _negative(even, odd, g), tol)
    return lo, min(hi, _LAST_BELOW_ONE)


def _death_bracket(invariants: list, k: int, tol: float) -> tuple[float, float] | None:
    """(lo, hi), alive at lo and dead at hi, no wider than ``tol`` or down
    to float resolution, about the first death; None when the state is
    entangled at every end of the brackets of the roots.  ``invariants``
    and k as :func:`_block_invariants` returns them.

    The state can die or revive only at a root of a block's chosen
    invariant (:func:`_chosen_invariants`), which has at most one, in its
    bracket (:func:`_root_bracket`).  The test of life at every bracket
    end, in one call of :func:`_alive`, then finds the first dead end; the
    end before it, or gamma = 0, where the state is entangled, is alive.  A
    death lies between those two ends and no end of any bracket does, so
    both lie within the bracket of the root where the state dies."""
    brackets = [b for c in _chosen_invariants(invariants) if (b := _root_bracket(c, k, tol))]
    samples = sorted({g for bracket in brackets for g in bracket if g > 0.0})
    alive = _alive(invariants, k, samples)
    if all(alive):
        return None
    i = alive.index(False)
    return [0.0, *samples][i], samples[i]


def esd_gamma(
    kind: ChannelKind,
    mode: Mode,
    params: StateParams,
    tol: float = DEFAULT_TOL,
) -> float | None:
    """Smallest sweep strength at which the state has died, decided on the
    invariant polynomials of its partial transpose, without evolving it.

    Descartes' rule of signs counts the roots of each block's chosen
    invariant, 0 or 1 (:func:`_root_bracket`), a counted root is bracketed
    over float strengths, and the exact test of life at the bracket ends
    finds the first death (:func:`_death_bracket`), in a bracket no wider
    than ``tol`` (a positive number) or with no float strictly between its
    ends.  Its dead end is returned, where the state is separable; None
    when no strength below gamma = 1 is.  A death exactly at gamma = 1 is
    asymptotic decay.
    """
    check_tol(tol)
    kind, mode = ChannelKind(kind), Mode(mode)
    check_entangled(params)
    bracket = _death_bracket(*_block_invariants(kind, mode, params), tol)
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
    kind: ChannelKind, mode: Mode, params: StateParams, tol: float = DEFAULT_TOL
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


def classify_table1(params: StateParams, tol: float = DEFAULT_TOL) -> list[EsdReport]:
    """ESD reports for all 15 (kind, mode) cells at one parameter point."""
    return [esd_report(kind, mode, params, tol) for kind in ChannelKind for mode in Mode]
