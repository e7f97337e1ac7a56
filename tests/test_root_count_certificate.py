"""Every invariant that the ESD search counts on changes sign at most once.

``negativity._root_count`` counts the roots in 0 < y < 1 of an invariant
p(y) = sum c_j y^j, cut at its table degree, as the sign changes of the
reversed coefficients shifted by one, q = ``_shifted(c[::-1])``.  The test
below proves, from the invariant tables, that q has at most one sign change
at every point of the closed entangled triangle a >= 0, b >= 0, c >= 3b, so
that the count is 0 or 1 wherever ``esd_gamma`` runs: for each cell, block
and e_i, 90 sequences in all.

In w = (2a, 3b, c) each q_l is a form of degree i in w, the degree of e_i,
and the triangle is the cone over the integer corners (1, 0, 0), (0, 0, 1)
and (0, 1, 1).  On a piece of that cone with corners u_1, u_2, u_3 a form F
of degree n is sum_kappa n! / kappa! B_kappa t^kappa over the barycentric
t >= 0, with B_kappa its polar form at kappa_1 copies of u_1, kappa_2 of
u_2 and kappa_3 of u_3.  n! B_kappa is a sum of F at sums of corners, by
inclusion and exclusion, so an integer.  Where every B_kappa of q_l is
>= 0, q_l is >= 0 on the whole piece, and likewise <= 0.  A piece
certifies when no q_l that can be positive comes before one that can be
negative, or no q_l that can be negative comes before one that can be
positive; else it is split at the sum of two corners, which needs no
division.

Every point that ``esd_gamma`` accepts has b >= 0 and c > 3b, and
``states.family_weights`` takes a negative a as 0, so its integer weights
lie in the cone.  The search trims the low zero coefficients of an
invariant at a point, which leaves q as it is but for trailing zeros, so
it counts what the certificate covers.
"""

from __future__ import annotations

from itertools import product
from math import comb, prod

from qqdyn import negativity
from qqdyn.channels import ChannelKind
from qqdyn.evolution import Mode

#: The cone over the closed entangled triangle in w = (2a, 3b, c).
CORNERS = ((1, 0, 0), (0, 0, 1), (0, 1, 1))
#: A piece not certified after this many splits refuses the table.
DEPTH = 20
#: The multi-indices tau of each sum of corners that a polar form of degree
#: at most 3 reads.
SUMS = [tau for tau in product(range(4), repeat=3) if 0 < sum(tau) <= 3]


def _polar_signs(values: dict, n: int, row: int) -> tuple[list[bool], list[bool]]:
    """Whether each q_l of ``row``, a form of degree n, can be positive and
    whether it can be negative on a piece: the signs of its polar values
    n! B_kappa, from ``values``, the shifted rows at each sum of corners."""
    size = len(values[SUMS[0]][row])
    positive, negative = [False] * size, [False] * size
    for kappa in product(range(n + 1), repeat=3):
        if sum(kappa) != n:
            continue
        polar = [0] * size
        for tau in product(*(range(m + 1) for m in kappa)):
            if any(tau):
                weight = (-1) ** (n - sum(tau)) * prod(map(comb, kappa, tau))
                polar = [p + weight * v for p, v in zip(polar, values[tau][row])]
        positive = [s or v > 0 for s, v in zip(positive, polar)]
        negative = [s or v < 0 for s, v in zip(negative, polar)]
    return positive, negative


def _before(first: list[bool], then: list[bool]) -> bool:
    """Whether some l with ``first[l]`` comes before some l' with ``then[l']``."""
    return any(f and any(then[l + 1 :]) for l, f in enumerate(first))


def certificate(table: tuple) -> tuple[int, tuple | None]:
    """Certify one cell's table (as ``negativity._INVARIANT_TABLES`` holds
    it) on the cone over ``CORNERS``: the count of pieces it took, and None;
    or, where it is refused, the count so far and the weights of a point
    where some row's q has two sign changes or more, or of the corners of a
    piece still not certified after ``DEPTH`` splits."""
    pieces = 0
    stack = [(CORNERS, 0, set(range(6)))]
    while stack:
        corners, depth, rows = stack.pop()
        pieces += 1
        values = {}
        for tau in SUMS:
            w = [sum(t * u[j] for t, u in zip(tau, corners)) for j in range(3)]
            invariants = negativity._contracted(table, w)[0]
            if any(negativity._root_count(invariants[row]) > 1 for row in rows):
                return pieces, tuple(w)
            values[tau] = [negativity._shifted(c[::-1]) for c in invariants]
        open_rows = set()
        for row in rows:
            positive, negative = _polar_signs(values, row // 2 + 1, row)
            if _before(positive, negative) and _before(negative, positive):
                open_rows.add(row)
        if not open_rows:
            continue
        if depth == DEPTH:
            return pieces, corners
        u1, u2, u3 = corners
        middle = tuple(a + b for a, b in zip(u1, u2))
        stack += [((u1, u3, middle), depth + 1, open_rows), ((u3, u2, middle), depth + 1, open_rows)]
    return pieces, None


def test_every_invariant_counts_at_most_one_root_on_the_entangled_triangle():
    sequences = 0
    for kind in ChannelKind:
        for mode in Mode:
            (_, slots, _), bounds, _ = table = negativity._INVARIANT_TABLES[kind, mode]
            # Six rows, each with a non-zero entry.
            sequences += sum(any(lo <= s < hi for s in slots) for lo, hi in zip(bounds, bounds[1:]))
            pieces, refused = certificate(table)
            assert refused is None, (kind, mode, pieces, refused)
    assert sequences == 90


def test_the_certificate_refuses_a_table_with_two_sign_changes():
    # Multi-local bit flip with the sign of one entry flipped: the
    # coefficient of y in block 0's e_3 on the monomial 2a 3b c.  After 15
    # pieces the certificate meets a point inside the triangle where that
    # row's q changes sign twice, and Descartes counts two roots there.
    (monomials, slots, values), bounds, k = table = negativity._INVARIANT_TABLES[
        ChannelKind.BIT_FLIP, Mode.MULTI_LOCAL]
    row, monomial = 4, negativity._monomials([2, 3, 5]).index(2 * 3 * 5)
    entry = next(i for i, (m, s) in enumerate(zip(monomials, slots))
                 if m == monomial and s == bounds[row] + 1)
    flipped = ([monomials, slots, [-v if i == entry else v for i, v in enumerate(values)]],
               bounds, k)
    pieces, refused = certificate(flipped)
    assert (pieces, refused) == (15, (1, 11, 14))
    assert negativity._root_count(negativity._contracted(flipped, list(refused))[0][row]) == 2
    assert negativity._root_count(negativity._contracted(table, list(refused))[0][row]) <= 1
