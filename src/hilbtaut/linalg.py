"""Exact linear algebra over the integers and rationals.

Everything downstream that claims a dimension, a determinant or a
proportionality routes through here.  Three tools: fraction-free Bareiss
determinants for dense integer matrices, which also read every leading
principal minor off one pass, a sparse integer elimination for ranks of
the large stacked condition systems, and an exact check that one sparse
vector is a rational multiple of another, which the verification
identities use together with the in-place sparse add _add_into.  No
floating point anywhere.  The sparse elimination keeps its pivots
primitive with a positive leading entry and reduces each row in place,
one gcd-scaled step per pivot.
"""

from __future__ import annotations

from math import gcd


def _square_ints(matrix) -> list[list[int]]:
    m = [list(map(int, row)) for row in matrix]
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    return m


def _bareiss_step(m, i: int, prev: int) -> None:
    """Eliminate below the pivot m[i][i] in place, fraction-free: every
    entry past row and column i becomes a 2 x 2 minor over the previous
    pivot prev, an exact division."""
    p, pivot_row = m[i][i], m[i]
    for row in m[i + 1 :]:
        ri = row[i]
        for c in range(i + 1, len(m)):
            row[c] = (row[c] * p - ri * pivot_row[c]) // prev
        row[i] = 0


def bareiss_det(matrix) -> int:
    """Exact determinant of a square integer matrix, fraction-free.

    Classic two-step Bareiss elimination: every intermediate division is
    exact, so all arithmetic stays in the integers.
    """
    m = _square_ints(matrix)
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(size - 1):
        if m[i][i] == 0:
            for r in range(i + 1, size):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        _bareiss_step(m, i, prev)
        prev = m[i][i]
    return sign * m[size - 1][size - 1]


def leading_principal_minors(matrix) -> list[int]:
    """Determinants of the upper-left t x t blocks, t = 1..size.

    One Bareiss pass without row exchanges reads them all: before step
    t the pivot is the t-th leading minor.  From the first zero pivot
    on, the pass cannot go on, and each remaining minor is a
    determinant of its own.
    """
    m = _square_ints(matrix)
    minors = []
    prev = 1
    for t in range(len(m)):
        if m[t][t] == 0:
            return minors + [
                bareiss_det([row[:s] for row in matrix[:s]])
                for s in range(t + 1, len(m) + 1)
            ]
        minors.append(m[t][t])
        _bareiss_step(m, t, prev)
        prev = m[t][t]
    return minors


def _divide_content(row: dict[int, int], sign: int = 1) -> None:
    """Divide row, nonempty, in place by its content times sign (1 or -1)."""
    g = gcd(*row.values()) * sign
    if g != 1:
        for col, v in row.items():
            row[col] = v // g


def sparse_int_rank(rows, pivots: dict | None = None) -> int:
    """Rank that rows, dicts {column: value}, add to a pivot dict.

    Incremental elimination keyed by pivot column, exact.  Each row is
    copied once without its zeros, so the caller's dicts never change,
    and reduced in place.  Against the pivot p at its leading column c,
    with g = gcd(p[c], row[c]), the row is scaled by p[c] // g when that
    is not 1 (and then divided by its content), and row[c] // g times p
    is subtracted entry by entry, deleting entries that cancel.  A row
    left with a free leading column is stored there as a new pivot,
    divided by its content and signed so its leading entry is positive.
    So whenever p[c] divides row[c] a step touches only the entries of p.
    Rows fed in chunks into one dict are eliminated once each, and the
    increments sum to the rank of all of them; with no dict given, a
    fresh one is used and the result is the plain rank of rows.
    """
    if pivots is None:
        pivots = {}
    before = len(pivots)
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                _divide_content(row, -1 if row[c] < 0 else 1)
                pivots[c] = row
                break
            pc, rc = p[c], row[c]
            g = gcd(pc, rc)
            a, b = pc // g, rc // g
            if a != 1:
                for col, v in row.items():
                    row[col] = v * a
            for col, v in p.items():
                w = row.get(col, 0) - b * v
                if w:
                    row[col] = w
                else:
                    del row[col]
            if a != 1 and row:
                _divide_content(row)
    return len(pivots) - before


def int_rank(matrix) -> int:
    """Rank of a dense integer matrix."""
    return sparse_int_rank(
        {c: v for c, v in enumerate(row) if v} for row in matrix
    )


def _add_into(acc: dict, d: dict, c=1) -> None:
    """acc += c * d in place, for sparse dicts: an entry that cancels
    is removed, so acc never holds a zero value."""
    for w, v in d.items():
        nv = acc.get(w, 0) + c * v
        if nv:
            acc[w] = nv
        else:
            acc.pop(w, None)


def scalar_multiple(a: dict, b: dict):
    """The rational c with a == c * b, for sparse dicts without zero values.

    Raises ValueError when b is empty, when a and b have different
    supports, or when their entries are not in one common ratio.  The
    ratios are compared cross-multiplied, a[w] * q == p * b[w] against
    the first entries p of a and q of b, so int dicts stay in integers
    and only the returned c is a Fraction.
    """
    # Imported only here: fractions, with decimal and numbers, adds to
    # every start-up otherwise.
    from fractions import Fraction

    if not b:
        raise ValueError("nothing to compare against")
    if a.keys() != b.keys():
        raise ValueError("supports differ")
    w = next(iter(b))
    p, q = a[w], b[w]
    for w, v in b.items():
        if a[w] * q != p * v:
            raise ValueError(f"ratios {Fraction(p) / q} and {Fraction(a[w]) / v} differ")
    return Fraction(p) / q
