"""Reference implementations that the package no longer needs.

Each of these once lived in the package and is now reached only as an
oracle: a plain, slow way to the same answer that a test compares the
package with.  nullspace, a Gauss-Jordan pass over Fraction, is the
rational reference for the package's integer elimination and the
solver under intersect_ideal_powers.  They are kept here, with their
own tests, so that no oracle shares code with the path it checks.
"""

import itertools
from fractions import Fraction
from math import lcm

from hilbtaut.polyjet import PolyRing, TruncPoly, jet_conditions


def nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace of a rational matrix.

    Rows are dicts {column: Fraction}.  Gauss-Jordan over Fraction; the
    returned basis vectors have a 1 in their free column and are produced
    in increasing free-column order, so the result is deterministic.
    """
    echelon: list[dict[int, Fraction]] = []
    pivot_cols: list[int] = []
    for raw in rows:
        row = {c: Fraction(v) for c, v in raw.items() if v}
        for pc, erow in zip(pivot_cols, echelon):
            if pc in row:
                factor = row[pc]
                for col, v in erow.items():
                    row[col] = row.get(col, Fraction(0)) - factor * v
                row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        c = min(row)
        inv = 1 / row[c]
        row = {col: v * inv for col, v in row.items()}
        for pc, erow in zip(pivot_cols, echelon):
            if c in erow:
                factor = erow[c]
                for col, v in row.items():
                    erow[col] = erow.get(col, Fraction(0)) - factor * v
        echelon = [{c2: v for c2, v in e.items() if v} for e in echelon]
        pivot_cols.append(c)
        echelon.append(row)
    order = sorted(range(len(pivot_cols)), key=lambda i: pivot_cols[i])
    pivot_cols = [pivot_cols[i] for i in order]
    echelon = [echelon[i] for i in order]
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for pc, erow in zip(pivot_cols, echelon):
            if free in erow:
                vec[pc] = -erow[free]
        basis.append(tuple(vec))
    return basis


def fraction_rows_to_int(rows):
    """Clear denominators row by row: dicts of Fractions -> dicts of ints."""
    out = []
    for row in rows:
        denom = 1
        for v in row.values():
            denom = lcm(denom, Fraction(v).denominator)
        out.append({c: int(Fraction(v) * denom) for c, v in row.items() if v})
    return out


def intersect_ideal_powers(pairs, ring: PolyRing) -> list:
    """Exact basis of the intersection of diagonal-ideal powers.

    pairs is a list of (A, exponent); exponent 0 contributes nothing.
    The basis comes out homogeneous, ordered by degree, each vector from
    the deterministic nullspace of the stacked jet conditions in that
    degree.
    """
    conditions = []
    for A, e in pairs:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        if e == 0:
            continue
        conditions.extend(jet_conditions(A, e, ring))
    by_degree: dict = {}
    for row in conditions:
        d = sum(next(iter(row)))
        by_degree.setdefault(d, []).append(row)
    basis = []
    for d in range(ring.max_deg + 1):
        monos = ring.monomials(d)
        index = {e: i for i, e in enumerate(monos)}
        rows = [
            {index[e]: c for e, c in row.items()}
            for row in by_degree.get(d, [])
        ]
        for vec in nullspace(rows, len(monos)):
            basis.append(
                TruncPoly(ring, {monos[i]: c for i, c in enumerate(vec) if c})
            )
    return basis


def composition_stabilizer(c) -> list[tuple[int, ...]]:
    """All sigma in S_n with c o sigma = c, as explicit permutations.

    Read off by filtering the whole of S_n, so the list comes out in
    lexicographic order.
    """
    c = tuple(c)
    return [
        p for p in itertools.permutations(range(1, len(c) + 1))
        if tuple(c[v - 1] for v in p) == c
    ]
