"""Reference implementations that the package no longer needs.

Each of these once lived in the package and is now reached only as an
oracle: a plain, slow way to the same answer that a test compares the
package with.  They are kept here, with their own tests, so that no
oracle shares code with the path it checks.
"""

import itertools
from fractions import Fraction
from math import lcm

from hilbtaut.linalg import nullspace
from hilbtaut.polyjet import PolyRing, TruncPoly, jet_conditions


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
