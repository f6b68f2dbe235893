"""Monomials and diagonal-ideal jet conditions on n points in the plane.

The coordinate ring of n plane points is Q[x_1..x_n, y_1..y_n].
PolyRing lists its monomials up to a chosen total degree, exponent
vectors as tuples of length 2n, x-block first.  The module does no
polynomial arithmetic: where the package needs a polynomial, it is a
plain {exponent: int} dict.

The point of the module is ideal-power membership for the pairwise
diagonal ideals I_A = (x_{a0}-x_{a1}, y_{a0}-y_{a1}).  For a pair A the
unimodular change of coordinates

    u = x_{a0}-x_{a1},  s = x_{a0}+x_{a1}   (same with v, t for y)

turns I_A^m into the monomial ideal (u, v)^m, so membership in degree
<= D is a finite set of linear conditions: the coefficients of all
substituted monomials of u-v-degree below m must vanish.  No Groebner
bases, and every condition is homogeneous in total degree, which lets
all dimension counts run degree by degree.  The substitution acts on the
x and y exponents of the pair separately, so each condition is read off
its key as the product of an x and a y binomial weight table, with no
monomial expanded.  The conditions carry integer weights: the
substitution divides each of them by one power of two, fixed by the
condition, and scaling it away leaves the kernel as it is.  When the
last point is pinned at the origin, the ideals of pairs ending there are
already monomial, and each of their conditions is one coefficient.
_jet_functionals builds the conditions of a list of keys of one degree
whose u-v-degree lies in a given range, possibly stepped, for either
kind of pair;
jet_conditions maps it over every key, with the range of all u-v-degrees
below the order.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .combinat import _compositions


class PolyRing:
    """Polynomials in 2n variables, truncated at a total degree."""

    def __init__(self, n: int, max_deg: int):
        if n < 1:
            raise ValueError("need at least one point")
        if max_deg < 0:
            raise ValueError("truncation degree must be nonnegative")
        self.n = n
        self.max_deg = max_deg
        self.nvars = 2 * n

    def monomials(self, degree: int) -> tuple:
        """All exponent vectors of one exact total degree, in reverse
        lexicographic order (the composition order of combinat)."""
        if not 0 <= degree <= self.max_deg:
            raise ValueError(f"degree {degree} outside truncation")
        return _compositions(self.nvars, degree)

    def monomials_up_to(self, degree: int | None = None):
        if degree is None:
            degree = self.max_deg
        for d in range(degree + 1):
            yield from self.monomials(d)

    def __repr__(self):
        return f"PolyRing(n={self.n}, max_deg={self.max_deg})"


@lru_cache(maxsize=None)
def _jet_weights(P: int, r: int) -> tuple:
    """The weight table K(P, r): the pairs (p0, K) for p0 = 0..P with K,
    the coefficient of z^r in (1+z)^p0 (1-z)^(P-p0), nonzero.

    Up to the factor 2^P, K is the coefficient of u^r s^(P-r) in
    x_{a0}^p0 x_{a1}^(P-p0) after x_{a0} = (s+u)/2, x_{a1} = (s-u)/2.
    """
    out = []
    for p0 in range(P + 1):
        k = sum(
            comb(p0, i) * comb(P - p0, r - i) * (-1) ** (r - i)
            for i in range(min(p0, r) + 1)
        )
        if k:
            out.append((p0, k))
    return tuple(out)


def jet_conditions(A, order: int, ring: PolyRing) -> list:
    """Linear functionals whose common kernel is I_A^order, truncated.

    Each functional is a dict pairing exponent vectors with integer
    weights; a polynomial lies in the ideal power exactly when every
    functional evaluates to zero on its coefficients.  Functionals are
    indexed by substituted-basis monomials of u-v-degree below the
    requested order, come ordered by total degree and then by key, and
    are homogeneous in total degree: _jet_functionals over every key of
    the ring, degree by degree.
    """
    a0, a1 = sorted(A)
    if not 1 <= a0 < a1 <= ring.n:
        raise ValueError("pair must satisfy 1 <= a0 < a1 <= n")
    if order < 1:
        raise ValueError("order must be at least 1")
    out = []
    for d in range(ring.max_deg + 1):
        # Monomials come in reverse lexicographic order, keys go sorted.
        out += _jet_functionals((a0, a1), range(order), ring, reversed(ring.monomials(d)))
    return out


def _jet_functionals(A, degrees: range, ring: PolyRing, keys) -> list:
    """The jet functional of each key, in the order given, whose degree
    r + s at the first point of A lies in degrees.

    keys are exponent vectors of one total degree, and A is a pair
    a0 < a1 of points, a1 at most ring.n + 1.  A key e stands for
    u^r s^(P-r) v^s t^(Q-s) times its other variables, where r and
    P - r are the exponents of x_{a0} and x_{a1} in e, and s and Q - s
    those of y_{a0} and y_{a1}, so r + s is its u-v-degree.  Its
    functional is read off it as the product of the x and y weight
    tables: the monomial with the key's
    other exponents and pair exponents (p0, P-p0), (q0, Q-q0) gets the
    weight of p0 in _jet_weights(P, r) times that of q0 in
    _jet_weights(Q, s), and zero weights are left out.  The substitution
    puts one denominator under every weight of a functional, 2 to the
    total exponent of its key monomial on the two points of the pair;
    the weights here are the rational ones times that constant, which
    leaves the kernel unchanged.

    A pair ending at ring.n + 1 ends at a point pinned at the origin,
    past the ring's last: its ideal is the monomial ideal (x_a0, y_a0),
    so the functional of a key is its own coefficient, {e: 1}.

    I_A^m is cut out by the keys of u-v-degree below m, degrees =
    range(m), and no functional, pinned or not, depends on m: the order
    only selects keys.  So a stacked kernel block of order o asks for
    u-v-degree o - 1 alone, and a graded piece at a pair of equal parts
    for the even ones below m, range(0, m, 2), as its odd ones fold to
    zero (see tautops.graded_dims).  Its difference satisfies
    D^o_mu = D^(o-1)_(mu+e_a1) - D^(o-1)_(mu+e_a0), and it pairs with the
    functional of a key of u-v-degree below o - 1 as that difference of
    two rows of the block below does (see tautops._nullities).
    """
    a0, a1 = A
    n = ring.n
    ix0, iy0 = a0 - 1, n + a0 - 1
    keys = [key for key in keys if key[ix0] + key[iy0] in degrees]
    if a1 > n:
        return [{key: 1} for key in keys]
    ix1, iy1 = a1 - 1, n + a1 - 1
    out = []
    for key in keys:
        r, s = key[ix0], key[iy0]
        P, Q = r + key[ix1], s + key[iy1]
        wy = _jet_weights(Q, s)
        old = list(key)
        row = {}
        for p0, cx in _jet_weights(P, r):
            old[ix0], old[ix1] = p0, P - p0
            for q0, cy in wy:
                old[iy0], old[iy1] = q0, Q - q0
                row[tuple(old)] = cx * cy
        out.append(row)
    return out
