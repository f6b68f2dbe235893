"""Diagonal-ideal membership against a product-span oracle.

The oracle builds ideal powers the pedestrian way: all products of the
two generators to total order m, times every monomial that fits under
the truncation, then an exact rank per degree.  The module's jet
conditions must cut out spaces of exactly matching dimension.
"""

from collections import defaultdict
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut.linalg import sparse_int_rank
from hilbtaut.polyjet import PolyRing, _jet_weights, jet_conditions
from references import (
    DiagonalIdeal,
    TruncPoly,
    degree,
    evaluate_functional,
    fraction_rows_to_int,
    intersect_ideal_powers,
    membership,
    one,
    permute_composition,
    pinned_jet_conditions,
    symmetrize,
    x_of,
    y_of,
    zero,
)


def rank_per_degree(polys, ring):
    """Exact dimension of the span of homogeneous polynomials, by degree."""
    rows_by_deg = defaultdict(list)
    for p in polys:
        if p.is_zero():
            continue
        degs = {sum(e) for e in p.coeffs}
        assert len(degs) == 1, "oracle expects homogeneous input"
        rows_by_deg[degs.pop()].append(p)
    dims = []
    for d in range(ring.max_deg + 1):
        index = {e: i for i, e in enumerate(ring.monomials(d))}
        rows = [
            {index[e]: c for e, c in p.coeffs.items()}
            for p in rows_by_deg.get(d, [])
        ]
        dims.append(sparse_int_rank(fraction_rows_to_int(rows)))
    return dims


def ideal_power_span_dims(ring, pair, order):
    """Oracle: span of u^i v^j (i+j = order) times all fitting monomials."""
    ideal = DiagonalIdeal(ring, pair)
    gens = []
    for i in range(order + 1):
        g = one(ring)
        for _ in range(i):
            g = g * ideal.u
        for _ in range(order - i):
            g = g * ideal.v
        gens.append(g)
    products = []
    for g in gens:
        for m in ring.monomials_up_to(ring.max_deg - order):
            products.append(g * TruncPoly(ring, {m: Fraction(1)}))
    return rank_per_degree(products, ring)


def jet_kernel_dims(ring, pair, order):
    """Dimension of the jet-condition kernel, per degree."""
    by_deg = defaultdict(list)
    for row in jet_conditions(pair, order, ring):
        by_deg[sum(next(iter(row)))].append(row)
    dims = []
    for d in range(ring.max_deg + 1):
        index = {e: i for i, e in enumerate(ring.monomials(d))}
        rows = [
            {index[e]: c for e, c in row.items()} for row in by_deg.get(d, [])
        ]
        rank = sparse_int_rank(fraction_rows_to_int(rows))
        dims.append(len(index) - rank)
    return dims


@pytest.mark.parametrize(
    "n,pair,max_deg", [(2, (1, 2), 5), (3, (1, 3), 5), (3, (2, 3), 4)]
)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_jet_kernel_matches_product_span(n, pair, max_deg, order):
    ring = PolyRing(n, max_deg)
    assert jet_kernel_dims(ring, pair, order) == ideal_power_span_dims(
        ring, pair, order
    )


def test_membership_examples():
    ring = PolyRing(2, 4)
    u = x_of(ring, 1) - x_of(ring, 2)
    v = y_of(ring, 1) - y_of(ring, 2)
    assert membership(u, (1, 2), 1, ring)
    assert membership(u * v, (1, 2), 2, ring)
    assert not membership(u, (1, 2), 2, ring)
    assert not membership(one(ring), (1, 2), 1, ring)
    assert membership(zero(ring), (1, 2), 3, ring)


def test_jet_conditions_validate_order():
    ring = PolyRing(2, 2)
    with pytest.raises(ValueError):
        jet_conditions((1, 2), 0, ring)
    with pytest.raises(ValueError):
        pinned_jet_conditions(1, 0, ring)
    with pytest.raises(ValueError):
        pinned_jet_conditions(3, 1, ring)
    ring = PolyRing(3, 2)
    for pair in [(0, 2), (1, 1), (-1, 2), (1, 5)]:
        with pytest.raises(ValueError):
            jet_conditions(pair, 1, ring)


def test_membership_refuses_another_ring():
    p = one(PolyRing(3, 2))
    with pytest.raises(ValueError):
        membership(p, (1, 2), 1, PolyRing(2, 2))
    with pytest.raises(ValueError):
        membership(p, DiagonalIdeal(PolyRing(2, 2), (1, 2)), 1)
    with pytest.raises(ValueError):
        membership(p, (1, 2), 1, PolyRing(3, 3))
    # an equal ring built separately is the same ring
    assert not membership(p, (1, 2), 1, PolyRing(3, 2))
    assert not membership(p, DiagonalIdeal(PolyRing(3, 2), (1, 2)), 1)


def test_ideal_refuses_another_ring():
    ideal = DiagonalIdeal(PolyRing(2, 2), (1, 2))
    for ring in (PolyRing(3, 3), PolyRing(3, 2), PolyRing(2, 3)):
        with pytest.raises(ValueError, match="another ring"):
            membership(one(ideal.ring), ideal, 1, ring)
    # an equal ring built separately is the same ring
    assert not membership(one(ideal.ring), ideal, 1, PolyRing(2, 2))


def expanded_jet_conditions(A, order, ring):
    """Reference: jet conditions by expanding every monomial of the ring.

    Each monomial x_{a0}^p0 x_{a1}^p1 y_{a0}^q0 y_{a1}^q1 (times the other
    variables) is expanded binomially in u, s, v, t, and every term of
    u-v-degree below the order adds its weight to the functional keyed
    by the substituted monomial; functionals come sorted by degree, then
    key, with zero weights and empty functionals dropped.
    """
    a0, a1 = sorted(A)
    if order < 1:
        raise ValueError("order must be at least 1")
    n = ring.n
    ix0, ix1 = a0 - 1, a1 - 1
    iy0, iy1 = n + a0 - 1, n + a1 - 1
    rows: dict = {}
    for old in ring.monomials_up_to():
        p0, p1, q0, q1 = old[ix0], old[ix1], old[iy0], old[iy1]
        for i0 in range(p0 + 1):
            for i1 in range(p1 + 1):
                udeg = i0 + i1
                if udeg >= order:
                    continue
                cu = comb(p0, i0) * comb(p1, i1) * (-1) ** i1
                for j0 in range(q0 + 1):
                    for j1 in range(q1 + 1):
                        if udeg + j0 + j1 >= order:
                            continue
                        cv = comb(q0, j0) * comb(q1, j1) * (-1) ** j1
                        new = list(old)
                        new[ix0] = udeg
                        new[ix1] = p0 + p1 - udeg
                        new[iy0] = j0 + j1
                        new[iy1] = q0 + q1 - j0 - j1
                        key = tuple(new)
                        row = rows.setdefault(key, {})
                        row[old] = row.get(old, 0) + cu * cv
    ordered = sorted(rows, key=lambda e: (sum(e), e))
    out = []
    for key in ordered:
        row = {e: c for e, c in rows[key].items() if c}
        if row:
            out.append(row)
    return out


def test_jet_conditions_match_expansion():
    # Equal under ==, list order included, on every pair and every order
    # up to two past the truncation, where no key is left out any more.
    for n, max_deg in [(2, 8), (3, 6), (4, 4), (5, 3)]:
        ring = PolyRing(n, max_deg)
        for a0 in range(1, n + 1):
            for a1 in range(a0 + 1, n + 1):
                for order in range(1, max_deg + 3):
                    assert jet_conditions((a0, a1), order, ring) == (
                        expanded_jet_conditions((a0, a1), order, ring)
                    ), (n, max_deg, (a0, a1), order)
    ring = PolyRing(3, 4)
    for order in range(1, 6):
        expected = expanded_jet_conditions((1, 2), order, ring)
        assert jet_conditions((2, 1), order, ring) == expected


def test_jet_weights_closed_form():
    # K(P, r)[p0] is the coefficient of z^r in (1+z)^p0 (1-z)^(P-p0),
    # here expanded by multiplying out coefficient lists.
    def times(poly, sign):
        return [a + sign * b for a, b in zip(poly + [0], [0] + poly)]

    for P in range(9):
        for r in range(P + 1):
            expected = {}
            for p0 in range(P + 1):
                poly = [1]
                for _ in range(p0):
                    poly = times(poly, 1)
                for _ in range(P - p0):
                    poly = times(poly, -1)
                if poly[r]:
                    expected[p0] = poly[r]
            assert dict(_jet_weights(P, r)) == expected, (P, r)
    assert _jet_weights(2, 1) == ((0, -2), (2, 2))


def test_conditions_are_degree_homogeneous():
    ring = PolyRing(3, 4)
    for row in jet_conditions((1, 2), 3, ring):
        assert len({sum(e) for e in row}) == 1


def test_intersect_single_pair_squared():
    ring = PolyRing(2, 2)
    basis = intersect_ideal_powers([((1, 2), 2)], ring)
    assert len(basis) == 3
    assert all(degree(p) == 2 for p in basis)
    for p in basis:
        assert membership(p, (1, 2), 2, ring)
    low = PolyRing(2, 1)
    assert intersect_ideal_powers([((1, 2), 2)], low) == []


def test_intersect_zero_exponent_ignored():
    ring = PolyRing(2, 1)
    basis = intersect_ideal_powers([((1, 2), 0)], ring)
    # no condition at all: the whole degree <= 1 space
    assert len(basis) == 5


def test_big_diagonal_membership():
    ring = PolyRing(3, 3)
    pairs = [((1, 2), 1), ((1, 3), 1), ((2, 3), 1)]
    basis = intersect_ideal_powers(pairs, ring)
    assert basis, "pairwise diagonal ideal has elements by degree 3"
    for p in basis:
        for pair, _ in pairs:
            assert membership(p, pair, 1, ring)
    degrees = sorted(degree(p) for p in basis)
    assert degrees[0] == 2  # the 2x2 determinant of differences


def haiman_sides(ring, s):
    pairs = [(1, 2), (1, 3), (2, 3)]
    rhs = []
    by_deg = defaultdict(list)
    for pair in pairs:
        for row in jet_conditions(pair, s, ring):
            by_deg[sum(next(iter(row)))].append(row)
    for d in range(ring.max_deg + 1):
        index = {e: i for i, e in enumerate(ring.monomials(d))}
        rows = [
            {index[e]: c for e, c in row.items()} for row in by_deg.get(d, [])
        ]
        rhs.append(len(index) - sparse_int_rank(fraction_rows_to_int(rows)))

    base = intersect_ideal_powers([(p, 1) for p in pairs], ring)
    products = list(base)
    for _ in range(s - 1):
        products = [
            p * q for p in products for q in base if not (p * q).is_zero()
        ]
    spread = []
    for p in products:
        for m in ring.monomials_up_to(ring.max_deg - degree(p)):
            spread.append(p * TruncPoly(ring, {m: Fraction(1)}))
    lhs = rank_per_degree(spread, ring)
    return lhs, rhs


@pytest.mark.parametrize("s", [1, 2, 3])
def test_haiman_power_intersection_equality(s):
    ring = PolyRing(3, 5)
    lhs, rhs = haiman_sides(ring, s)
    assert lhs == rhs, (s, lhs, rhs)


def test_rank_independent_of_column_order():
    ring = PolyRing(2, 4)
    rows = jet_conditions((1, 2), 3, ring)
    monos = list(ring.monomials_up_to())
    fwd = {e: i for i, e in enumerate(monos)}
    rev = {e: len(monos) - 1 - i for i, e in enumerate(monos)}
    r1 = sparse_int_rank(
        fraction_rows_to_int({fwd[e]: c for e, c in row.items()} for row in rows)
    )
    r2 = sparse_int_rank(
        fraction_rows_to_int({rev[e]: c for e, c in row.items()} for row in rows)
    )
    assert r1 == r2


@pytest.mark.parametrize("chunk", [1, 2, 5, 17])
def test_rank_increments_sum_to_rank(chunk):
    ring = PolyRing(3, 3)
    index = {e: i for i, e in enumerate(ring.monomials_up_to())}
    rows = [
        {index[e]: c for e, c in row.items()}
        for pair in [(1, 2), (1, 3), (2, 3)]
        for order in (1, 2, 3)
        for row in jet_conditions(pair, order, ring)
    ]
    pivots = {}
    increments = [
        sparse_int_rank(rows[i : i + chunk], pivots)
        for i in range(0, len(rows), chunk)
    ]
    assert min(increments) == 0 < max(increments)
    assert sum(increments) == len(pivots) == sparse_int_rank(rows)
    assert sparse_int_rank(rows, pivots) == 0


def test_symmetrize_on_variables():
    ring = PolyRing(2, 3)
    swap = (2, 1)
    assert symmetrize(x_of(ring, 1), swap) == x_of(ring, 2)
    assert symmetrize(y_of(ring, 2), swap) == y_of(ring, 1)
    p = x_of(ring, 1) * y_of(ring, 2) + 3 * x_of(ring, 2)
    assert symmetrize(symmetrize(p, swap), swap) == p


def test_symmetrize_projector():
    ring = PolyRing(3, 2)
    perms = [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    acc = zero(ring)
    for sigma in perms:
        acc = acc + symmetrize(x_of(ring, 1), sigma)
    avg = acc * Fraction(1, len(perms))
    expect = (x_of(ring, 1) + x_of(ring, 2) + x_of(ring, 3)) * Fraction(1, 3)
    assert avg == expect


def test_symmetrize_tuple_action():
    ring = PolyRing(2, 2)
    fam = {
        (2, 0): x_of(ring, 1),
        (1, 1): y_of(ring, 1),
        (0, 2): x_of(ring, 2) * x_of(ring, 2),
    }
    swap = (2, 1)
    out = symmetrize(fam, swap)
    assert out[(2, 0)] == symmetrize(fam[(0, 2)], swap)
    assert out[(1, 1)] == symmetrize(fam[(1, 1)], swap)
    # double action is the identity
    assert symmetrize(out, swap) == fam


def test_permute_composition():
    assert permute_composition((5, 0, 2), (3, 1, 2)) == (2, 5, 0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_symmetrize_composes(data):
    ring = PolyRing(3, 3)
    monos = list(ring.monomials_up_to())
    coeffs = data.draw(
        st.dictionaries(
            st.sampled_from(monos), st.integers(-4, 4), max_size=5
        )
    )
    p = TruncPoly(ring, {e: Fraction(c) for e, c in coeffs.items()})
    sigma = tuple(data.draw(st.permutations([1, 2, 3])))
    tau = tuple(data.draw(st.permutations([1, 2, 3])))
    composed = tuple(sigma[tau[j] - 1] for j in range(3))
    assert symmetrize(symmetrize(p, sigma), tau) == symmetrize(p, composed)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.data())
def test_membership_equivariance(order, data):
    ring = PolyRing(3, 3)
    ideal = DiagonalIdeal(ring, (1, 2))
    # a random ideal-power element, transported by a transposition
    coeff = data.draw(st.integers(-3, 3))
    extra = data.draw(st.sampled_from([one(ring), x_of(ring, 3), y_of(ring, 1)]))
    p = one(ring)
    for _ in range(order):
        p = p * (ideal.u if coeff % 2 else ideal.v)
    p = p * extra * Fraction(max(coeff, 1))
    sigma = (1, 3, 2)  # swaps points 2 and 3
    moved = symmetrize(p, sigma)
    assert membership(p, (1, 2), order, ring)
    assert membership(moved, (1, 3), order, ring)


def test_ring_monomial_count():
    for n in (1, 2, 3):
        for D in (0, 1, 3):
            ring = PolyRing(n, D)
            monos = list(ring.monomials_up_to())
            assert len(monos) == comb(2 * n + D, 2 * n)
            assert len(set(monos)) == len(monos)


def test_truncation_drops_overflow():
    ring = PolyRing(1, 2)
    p = x_of(ring, 1) * x_of(ring, 1)
    assert (p * x_of(ring, 1)).is_zero()
    q = TruncPoly(ring, {(3, 0): Fraction(1), (1, 1): Fraction(2)})
    assert q.coeffs == {(1, 1): Fraction(2)}


def test_int_coefficients_stay_int():
    ring = PolyRing(1, 3)
    p = TruncPoly(ring, {(1, 0): 3, (0, 1): -2, (0, 0): 1})
    for q in (p, p + p, p - one(ring), p * p, p * 2, 2 * p, -p):
        assert q.coeffs
        assert all(type(c) is int for c in q.coeffs.values())
    r = TruncPoly(ring, {(1, 0): 3, (0, 1): Fraction(1, 2), (0, 0): "2/3"})
    assert r.coeffs == {(1, 0): 3, (0, 1): Fraction(1, 2), (0, 0): Fraction(2, 3)}
    assert [type(c) for c in r.coeffs.values()] == [int, Fraction, Fraction]
    assert all(type(c) is Fraction for c in (p * "1/3").coeffs.values())


def test_boundary_refuses_wrong_length_exponent():
    with pytest.raises(ValueError, match="wrong length"):
        TruncPoly(PolyRing(2, 2), {(1, 0): 1})


@st.composite
def _ring_and_polys(draw):
    """A ring on 2..3 points cut at 2..4, and two polynomials on it with
    int or Fraction coefficients, zeros and terms past the cap included."""
    ring = PolyRing(draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    monos = list(ring.monomials_up_to()) + [
        (ring.max_deg + 1,) + (0,) * (ring.nvars - 1)]
    coeff = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    def poly():
        return TruncPoly(ring, draw(st.dictionaries(
            st.sampled_from(monos), coeff, max_size=6)))
    return ring, poly(), poly(), draw(coeff)


@settings(max_examples=200, deadline=None)
@given(_ring_and_polys())
def test_arithmetic_results_are_clean(drawn):
    """Sums, negations and products of the oracle come out as its checked
    constructor builds them: no zero coefficient, nothing past the cap.
    == and is_zero rely on it."""
    ring, p, q, c = drawn
    # (p + q) * (p - q) expands to cross terms that cancel, as do p - p
    # and p * 0: exact zeros the results must not store
    for r in (p + q, p - q, -p, p * q, p * c, c * p, (p + q) * (p - q), p - p, p * 0):
        assert all(r.coeffs.values())
        assert all(sum(e) <= ring.max_deg for e in r.coeffs)
        assert r == TruncPoly(ring, r.coeffs)
    assert (p - p).is_zero() and (p * 0).is_zero()


def test_evaluate_functional_pairing():
    ring = PolyRing(2, 3)
    u = x_of(ring, 1) - x_of(ring, 2)
    rows = jet_conditions((1, 2), 1, ring)
    vals = [evaluate_functional(r, u) for r in rows]
    assert all(v == 0 for v in vals)
    s = x_of(ring, 1) + x_of(ring, 2)
    assert any(evaluate_functional(r, s) != 0 for r in rows)
