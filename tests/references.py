"""Reference implementations that the package does not run.

Each of these is reached only as an oracle: a plain, slow way to an
answer that a test compares the package with.  Some were replaced in
the package by faster paths; the others never ran in the command-line
program and moved here from it.

* TruncPoly is the truncated-product oracle: a polynomial bound to a
  PolyRing whose sums and products drop every term past the ring's cap,
  each built through one checked constructor; zero and one give its
  constants.  The package multiplies {exponent: int} dicts untruncated.
* nullspace, a Gauss-Jordan pass over Fraction, is the rational
  reference for the package's integer elimination and the solver under
  intersect_ideal_powers.
* MultiIndexMap holds a multi-index map with frozenset images, checked,
  and multiindex_invariants reads its invariants off them; act, psi,
  phi, in_Ip, canonical_section and all_multiindex_maps spell out the
  group action on these maps and their labels, and check the orbits,
  stabilizer orders and label sets of combinat, whose maps are tuples
  of image bitmasks; from_masks converts such a tuple and h_key sorts
  its masks back.  maps_by_level is the pruned walk that lists every
  map, the one combinat replaced by a walk that only counts the maps
  of each H-key; enumerate_multiindex_maps lists one level of it,
  converted, the input the orbit oracles partition.
* a_label_pairs anchors every label of A(k, l) at the pair (1, 2), as
  the invariant kernel did before it kept the A0 labels alone; the
  stacked systems it gives are the reference for the A0 ones.
* DiagonalIdeal, membership and symmetrize are the product-span oracle
  for jet_conditions, the kernel witnesses, and the Reynolds average
  that graded pieces are checked against; pinned_jet_conditions is the
  reference for the rows of a pair ending at a pinned point.
* leading_minors_by_block takes one determinant per leading block, the
  reference for the one-pass leading minors of linalg.
* min_led_rank is the sparse elimination of linalg as it found each
  row's leading column before, by rescanning the row with min; the
  reference for the sorted column list, which must pick the same
  pivots.  It shares linalg's division of a row by its content, and
  differs only in how it finds the leading column.
* free_point_counts_full_table fills every cell of a table of
  multisets of monomials, by how many of them are not 1, the reference
  for the free-point counts of tautops, which read them off Newton's
  identity; multisets_by_listing lists the multisets of (a, monomial)
  items one by one, the reference for the tables of that identity.
* weighted_component_by_assignment sums over every weight-respecting
  assignment of factors to slots, the reference for the factorized
  orbit-sum components of the local formulas; expand_around_first_slot
  is their offset expansion on exponent tuples, the reference for the
  one on packed keys; degree is the total degree of a polynomial.
* ChernData, chern_sym_omega and tensor_chern carry the Chern data of
  symmetric powers of the cotangent bundle and of tensor products, and
  chi_twisted_fraction is Hirzebruch-Riemann-Roch for a twisted bundle
  summed over Fraction: together the reference for the closed integer
  quadratic chi_twists of rroch.
* chi_graded_piece_n2 gives one graded piece of the two-point
  filtration per call, its string of corrections summed from the start,
  the reference for the one-pass list of rroch; chi_sym_power_n2_telescoped
  is the two-point formula as one closed sum, the same sum rearranged,
  the reference for the sum of that list.  Both read chi(S^l Omega
  otimes L^p otimes A^q) off chi_twists, which chi_twisted_fraction
  checks on its own.

They are kept here, with their own tests, so that no oracle shares code
with the path it checks.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb, gcd, lcm

from hilbtaut.combinat import quotient_A
from hilbtaut.linalg import _divide_content, bareiss_det
from hilbtaut.polyjet import PolyRing, jet_conditions
from hilbtaut.rroch import binom_int, chi_twists


def _exact(c):
    """c itself when an int or a Fraction, else the Fraction it converts
    to exactly (a string such as "2/3", or a float)."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


class TruncPoly:
    """A sparse polynomial bound to its ring; products drop any term
    beyond the ring's degree cap.

    Every polynomial, sums, negations and products included, goes
    through the constructor, which checks every term: coefficients, and
    scalars a polynomial is multiplied by, go through _exact (ints are
    kept as they are, every other value becomes a Fraction), zeros are
    dropped, exponent vectors must have the ring's length, and terms
    past the cap are cut.  No zero coefficient is ever stored, which ==
    and is_zero rely on.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing, coeffs: dict):
        clean = {}
        for e, c in coeffs.items():
            c = _exact(c)
            if not c:
                continue
            if len(e) != ring.nvars:
                raise ValueError("exponent vector has wrong length")
            if sum(e) <= ring.max_deg:
                clean[tuple(e)] = c
        self.ring = ring
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TruncPoly(self.ring, out)

    def __neg__(self):
        return TruncPoly(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncPoly):
            c = _exact(other)
            return TruncPoly(self.ring, {e: c * v for e, v in self.coeffs.items()})
        # pairs past the cap are skipped, not built and then cut
        cap = self.ring.max_deg
        terms = [(e2, c2, sum(e2)) for e2, c2 in other.coeffs.items()]
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            room = cap - sum(e1)
            for e2, c2, d2 in terms:
                if d2 <= room:
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return TruncPoly(self.ring, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, TruncPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "TruncPoly(0)"
        parts = [f"{c}*{e}" for e, c in sorted(self.coeffs.items())]
        return "TruncPoly(" + " + ".join(parts) + ")"


def zero(ring: PolyRing) -> TruncPoly:
    return TruncPoly(ring, {})


def one(ring: PolyRing) -> TruncPoly:
    return TruncPoly(ring, {(0,) * ring.nvars: 1})


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


def leading_minors_by_block(matrix) -> list[int]:
    """Determinants of the upper-left t x t blocks, t = 1..size, one
    Bareiss determinant per block."""
    size = len(matrix)
    return [
        bareiss_det([row[:t] for row in matrix[:t]]) for t in range(1, size + 1)
    ]


def min_led_rank(rows, pivots: dict | None = None) -> int:
    """Rank that rows add to a pivot dict, by the elimination of linalg
    with each leading column found as min(row)."""
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


def free_point_counts_full_table(m: int, max_deg: int) -> list:
    """M(m, j) for j = 0..max_deg, the multisets of m monomials of total
    degree j, from the full table: row s counts the multisets of s
    monomials of positive degree, and every row is filled through
    max_deg at every step t, though s monomials of degree <= t reach
    degree s t at most."""
    size = min(m, max_deg)
    table = [[1] + [0] * max_deg] + [[0] * (max_deg + 1) for _ in range(size)]
    for t in range(1, max_deg + 1):
        for s in range(size, 0, -1):  # rows below s still lack degree t
            row = table[s]
            for j in range(t, max_deg + 1):
                row[j] += sum(
                    comb(t + c, c) * table[s - c][j - c * t]
                    for c in range(1, min(s, j // t) + 1)
                )
    return [sum(column) for column in zip(*table)]


def multisets_by_listing(j: int, k: int, max_deg: int) -> list:
    """H[d][s], d <= max_deg and s <= k: the multisets of j items
    (a, x^p y^q) whose a's sum to s and whose degrees p + q sum to d,
    each listed once, as a run of items in non-decreasing order."""
    items = [(a, p, q) for a in range(k + 1) for p in range(max_deg + 1)
             for q in range(max_deg + 1 - p)]
    table = [[0] * (k + 1) for _ in range(max_deg + 1)]

    def extend(start, left, s, d):
        if not left:
            table[d][s] += 1
            return
        for i in range(start, len(items)):
            a, p, q = items[i]
            if s + a <= k and d + p + q <= max_deg:
                extend(i, left - 1, s + a, d + p + q)

    extend(0, j, 0, 0)
    return table


# ---------------------------------------------------------------------------
# multi-index maps


@dataclass(frozen=True, slots=True)
class MultiIndexMap:
    """A map a from factor slots {1..k} to nonempty subsets of {1..n},
    with frozenset images, each checked."""

    n: int
    images: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not all(self.images):
            raise ValueError("images must be nonempty")
        if not all(1 <= j <= self.n for im in self.images for j in im):
            raise ValueError("image out of range")

    @property
    def k(self) -> int:
        return len(self.images)


def from_masks(n: int, masks) -> MultiIndexMap:
    """The map whose slot i has the image bitmask masks[i - 1] (point j
    is bit j - 1), the format of combinat's maps."""
    return MultiIndexMap(n, tuple(
        frozenset(j for j in range(1, n + 1) if m >> j - 1 & 1) for m in masks))


MapInvariants = namedtuple("MapInvariants", "A J S0 lam l k t")


def multiindex_invariants(a: MultiIndexMap) -> MapInvariants:
    """The derived quantities of a multi-index map.

    A: union of all images of size >= 2.  J: union of all singleton
    images.  S0: slots whose image equals A itself.  lam: dense length-n
    vector, lam[j-1] = number of slots with image {j}.  l: total image
    size minus k.  k: max(0, 2(|A|-1)).  t: |A & J|.
    """
    big = [im for im in a.images if len(im) >= 2]
    A = frozenset().union(*big)
    singles = [im for im in a.images if len(im) == 1]
    J = frozenset().union(*singles)
    lam = tuple(
        sum(1 for im in a.images if len(im) == 1 and j in im)
        for j in range(1, a.n + 1)
    )
    S0 = frozenset(i for i in range(1, a.k + 1) if a.images[i - 1] == A and A)
    l = sum(len(im) for im in a.images) - a.k
    kk = max(0, 2 * (len(A) - 1))
    return MapInvariants(A=A, J=J, S0=S0, lam=lam, l=l, k=kk, t=len(A & J))


def all_multiindex_maps(n: int, k: int) -> list[MultiIndexMap]:
    """Every map {1..k} -> nonempty subsets of {1..n}: all (2^n - 1)^k
    of them, so keep n and k small."""
    subsets = [frozenset(s) for m in range(1, n + 1)
               for s in itertools.combinations(range(1, n + 1), m)]
    return [MultiIndexMap(n, images)
            for images in itertools.product(subsets, repeat=k)]


def h_key(a: MultiIndexMap) -> tuple[int, ...]:
    """The sorted tuple of a's image bitmasks (point j is bit j - 1):
    the name of its H-orbit in combinat."""
    return tuple(sorted(sum(1 << j - 1 for j in im) for im in a.images))


@lru_cache(maxsize=None)
def maps_by_level(n: int, k: int) -> dict[int, tuple[tuple, tuple]]:
    """All maps with k(a) <= 2, as tuples of image bitmasks, bucketed by
    l(a): per level, the maps and their H-keys as two parallel tuples.

    The H-key of a map is its tuple sorted.  The k(a) <= 2 condition is
    that the union of the non-singleton images stays within two points.
    That union, like the level, depends on the key alone, and so do the
    images a prefix may take next.  The pool is every nonempty subset of
    {1..n} as a mask, by size and then lexicographically.  The children
    of each distinct key are listed once, in pool order, each with its
    own key, interned so that equal keys are one tuple.  Every prefix of
    a layer is extended by the children its key lists.  Prefixes stay in
    the order of the plain product walk over the pool, restricted to the
    survivors, and so do the maps in each bucket.
    """
    pool = [sum(1 << j - 1 for j in s) for size in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), size)]
    known = {(): ((), 0)}  # key -> (its interned tuple, its level)
    children: dict[tuple[int, ...], list] = {}

    def kids(key):
        out = children.get(key)
        if out is None:
            union = 0
            for m in key:
                if m & (m - 1):
                    union |= m
            level = known[key][1]
            out = children[key] = []
            for m in pool:
                if (union | m if m & (m - 1) else union).bit_count() <= 2:
                    new = tuple(sorted(key + (m,)))
                    new = known.setdefault(new, (new, level + m.bit_count() - 1))[0]
                    out.append((m, new))
        return out

    layer = [((), ())]
    for _ in range(k):
        layer = [(prefix + (m,), new)
                 for prefix, key in layer for m, new in kids(key)]
    buckets: dict[int, tuple[list, list]] = {}
    for a, key in layer:
        maps, keys = buckets.setdefault(known[key][1], ([], []))
        maps.append(a)
        keys.append(key)
    return {lv: (tuple(maps), tuple(keys)) for lv, (maps, keys) in buckets.items()}


def enumerate_multiindex_maps(n: int, k: int, l: int) -> list[MultiIndexMap]:
    """Every map {1..k} -> nonempty subsets of {1..n} in I^l: l(a) = l
    and k(a) <= 2, in the order of the plain product walk."""
    return [from_masks(n, a) for a in maps_by_level(n, k).get(l, ((), ()))[0]]


def in_Ip(a: MultiIndexMap, p: int) -> bool:
    """Membership in I^p: l(a) = p and k(a) <= 2."""
    inv = multiindex_invariants(a)
    return inv.l == p and inv.k <= 2


def act(a: MultiIndexMap, sigma=None, tau=None) -> MultiIndexMap:
    """The (G x H)-action (sigma, tau).a = sigma a tau^-1.

    Either permutation may be None (identity).  sigma permutes points
    inside each image, tau^-1 reindexes the slots.
    """
    images = a.images
    if tau is not None:
        inv_tau = [0] * len(tau)
        for i, v in enumerate(tau, start=1):
            inv_tau[v - 1] = i
        images = tuple(images[inv_tau[i - 1] - 1] for i in range(1, len(images) + 1))
    if sigma is not None:
        images = tuple(frozenset(sigma[j - 1] for j in im) for im in images)
    return MultiIndexMap(a.n, images)


def nu_of_composition(c) -> tuple[int, ...]:
    """The partition in the G-orbit of a composition: nonzero values, sorted."""
    return tuple(sorted((v for v in c if v), reverse=True))


def psi(a: MultiIndexMap) -> tuple[tuple[int, ...], frozenset[int]]:
    """The H-invariant label (lambda(a), A(a)) of a map."""
    inv = multiindex_invariants(a)
    return inv.lam, inv.A


def phi(a: MultiIndexMap) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (G x H)-invariant label: partitions of lambda restricted to A
    and to its complement."""
    inv = multiindex_invariants(a)
    nu_A = nu_of_composition(inv.lam[j - 1] for j in sorted(inv.A))
    nu_rest = nu_of_composition(
        inv.lam[j - 1] for j in range(1, a.n + 1) if j not in inv.A
    )
    return nu_A, nu_rest


def canonical_section(lam, A, k: int) -> MultiIndexMap:
    """The fixed section (lambda, A) -> a of the label map.

    The first l = k - |lambda| slots map to A; the remaining slots map to
    singletons in weakly increasing point order.  Any section would do;
    this one is fixed for determinism.
    """
    lam = tuple(lam)
    n = len(lam)
    l = k - sum(lam)
    if l < 0:
        raise ValueError("weight of lambda exceeds k")
    A = frozenset(A)
    if l == 0:
        if A:
            raise ValueError("A must be empty when l = 0")
        images = []
    else:
        if len(A) != 2:
            raise ValueError("A must be a 2-element subset when l >= 1")
        images = [A] * l
    for j in range(1, n + 1):
        images.extend([frozenset((j,))] * lam[j - 1])
    return MultiIndexMap(n, tuple(images))


def a_label_pairs(n: int, k: int, level: int):
    """One condition label per orbit of A(k, level + 1), anchored at the
    pair (1, 2): the on-pair part on slots 1 and 2, the rest after them."""
    return [
        (tuple(on) + (0,) * (2 - len(on)) + tuple(off) + (0,) * (n - 2 - len(off)), (1, 2))
        for on, off in quotient_A(k, level + 1, n)
    ]


# ---------------------------------------------------------------------------
# diagonal ideals


def x_of(ring: PolyRing, i: int) -> TruncPoly:
    """The coordinate x_i of ring, as a polynomial."""
    return _variable(ring, i - 1)


def y_of(ring: PolyRing, i: int) -> TruncPoly:
    """The coordinate y_i of ring, as a polynomial."""
    return _variable(ring, ring.n + i - 1)


def _variable(ring: PolyRing, pos: int) -> TruncPoly:
    if not 0 <= pos < ring.nvars:
        raise ValueError("variable index out of range")
    e = [0] * ring.nvars
    e[pos] = 1
    return TruncPoly(ring, {tuple(e): Fraction(1)})


@dataclass(frozen=True)
class DiagonalIdeal:
    """The ideal of the locus where points a0 and a1 collide."""

    ring: PolyRing
    pair: tuple

    def __post_init__(self):
        a0, a1 = self.pair
        if not (1 <= a0 < a1 <= self.ring.n):
            raise ValueError("pair must satisfy 1 <= a0 < a1 <= n")

    @property
    def u(self) -> TruncPoly:
        a0, a1 = self.pair
        return x_of(self.ring, a0) - x_of(self.ring, a1)

    @property
    def v(self) -> TruncPoly:
        a0, a1 = self.pair
        return y_of(self.ring, a0) - y_of(self.ring, a1)


def evaluate_functional(functional: dict, p: TruncPoly) -> int | Fraction:
    """The pairing of a jet functional with the coefficients of p."""
    return sum(c * p.coeffs[e] for e, c in functional.items() if e in p.coeffs)


def membership(p: TruncPoly, A, order: int, ring: PolyRing | None = None) -> bool:
    """Is p in the order-th power of the diagonal ideal of A?

    A is a DiagonalIdeal, or a plain pair given with its ring.  A ring
    given with an ideal must match the ideal's ring, and the ideal's ring
    must match p's, in n and max_deg: the functionals read coefficients
    on the monomials of the ideal's ring, so a polynomial of another ring
    would be judged on the wrong ones (for another n, on none at all).
    """
    if isinstance(A, DiagonalIdeal):
        if ring is not None and (ring.n, ring.max_deg) != (A.ring.n, A.ring.max_deg):
            raise ValueError(f"ideal of {A.ring} given with another ring {ring}")
        A, ring = A.pair, A.ring
    if ring is None:
        raise ValueError("a plain pair needs an explicit ring")
    if (ring.n, ring.max_deg) != (p.ring.n, p.ring.max_deg):
        raise ValueError(f"polynomial of {p.ring} tested against an ideal of {ring}")
    return all(
        evaluate_functional(row, p) == 0
        for row in jet_conditions(A, order, ring)
    )


def pinned_jet_conditions(a: int, order: int, ring: PolyRing) -> list:
    """Jet conditions of the pair (a, n + 1) with point n + 1 at the origin.

    With that point pinned, the diagonal ideal becomes the monomial ideal
    (x_a, y_a), and its order-th power is cut out by the vanishing of
    every monomial coefficient of (x_a, y_a)-degree below the order.
    Functionals have the shape of jet_conditions and come ordered by
    degree.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if not 1 <= a <= ring.n:
        raise ValueError("point index out of range")
    ix, iy = a - 1, ring.n + a - 1
    return [
        {e: 1}
        for e in ring.monomials_up_to()
        if e[ix] + e[iy] < order
    ]


def permute_composition(lam, sigma):
    """The reindexed composition: entry i becomes entry sigma(i)."""
    return tuple(lam[sigma[i] - 1] for i in range(len(lam)))


def symmetrize(t, sigma):
    """Apply the point-relabeling action of sigma.

    On a polynomial, sigma_* substitutes x_i by x_{sigma^-1(i)} (same
    for y), i.e. exponent slot j receives the old slot sigma(j).  On a
    mapping indexed by compositions, entry lambda of the result is
    sigma_* of entry lambda compose sigma.
    """
    if isinstance(t, TruncPoly):
        n = t.ring.n
        out = {}
        for e, c in t.coeffs.items():
            new = tuple(e[sigma[j] - 1] for j in range(n)) + tuple(
                e[n + sigma[j] - 1] for j in range(n)
            )
            out[new] = c
        return TruncPoly(t.ring, out)
    if isinstance(t, dict):
        return {
            lam: symmetrize(t[permute_composition(lam, sigma)], sigma)
            for lam in t
        }
    raise TypeError("symmetrize expects a TruncPoly or a composition-indexed dict")


# ---------------------------------------------------------------------------
# local formulas


def degree(p: TruncPoly) -> int:
    """Total degree of p; -1 for the zero polynomial."""
    return max((sum(e) for e in p.coeffs), default=-1)


def expand_around_first_slot(poly: dict, n: int, level: int) -> dict:
    """The offset buckets of a polynomial on n points, {exponent tuple:
    int}: the second slot's variables x_2, y_2 are replaced by
    x_1 + a, y_1 + b, and the coefficient polynomial of each a^i b^j
    with i + j = level is returned under (i, j), zeros dropped."""
    buckets: dict = {}
    for e, c in poly.items():
        p1, q1 = e[1], e[n + 1]
        for i in range(min(p1, level) + 1):
            j = level - i
            if j > q1:
                continue
            new = list(e)
            new[1] = 0
            new[n + 1] = 0
            new[0] = e[0] + p1 - i
            new[n] = e[n] + q1 - j
            bucket = buckets.setdefault((i, j), {})
            key = tuple(new)
            bucket[key] = bucket.get(key, 0) + c * comb(p1, i) * comb(q1, j)
    return {ij: {e: c for e, c in b.items() if c} for ij, b in buckets.items()}


def weighted_component_by_assignment(ring: PolyRing, lam, weighted_factors) -> TruncPoly:
    """Component at lam of the orbit sum of a weighted factor tuple: the
    sum over all weight-respecting assignments of factors to slots of the
    product of slot values, zero unless the weights match lam."""
    slots_by_value: dict = {}
    for slot, v in enumerate(lam, start=1):
        slots_by_value.setdefault(v, []).append(slot)
    factors_by_weight: dict = {}
    for w, f in weighted_factors:
        factors_by_weight.setdefault(w, []).append(f)
    if {v: len(s) for v, s in slots_by_value.items()} != {
        w: len(fs) for w, fs in factors_by_weight.items()
    }:
        return zero(ring)
    n = ring.n
    values = sorted(slots_by_value)
    total = zero(ring)
    choices = [itertools.permutations(factors_by_weight[v]) for v in values]
    for combo in itertools.product(*choices):
        term = one(ring)
        for v, perm in zip(values, combo):
            for slot, f in zip(slots_by_value[v], perm):
                # f is a polynomial in one point's (x, y), placed at slot
                pad = (0,) * (slot - 1), (0,) * (n - slot)
                term = term * TruncPoly(ring, {
                    pad[0] + (i,) + pad[1] + pad[0] + (j,) + pad[1]: c
                    for (i, j), c in f.items()
                })
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Riemann-Roch


@dataclass(frozen=True)
class ChernData:
    """rank, first Chern class (lattice vector), and the c2 number."""

    rank: int
    c1: tuple
    c2num: int


def chern_sym_omega(s, l: int) -> ChernData:
    """Chern data of the l-th symmetric power of the cotangent bundle.

    Splitting principle on the two Chern roots a, b of Omega: the l+1
    roots of S^l are i*a + (l-i)*b, and c2 = (c1^2 - sum of squares)/2,
    where the squares sum to sum_i i^2 (a^2 + b^2) + 2 i (l-i) ab, with
    a^2 + b^2 = K^2 - 2 c2 and ab = c2.
    """
    K2 = s.dot(s.K, s.K)
    half = l * (l + 1) // 2
    squares = sum(i * i * (K2 - 2 * s.c2) + 2 * i * (l - i) * s.c2
                  for i in range(l + 1))
    c2num = Fraction(half * half * K2 - squares, 2)
    assert c2num.denominator == 1
    return ChernData(l + 1, tuple(half * x for x in s.K), int(c2num))


def tensor_chern(s, E: ChernData, F: ChernData) -> ChernData:
    """Chern data of a tensor product, through the rank-generic ch2 rule."""
    c1 = tuple(F.rank * e + E.rank * f for e, f in zip(E.c1, F.c1))
    ch2 = (F.rank * Fraction(s.dot(E.c1, E.c1) - 2 * E.c2num, 2)
           + s.dot(E.c1, F.c1)
           + E.rank * Fraction(s.dot(F.c1, F.c1) - 2 * F.c2num, 2))
    c2num = Fraction(s.dot(c1, c1), 2) - ch2
    assert c2num.denominator == 1
    return ChernData(E.rank * F.rank, c1, int(c2num))


def chi_twisted_fraction(s, E, M) -> int:
    """chi of E tensor the line bundle M: rank * chiO + (c1^2 - 2 c2)/2
    - c1.K/2, each half taken as a Fraction, on the Chern classes of the
    twisted bundle."""
    M = tuple(M)
    c1 = tuple(e + E.rank * m for e, m in zip(E.c1, M))
    c2 = E.c2num + (E.rank - 1) * s.dot(E.c1, M) + comb(E.rank, 2) * s.dot(M, M)
    val = (
        Fraction(E.rank * s.chiO)
        + Fraction(s.dot(c1, c1) - 2 * c2, 2)
        - Fraction(s.dot(c1, s.K), 2)
    )
    if val.denominator != 1:
        raise ValueError("non-integral chi; inconsistent input")
    return int(val)


def chi_graded_piece_n2(s, k: int, j: int, L, A) -> int:
    """chi of the graded piece labeled (k-j, j) in the two-point filtration,
    one piece per call, its string of corrections summed from l = 0.

    Distinct parts pair the two line-bundle factors and subtract the full
    string of cotangent corrections below 2j; equal parts take the
    symmetric square and only the even half of the string survives the
    flip.
    """
    if not 0 <= 2 * j <= k:
        raise ValueError("need 0 <= j <= k/2")
    om = chi_twists(s, L, A)
    a, b = k - j, j
    if a > b:
        total = om(0, a, 1) * om(0, b, 1)
        for l in range(2 * j):
            total -= om(l, k, 2)
        return total
    total = binom_int(om(0, a, 1) + 1, 2)
    for l in range(0, 2 * j, 2):
        total -= om(l, k, 2)
    return total


def chi_sym_power_n2_telescoped(s, k: int, L, A) -> int:
    """The two-point formula as one closed sum: the products of the pieces,
    less chi(S^j Omega otimes L^k otimes A^2) counted (k - j) // 2 times,
    as often as a piece's string of corrections reaches it."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    om = chi_twists(s, L, A)
    chi = lambda p, q: om(0, p, q)
    total = 0
    if k % 2 == 0:
        total += binom_int(chi(k // 2, 1) + 1, 2)
    for i in range((k - 1) // 2 + 1):
        total += chi(k - i, 1) * chi(i, 1)
    for j in range(k - 1):
        total -= ((k - j) // 2) * om(j, k, 2)
    return total
