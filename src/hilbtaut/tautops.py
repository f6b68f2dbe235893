"""Difference operators on composition-indexed tuples and their kernels.

Everything here lives on the affine coordinate model: a point
configuration carries one pair of variables per slot, a symmetric-power
section becomes a tuple, here a dict from the compositions of k of range
n to {exponent: int} polynomials, and the gluing conditions along pairwise
diagonals turn into signed binomial combinations of components whose
membership in powers of the diagonal ideals is tested by jet
functionals.  Stacking the conditions of all orders below l cuts out a
decreasing chain of subspaces; the final step models the pushforward of
the k-th symmetric power, and its dimensions are compared, degree by
degree, with spaces of symmetrized sections of ideal-power twists.

The conditions see the points only through the diagonal ideals I_A,
which are generated by differences of coordinates, so they are blind to
translating every point at once.  In the coordinates x_n, y_n and
x_a - x_n, y_a - y_n (a < n) the ring splits as Q[x_n, y_n] tensor the
ring of the relative coordinates, and every I_A^m is extended from the
second factor; for a pair (a, n) it is the monomial ideal
(x_a - x_n, y_a - y_n)^m.  The full kernel is therefore Q[x_n, y_n]
tensor K0 (the centre of mass serves as well as point n), where K0 is
the same system with point n pinned at the origin, solved on n - 1
points.  Taking Hilbert series,

    dim K_d = sum over j of (j + 1) * dim K0_(d - j),

at every number of stacked blocks, where j + 1 counts the degree-j
polynomials on the one free point.  As their Hilbert series is
1/(1 - t)^2, tensoring with a free point is two running sums.  The
invariant systems are solved on all n points, since pinning a point
breaks the relabeling action their column orbits rely on, and impose
one label per orbit, from A0(k, l): the other labels of A(k, l) are
void on invariant tuples (_stack).

The graded piece of a partition mu is solved on the l(mu) points its
diagonals touch, as the nullity of the jet conditions of its ideal
powers, one pair per stabilizer orbit of pairs, over columns folded
into stabilizer orbits.  At a pair of equal parts only the jets of even
u-v-degree are imposed: the pair's transposition lies in the
stabilizer, and folds every odd one to zero.  The other n - l(mu)
points are free and only symmetrized, so the piece is that nullity
tensored with the symmetric polynomials on them, whose degree-j
dimension M(m, j) counts the multisets of m monomials of total degree
j.  One engine, _nullities, solves the kernel and graded systems alike:
it takes blocks of conditions (pair, degrees, order, shifts), each the
jets of one pair times the order-th difference along it at every shift
(order 0 for a graded piece), and maps each jet functional straight
onto its own (composition, exponent) columns, through one table
{exponent: column} per composition.  It builds the tables of the
compositions its conditions' supports name, and of no other, in reverse
lexicographic order, and numbers a key at the first appearance of its
relabeling orbit when the columns are folded, and of itself when not,
so the fold only picks the key.  In that order each orbit first appears
at its non-increasing member.  No builder lists the compositions or
partitions of k to key its columns.  Every row is bihomogeneous in
(x-degree, y-degree), so degree d splits into d + 1 blocks of x-degree
g sharing no column, and swapping x and y, which fixes every diagonal
ideal, gives blocks g and d - g equal rank: only the columns and rows
of 2g >= d are built and solved, and the mirror counted.  The stacked
systems are nested, block l only adding rows, and only those of its new
jet degree l: the rows of lower jets are implied by the blocks below,
since D^o_mu = D^(o-1)_(mu+e_a1) - D^(o-1)_(mu+e_a0).  The engine runs
one elimination per (degree, x-degree): it feeds the blocks in order,
each one's rows shortest first, into that pair's pivot dict and reads
every level's nullity on the way, eliminating each row once.

A system of one pair on its own two points, the kernel at n = 2 in
either mode or a graded piece of two parts, is not eliminated: its rows
are independent, so each level's nullity is its columns less its rows,
both counted by the plan (_counted).  In the coordinates u = x_1 - x_2,
s = x_1 + x_2, v = y_1 - y_2, t = y_1 + y_2 (pinned, x_1 and y_1
themselves) a jet functional reads one coefficient, that of its key K,
so the columns may be taken as the pairs (lam, K).  The swap of the two
points sends u and v to -u and -v and fixes s and t, so it sends the
coefficient of x_lam at K to plus or minus that of x_(lam swapped) at K:
it acts diagonally on the keys, and a folded row, like an unfolded one,
holds the key K of its functional alone.  Rows of different keys share
no column.  A kernel row of key K has the order o = |K|_uv + 1, the
u-v-degree of K plus one, and its shift mu, a composition of k - o,
gives it the columns ((mu_1 + b, mu_2 + o - b), K), b = 0..o.  The one
of b = o has coefficient (-1)^o and the largest first part, or folded,
as mu_1 > mu_2, the largest part, which no other of its columns reaches
and which the column carries on invariant tuples; no row of smaller mu_1
holds it.  Ordered by mu_1, the rows of K are triangular, so
independent.  A graded piece has one shift, its mu, and order 0: each
row is the one coordinate of its own key, and at a pair of equal parts
only even u-v-degrees, which the swap fixes, are imposed.

The local formulas for the merged-pair operators D^l compare, on
orbit-sum tuples, the expansion of a difference around the first slot
of a pair with a closed form written in the summand factors, in exact
integer polynomials.  There a monomial on n points is keyed by one
packed int, the exponent of variable v (x_1..x_n, then y_1..y_n) in
bits [W v, W (v + 1)), W = _FIELD: a monomial product is one int
addition, and reading or moving one slot's exponents a shift and a
mask.  Exponents enter only through _slot_value, which refuses one wide
enough to overflow a field; higher_difference, _jet_coefficient and
linalg's _add_into and scalar_multiple do not look inside a key.  Each
orbit-sum component is built once per instance and shared by the
operators that name it.

The linear algebra is exact throughout, and in integers end to end: jet
conditions carry integer weights, condition rows and column sums stay
integers, and the elimination takes them as they are.  Sizes are bounded
by a cap (override with the environment variable
``HILBTAUT_MAX_MATRIX_ENTRIES``) so that a typo in the arguments fails
fast instead of grinding.  Each builder, _nullity_profile and
graded_dims, plans its whole system from counts and checks the plan
against the cap before it lists anything else or solves: first the
column key table, keys times points, at max_deg, where it is largest
(_check_keys), which bounds a folded table too, though that keys fewer,
and for graded_dims the partitions of k (_check_partitions) and the
free-point table of its first piece, the largest; then every stack,
degree by degree, rows times columns (_counted).  Rows, counted once,
are each condition's shifts (_shift_count) times the jets of its own
u-v-degrees (_jet_count); columns are keys (_nkeys), or folded,
orbits.  Every orbit the plan counts is a multiset of items (a, x^p y^q), and one
series, from Newton's identity, counts them all (_multisets): the
invariant columns are the multisets of n items of weight k; a graded
piece's are, over its part values, the product of the multisets of
weight 0 on the points of each value (_free_point_counts); and the
invariant shifts and the partitions of k are multisets of degree 0.
graded_dims checks every piece's stack before it solves the first.
Each builder reads the cap once per call and hands it to every check.
Exceeding any of these raises EntryCapError, and a number too long to
print is named by its digit count (_digits).  A system with no rows, on
one point or with k < 2, is its columns, and one on two points the
columns less the rows _counted returns (above): neither runs the
engine.  _nullities only solves: a degree whose tables key more columns
than the plan counted is an internal fault, RuntimeError.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import accumulate, combinations, cycle, permutations
from math import comb
from operator import add, ge

from .combinat import enumerate_compositions, enumerate_partitions, m_mu
from .linalg import _add_into, scalar_multiple, sparse_int_rank
from .polyjet import PolyRing, _jet_functionals, jet_conditions

_DEFAULT_MAX_ENTRIES = 2_000_000

EXPONENT_RULES = ("uniform_2m_mu", "per_pair_2mu")


def _max_entries() -> int:
    raw = os.environ.get("HILBTAUT_MAX_MATRIX_ENTRIES")
    if raw is None:
        return _DEFAULT_MAX_ENTRIES
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"HILBTAUT_MAX_MATRIX_ENTRIES must be a positive integer, got {raw!r}"
        )
    return cap


class EntryCapError(RuntimeError):
    """A condition matrix would exceed the entry cap."""


def _digits(x: int) -> int:
    """The decimal digits of |x|: from the bit length b,
    10^((b - 1) log10 2) <= |x|, so the estimate below is at most one
    short, and one comparison makes it exact."""
    x = max(abs(x), 1)
    digits = (x.bit_length() - 1) * 3010299 // 10**7 + 1
    return digits + (x >= 10**digits)


def _print_limit(x: int) -> int:
    """The interpreter's limit for printing an integer,
    sys.get_int_max_str_digits() (Python 3.11 on), if |x| has more
    digits (_digits), else 0; _decimal and cli._printable read it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit if limit and _digits(x) > limit else 0


def _decimal(x: int) -> str:
    """x in decimal, or, too long to print (_print_limit), its digit count."""
    return f"a {_digits(x)}-digit number" if _print_limit(x) else str(x)


def _check_cap(nrows: int, ncols: int, cap: int, context: str) -> None:
    if nrows * ncols > cap:
        raise EntryCapError(
            f"{context}: {_decimal(nrows)} x {_decimal(ncols)} matrix exceeds the entry "
            f"cap {cap}; set HILBTAUT_MAX_MATRIX_ENTRIES to raise it"
        )


def _nkeys(ncomps: int, ring: PolyRing, d: int) -> int:
    """How many keys (lam, e) degree d has: ncomps compositions lam times
    the C(nvars + d - 1, d) degree-d monomials e of ring."""
    return ncomps * comb(ring.nvars + d - 1, d)


def _check_keys(ncomps: int, ring: PolyRing, slots: int, cap: int, context: str) -> None:
    """Refuse, from sizes alone, a column key table over the entry cap at
    some degree through ring.max_deg: the keys of degree d (_nkeys),
    times the slots of a composition.

    The table grows with d, so it is checked once, at max_deg, or at a
    lower degree where it is already over the cap, so that no huge
    binomial is computed or printed.  Its binomial, C(nvars + d - 1, d),
    is at least d + 1, as a ring has nvars >= 2, and at least
    2^min(d, nvars - 1), so it is over at degree 2^bits, bits the cap's
    bit length, and on more variables than bits, already at degree bits.
    """
    bits = cap.bit_length()
    d = min(ring.max_deg, bits if ring.nvars > bits else 1 << bits)
    _check_cap(_nkeys(ncomps, ring, d), slots, cap, context)


def _multisets(n: int, k: int, max_deg: int):
    """Yield the tables H_j for j = 0..min(n, k + max_deg): H_j[d][s]
    counts the multisets of j items (a, x^p y^q), a >= 0, whose a's sum
    to s <= k and whose degrees p + q sum to d <= max_deg.  Past k +
    max_deg items every further item is (0, 1), so the last table stands
    for every larger j too.

    A multiset of j items is an S_j-orbit of j-tuples of them, so this is
    the one orbit count of the plan: H_n[d][k] counts the relabeling
    orbits of the keys (lam, e) of degree d on n points (_column_tables),
    H_j[0][s] the partitions of s into at most j parts, and at k = 0,
    H_m[d][0] the degree-d symmetric polynomials on m points.  Newton's
    identity (Macdonald, Symmetric Functions, I.2) gives j H_j = sum over
    r = 1..j of P_r H_(j-r), where P_r, the sum of the r-th powers of the
    items, is 1/((1 - z^r)(1 - u^r)^2) in z^s u^d: one running sum of
    stride r along s, then two along d.  Rows are d-major, each one list
    over s.
    """
    tables = [[[1] + [0] * k] + [[0] * (k + 1) for _ in range(max_deg)]]
    yield tables[0]
    for j in range(1, min(n, k + max_deg) + 1):
        total = [[0] * (k + 1) for _ in range(max_deg + 1)]
        for r in range(1, j + 1):
            rows = [list(row) for row in tables[j - r]]
            for res in range(min(r, k + 1 - r)):  # row[s] += row[s - r]
                for row in rows:
                    row[res::r] = accumulate(row[res::r])
            for _ in range(2):  # rows[d] += rows[d - r]
                for d in range(r, max_deg + 1):
                    rows[d] = list(map(add, rows[d], rows[d - r]))
            total = [list(map(add, t, p)) for t, p in zip(total, rows)]
        tables.append([[c // j for c in row] for row in total])
        yield tables[-1]


def _check_partitions(k: int, n: int, cap: int) -> None:
    """Refuse, before any is listed, a table of the partitions of k into
    at most n parts, each keyed by up to w = min(n, k) parts, of more
    entries than the cap.

    With w >= 2 there are at least k // 2 + 1 of them, those into parts
    of size at most 2, so too many of those, as for any k above the cap,
    are refused outright.  Otherwise those into at most j parts,
    H_j[0][k] of _multisets at degree 0, are counted for j = 0, 1, ... in
    turn, and refused as soon as the count so far is too many.
    """
    width = min(n, k)
    if width < 2:
        return
    count = k // 2 + 1
    if count * width <= cap:  # the first count too many, if any
        count = next((h[0][k] for h in _multisets(width, k, 0) if h[0][k] * width > cap), 0)
    if count * width > cap:
        raise EntryCapError(
            f"partitions of {k} into at most {n} parts: at least {count} x {width} "
            f"exceeds the entry cap {cap}; set HILBTAUT_MAX_MATRIX_ENTRIES to raise it"
        )


# ---------------------------------------------------------------------------
# higher differences


def _difference_support(mu, a0: int, a1: int, order: int):
    """Signed binomial support of the order-th difference along (a0, a1).

    Returns pairs (lam, coefficient) with lam = mu plus b at a0 and
    order - b at a1, and coefficient (-1)^b C(order, b).
    """
    out = []
    for b in range(order + 1):
        lam = list(mu)
        lam[a0 - 1] += b
        lam[a1 - 1] += order - b
        out.append((tuple(lam), (-1) ** b * comb(order, b)))
    return out


def higher_difference(x: dict, mu, A, order: int) -> dict:
    """The order-th difference of the tuple x along the pair A, shifted by mu.

    x maps compositions of one weight k to {exponent: int} polynomials,
    and needs only the components the difference combines.  For order 2,
    mu = (1, 0) and A = {1, 2} this is the combination
    x_(3,0) - 2 x_(2,1) + x_(1,2).  The weight of mu plus the order must
    equal k.  The result is a new dict with no zero coefficient, at
    order 0 too, so callers may add into it.
    """
    mu = tuple(mu)
    key = next(iter(x), mu)
    if len(mu) != len(key):
        raise ValueError("mu must have one entry per slot")
    if any(v < 0 for v in mu):
        raise ValueError("mu must be nonnegative")
    if sum(mu) + order != sum(key):
        raise ValueError(
            f"weight mismatch: |mu| + order = {sum(mu) + order} != k = {sum(key)}"
        )
    if order == 0:
        support = [(mu, 1)]
    else:
        a0, a1 = sorted(A)
        if not (1 <= a0 < a1 <= len(mu)):
            raise ValueError("A must be a pair of distinct slots")
        support = _difference_support(mu, a0, a1, order)
    total: dict = {}
    for lam, cf in support:
        if lam not in x:
            raise ValueError(f"missing component {lam}")
        _add_into(total, x[lam], cf)
    return total


# ---------------------------------------------------------------------------
# stacked kernel systems


def _orders(k: int, max_deg: int) -> range:
    """The orders a kernel system of weight k builds through max_deg: 1
    through min(k - 1, max_deg + 1), as a higher one imposes no jet of
    degree max_deg or less (_stack)."""
    return range(1, min(k - 1, max_deg + 1) + 1)


def _stack(n: int, k: int, ring: PolyRing, invariant: bool) -> list:
    """The condition blocks of a kernel system on n >= 2 points, order by
    order, one (A, degrees, order, shifts) per pair.

    A label (mu, A) of order o asks the o-th difference along A, shifted
    by a composition mu of k - o, to lie in I_A^o; the condition of a
    pair A lists its labels' shifts mu.  Stacked on the blocks below, a
    label imposes only the jets of u-v-degree o - 1, degrees =
    range(o - 1, o): by Pascal's rule
    D^o_mu = D^(o-1)_(mu+e_a1) - D^(o-1)_(mu+e_a0), each lower jet of
    D^o_mu is the difference of two jets of order o - 1, which the blocks
    below impose (see _nullities).  Above ring.max_deg + 1 that jet has
    no key of degree max_deg or less, so only orders 1 through
    min(k - 1, max_deg + 1) are built; the levels above repeat the last.

    Full systems take every pair a0 < a1, each with every composition mu,
    B(k, o, n) of the paper, pairs outer.  Invariant systems take one
    label per relabeling orbit, anchored at the pair (1, 2): the
    compositions with mu_1 > mu_2 and mu_3 >= ... >= mu_n, which are the
    labels of A0(k, o), padded.  A0 leaves out the labels of A(k, o)
    whose on-pair part has mu_1 = mu_2, as their conditions are void on
    invariant tuples.  Swapping slots 1 and 2 fixes such a mu, so on an
    invariant x it maps D^o_mu x to (-1)^o D^o_mu x.  It also sends the
    pair's u and v to -u and -v and fixes s and t, so it multiplies the
    coefficient of a key of u-v-degree r by (-1)^r.  The jets of
    u-v-degree o - 1 thus equal their own negatives and vanish on every
    invariant tuple: the rows of such a label fold to zero.
    """
    pairs = [(1, 2)] if invariant else list(combinations(range(1, n + 1), 2))
    orders = _orders(k, ring.max_deg)
    shifts = [[mu for mu in enumerate_compositions(n, k - o)
               if not invariant or mu[0] > mu[1] and all(map(ge, mu[2:], mu[3:]))] for o in orders]
    return [[(A, range(o - 1, o), o, s) for A in pairs] for o, s in zip(orders, shifts)]


def _shift_count(n: int, k: int, o: int, invariant: bool) -> int:
    """How many shifts _stack lists at order o: the compositions of
    m = k - o on n points, or, invariant, those with mu_1 > mu_2 and
    mu_3 >= ... >= mu_n, where mu_1 + mu_2 = s is split (s + 1) // 2
    ways and the rest is a partition of m - s into at most n - 2 parts,
    read off the last table of _multisets at degree 0."""
    m = k - o
    if not invariant:
        return comb(n + m - 1, m)
    *_, (ways,) = _multisets(n - 2, m, 0)
    return sum((s + 1) // 2 * ways[m - s] for s in range(m + 1))


def _jet_count(ring: PolyRing, degrees: range, d: int) -> int:
    """How many degree-d jets of a pair, pinned or not, have their
    u-v-degree, the degree of their key in the first point of the pair,
    in degrees.

    One functional per degree-d key of such a u-v-degree s: a point's
    two variables carry degree s in s + 1 ways, and the other nvars - 2
    variables take the rest.  I_A^order is cut out by those of
    range(order); a stacked kernel block keeps one u-v-degree, and a
    graded piece at a pair of equal parts the even ones alone.  Only the
    u-v-degrees up to d are walked, so a piece of a large exponent costs
    no more than its degree.  The plan sizes its stacks with these
    counts, and answers a two-point system with them (_counted).
    """
    rest = ring.nvars - 2
    return sum(
        (s + 1) * (comb(rest + d - s - 1, d - s) if rest else int(s == d))
        for s in range(degrees.start, min(degrees.stop, d + 1), degrees.step)
    )


def _counted(conditions, ring: PolyRing, cols, cap: int, context: str) -> list:
    """Each level's columns less its rows, d through ring.max_deg, over
    cols[d] columns in degree d, once the stack is checked against the cap.
    A condition (degrees, count) is one level of count conditions of one
    pair each, whose rows of degree d are their jets of u-v-degree in
    degrees (_jet_count), counted once per degree.  Each degree's whole
    stack is checked in turn, so a refusal names the lowest degree over
    the cap.  For one pair on its own two points, pinned or not, this is
    what _nullities returns, as that pair's rows are independent (see the
    module docstring); a larger system uses level 0 alone, its columns."""
    profile = [[] for _ in range(len(conditions) + 1)]
    for d, ncols in enumerate(cols):
        rows = list(accumulate((count * _jet_count(ring, degrees, d)
                                for degrees, count in conditions), initial=0))
        _check_cap(rows[-1], ncols, cap, context)
        for level, nrows in zip(profile, rows):
            level.append(ncols - nrows)
    return profile


@lru_cache(maxsize=None)
def _upper_half(n: int, d: int) -> tuple:
    """The degree-d monomials on n points of x-degree g with 2g >= d, in
    the ring's order: the exponents of every column key and row built.
    Listed once per (n, d) in a process."""
    return tuple(e for e in PolyRing(n, d).monomials(d) if 2 * sum(e[:n]) >= d)


def _convolve(a, b) -> list:
    """The product of two series, through the length of a."""
    return [sum(a[j] * b[d - j] for j in range(d + 1)) for d in range(len(a))]


def _column_tables(comps, n: int, d: int, fold: bool) -> tuple:
    """(tables, ids): one table {e: column} per composition lam of comps,
    for the keys (lam, e), e a degree-d monomial on n points of x-degree
    g with 2g >= d, and ids, the column of each key or orbit key.

    Columns are numbered by first appearance, lam outer, in the order of
    comps, and e inner.  Unfolded, each key is its own column.  Folded,
    keys are grouped into orbits under slot relabeling, which sends the
    coefficient of x_lam at e to that of x_(lam o sigma) at the
    sigma-permuted exponent, with no sign; an invariant tuple is
    constant on each orbit.  Since sigma permutes the slots of lam and
    of both blocks of e together, the sorted triples (lam_i, e_i,
    e_(n+i)) name the orbit, and a key is numbered by that orbit key.
    Swapping x and y maps the keys, and so the orbits, of x-degree g
    one-to-one onto those of d - g, so only 2g >= d is keyed.
    """
    upper, ids = _upper_half(n, d), {}
    tables = {lam: {e: ids.setdefault(tuple(sorted(zip(lam, e[:n], e[n:]))) if fold else (lam, e),
                                      len(ids)) for e in upper} for lam in comps}
    return tables, ids


def _nullities(blocks, ring: PolyRing, fold: bool, cols) -> list:
    """Per-degree nullities at every level of a stack of condition blocks
    over cols[d] columns in degree d, d through ring.max_deg.

    A block lists conditions (A, degrees, order, shifts): the jet
    functionals of I_A (with a point pinned at the origin when A ends
    one point past the ring's last) at the keys whose u-v-degree lies in
    the range degrees, each times the order-th difference along A,
    shifted by each composition mu in shifts; its support,
    _difference_support(mu, *A, order), is the composition weights.  A
    functional maps exponents e to integer weights c; its row puts cf *
    c on column table[e] of lam's table, for every (lam, cf) in the
    support, and keys sharing a column add up; an entry whose sum
    cancels is dropped, so rows hold no zeros.  Rows come pair by pair, shift by shift within a
    pair, functional by functional.  A tuple satisfies the block when
    every row pairs to zero against its coefficients.  Level l imposes
    the first l blocks.  The result is indexed by level, 0 through
    len(blocks), then by degree.

    A graded piece is one block of order 0, shifted by its partition
    alone, and its conditions keep every u-v-degree below its exponent
    e, range(e), or at a pair of equal parts the even ones, range(0, e,
    2) (see graded_dims).  A stacked kernel block of order o keeps
    u-v-degree o - 1 alone, range(o - 1, o).
    Pascal's rule gives D^o_mu = D^(o-1)_(mu+e_a1) - D^(o-1)_(mu+e_a0),
    and a functional does not depend on the order it is built for, so
    the row of a lower key is the difference of two rows of block o - 1
    and, by induction, lies in the span of the blocks below.  Every
    level thus has the nullity of the stack that keeps every jet below
    each block's order.  This holds folded too: a relabeling keeps a
    key's u-v-degree, and a representative label's rows stand for those
    of its whole orbit.

    Every row is bihomogeneous, so degree d splits into blocks of
    x-degree g = 0..d that share no column, folded or not (an orbit key
    keeps the x-degree of its triples).  A row has the d and g of its
    functional's key, as the support changes only the composition.
    Swapping x and y fixes every diagonal ideal and maps the rows of g
    onto those of d - g, so the two have equal rank: only the rows of
    2g >= d are built (_jet_functionals over the keys _upper_half lists)
    and eliminated, and 2g > d counts twice.  Each (d, g) keeps one
    pivot dict and is fed the blocks in order, each block's rows
    shortest first, so every row is eliminated once and level l is read
    off right after block l.  Each support is built once, and each
    condition's jet functionals once per degree.  Tables keying more
    columns than cols[d] are an internal fault, and raise RuntimeError.

    Each degree's tables are built for the compositions the supports
    name, and no other, in reverse lexicographic order, where the
    non-increasing rearrangement of a composition comes first: folded,
    each orbit is numbered there.  The order sets the column numbering,
    so the pivots, not the answer.  Numbered in the order the supports
    first name them, the columns gave the same nullities, but the
    kernel benchmark's pass took 1.7 % longer at the median, and longer
    in 6 of 8 alternating pairs, with linalg's sorted column list (2.2 %
    and 5 of 6 under the min-led elimination before it; Python 3.11,
    2-core VM).
    """
    n = ring.n
    supported = [[(A, degrees, [_difference_support(mu, *A, order) for mu in shifts])
                  for A, degrees, order, shifts in block] for block in blocks]
    named = sorted({lam for block in supported for _, _, supports in block
                    for support in supports for lam, _ in support}, reverse=True)
    profile: list = [list(cols)] + [[] for _ in supported]
    for d, ncols in enumerate(cols):
        tables, ids = _column_tables(named, n, d, fold)
        keys = _upper_half(n, d)[::-1]  # sorted, as jet_conditions orders them
        pivots: dict = {}
        rank = 0
        for level, block in enumerate(supported, start=1):
            by_g: dict = {}
            for A, degrees, supports in block:
                built = [(sum(next(iter(f))[:n]), f)
                         for f in _jet_functionals(A, degrees, ring, keys)]
                for support in supports:
                    for g, functional in built:
                        row: dict = {}
                        for lam, cf in support:
                            table = tables[lam]
                            for e, c in functional.items():
                                col = table[e]
                                v = row.get(col, 0) + cf * c
                                if v:
                                    row[col] = v
                                else:
                                    row.pop(col, None)
                        by_g.setdefault(g, []).append(row)
            for g, rows in by_g.items():
                rows.sort(key=len)
                gained = sparse_int_rank(rows, pivots.setdefault(g, {}))
                rank += gained if 2 * g == d else 2 * gained
            profile[level].append(ncols - rank)
        if len(ids) > ncols:
            raise RuntimeError(f"degree {d} keys {len(ids)} columns, more than the {ncols}")
    return profile


def _nullity_profile(n: int, k: int, max_deg: int, invariant: bool) -> list:
    """Per-degree nullities of the stacked kernel systems, at every level.

    Level l imposes the condition blocks of orders 1 through l, for l = 0,
    no conditions, and each order of _orders(k, k).  A level above
    max_deg + 1 adds no row through max_deg and repeats the one below,
    unbuilt (_stack).  The result is indexed by level, then by total
    degree.  Full systems on n > 1 points are solved with point n pinned
    at the origin, then tensored with Q[x_n, y_n] (see the module
    docstring).  Invariant columns are counted as multisets of n items
    of weight k (_multisets), and none is listed.  A system with no
    order, k < 2, or no pair, n = 1, has no rows, and is its columns.  Any other
    is sized by _counted, whose answer stands on n = 2 points: the stack
    is one pair on its own points, pinned in full mode, so each level is
    its columns less its rows, and nothing is listed or eliminated.
    """
    pinned = not invariant and n > 1
    ring = PolyRing(n - pinned, max_deg)
    ncomps = comb(n + k - 1, k)
    cap = _max_entries()
    _check_keys(ncomps, ring, n, cap, "column orbit keys" if invariant else "column keys")
    if invariant and n > 1:  # on one point there is no relabeling to fold
        *_, orbits = _multisets(n, k, max_deg)
        cols = [row[k] for row in orbits]
    else:
        cols = [_nkeys(ncomps, ring, d) for d in range(max_deg + 1)]
    profile = [cols]
    if n > 1 and _orders(k, max_deg):
        pairs = 1 if invariant else comb(n, 2)
        conditions = [(range(o - 1, o), pairs * _shift_count(n, k, o, invariant))
                      for o in _orders(k, max_deg)]
        profile = _counted(conditions, ring, cols, cap, f"kernel system ({n},{k})")
        if n > 2:
            profile = _nullities(_stack(n, k, ring, invariant), ring, invariant, cols)
    if pinned:
        profile = [list(accumulate(accumulate(dims))) for dims in profile]
    return profile + [list(profile[-1]) for _ in range(len(_orders(k, k)) + 1 - len(profile))]


@lru_cache(maxsize=None)
def _free_point_counts(m: int, max_deg: int) -> tuple:
    """M(m, j) for j = 0..max_deg: the multisets of m monomials x^a y^b
    of total degree j, which is the dimension of the degree-j symmetric
    polynomials on m plane points, read off _multisets at k = 0."""
    *_, table = _multisets(m, 0, max_deg)
    return tuple(row[0] for row in table)


def kernel_nullity(
    n: int, k: int, max_deg: int, invariant: bool = True
) -> tuple:
    """Dimensions, through each total degree, of the stacked kernel.

    All difference conditions of order up to k - 1 are imposed at once;
    the d-th entry counts solutions of total degree at most d.  Orders
    above max_deg + 1 impose no jet of degree max_deg or less, so they
    are not built.  With invariant=True only relabeling-invariant tuples
    are counted, and the conditions reduce to one representative per
    orbit of labels.  For k = 0 or k = 1 there are no conditions and the
    full space is measured.
    """
    if n < 1 or k < 0 or max_deg < 0:
        raise ValueError("need n >= 1, k >= 0, max_deg >= 0")
    return tuple(accumulate(_nullity_profile(n, k, max_deg, invariant)[-1]))


# ---------------------------------------------------------------------------
# graded comparison spaces


def graded_dims(
    n: int,
    k: int,
    max_deg: int,
    exponent_rule: str = "uniform_2m_mu",
) -> dict:
    """Per-partition dimensions of symmetrized ideal-power sections.

    For each partition mu of k with at most n parts, the space in degree
    at most d consists of the polynomials on the n-slot configuration
    lying in the prescribed power of every pairwise diagonal ideal among
    the first l(mu) slots and fixed by the stabilizer of the padded
    composition.  The uniform_2m_mu rule imposes twice the minimal part
    at every pair; per_pair_2mu imposes twice the part of the larger
    index.  The two rules agree whenever every part below the top is
    minimal, in particular through weight four.

    Each piece is solved on the r = l(mu) points its diagonals touch.
    Every ideal power imposed is extended from the ring of those points,
    so their intersection is J tensor the ring of the other n - r
    points, and the stabilizer of padded mu, Stab(mu) times S_(n-r),
    acts factor by factor: the fixed part is J^Stab(mu) tensor the
    symmetric polynomials on n - r free points, so its Hilbert series is
    J^Stab(mu)'s times that of M(n - r, .).  With r >= 2 the first factor
    is the nullity, by the kernels' engine, of the jet conditions over
    the columns (mu, exponent) folded into relabeling orbits, which meet
    mu in its stabilizer orbits; mu, the one composition its order-0
    rows name, is the one the engine keys.  Both rules' exponents depend
    only on the two parts of a pair, and a fixed polynomial lies in I_A^e
    exactly when it lies in I_(sigma A)^e, so one pair stands for each
    Stab(mu)-orbit of pairs, named by its two parts.  A pair of equal
    parts imposes the even u-v-degrees below e alone, range(0, e, 2):
    its transposition lies in Stab(mu), sends the pair's u and v to -u
    and -v and fixes s, t and the other points, so the folded row of a
    key of odd u-v-degree equals its own negative and is zero, as for
    the A0 labels (_stack).  A piece of fewer than two parts has no pair,
    so no condition, and runs no engine: J is 1 for the empty partition,
    k = 0, and Q[x, y] for one part, a free point (see the module
    docstring).  Every stack is sized by _counted before any is solved.
    A piece of two parts is one pair on its own points, so its rows are
    independent and it runs no engine either: J^Stab(mu) is its columns
    less its rows, as _counted returned them.  Keys appear in refined
    order.
    """
    if exponent_rule not in EXPONENT_RULES:
        raise ValueError(f"exponent_rule must be one of {EXPONENT_RULES}")
    if n < 1 or k < 0 or max_deg < 0:
        raise ValueError("need n >= 1, k >= 0, max_deg >= 0")
    cap = _max_entries()
    _check_partitions(k, n, cap)
    width = min(n, k)
    if width:
        _check_keys(1, PolyRing(width, max_deg), width, cap, "column orbit keys")
    m = n - min(k, 1)  # the first piece, (k,) or (), has the most free points
    _check_cap(min(m, max_deg) + 1, max_deg + 1, cap, f"symmetric polynomials on {m} free points")
    uniform = exponent_rule == "uniform_2m_mu"
    plan = []
    for mu in enumerate_partitions(k, n):
        # a pair of equal parts keeps the even u-v-degrees alone
        block = [(A, range(0, 2 * (m_mu(mu) if uniform else q), 2 if mu[A[0] - 1] == q else 1),
                  0, [mu]) for A, q in _orbit_pairs(mu)]
        # the stabilizer of mu permutes the points of each part value
        levels = block and _counted(
            [(degrees, 1) for _, degrees, _, _ in block], PolyRing(len(mu), max_deg),
            list(reduce(_convolve, (_free_point_counts(mu.count(p), max_deg) for p in set(mu)))),
            cap, f"graded piece {mu} ({n},{k})")
        plan.append((mu, block, levels))
    out: dict = {}
    for mu, block, levels in plan:
        free = _free_point_counts(n - len(mu), max_deg)
        if not block:  # no pair: every polynomial on the r points
            piece = accumulate(accumulate(free)) if mu else free
        else:
            part = (levels[1] if len(mu) == 2  # one pair, counted
                    else _nullities([block], PolyRing(len(mu), max_deg), True, levels[0])[1])
            piece = _convolve(free, part)
        out[mu] = tuple(accumulate(piece))
    return out


def _orbit_pairs(mu) -> list:
    """One pair of points (i, j), i < j, per orbit of the stabilizer of
    the partition mu on pairs, each with mu_j, the smaller of its parts.

    The stabilizer permutes the points carrying equal parts, so an orbit
    is named by its unordered pair of parts, and its first pair is taken:
    the first two points of a repeated part p, or the first points of
    two parts p > q, which come in that order.
    """
    first: dict = {}  # each part, in decreasing order, at its first point
    for i, p in enumerate(mu, start=1):
        first.setdefault(p, i)
    twins = [((i, i + 1), p) for p, i in first.items() if i < len(mu) and mu[i] == p]
    return twins + [((first[p], first[q]), q) for p, q in combinations(first, 2)]


def graded_totals(pieces: dict) -> tuple:
    """Degree-by-degree sum of the graded_dims pieces."""
    return tuple(sum(column) for column in zip(*pieces.values()))


# ---------------------------------------------------------------------------
# filtration report


class FiltrationReport(namedtuple(
    "FiltrationReport",
    "full_nullities invariant_nullities graded exploratory mismatches",
)):
    """Kernel and graded dimensions of one configuration, side by side.

    Nullity tables are indexed first by the number of imposed condition
    blocks (0 through k - 1), then by total degree, and count solutions
    through that degree.  The graded table maps each partition to the
    matching cumulative dimensions, under graded_dims' default exponent
    rule; graded_totals sums them.  A mismatch entry records a degree
    where the final invariant kernel and the graded total disagree.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.mismatches


def _translation_free(dims) -> tuple:
    """Per-degree dimensions deconvolved by (1 - t)^2.

    Translating every point at once commutes with relabeling, so each
    invariant kernel is Q[x_bar, y_bar] tensor the invariant part of K0
    (see the module docstring), and its Hilbert series is that of K0's
    invariant part over (1 - t)^2.  Multiplying dims by (1 - t)^2 thus
    gives the per-degree dimensions of that part, which are never
    negative.
    """
    padded = [0, 0] + list(dims)
    return tuple(padded[d + 2] - 2 * padded[d + 1] + padded[d] for d in range(len(dims)))


def in_proven_range(n: int, k: int) -> bool:
    """Whether kernel = graded is established for (n, k): n <= 2 or k <= 4."""
    return n <= 2 or k <= 4


def verify_filtration(n: int, k: int, max_deg: int) -> FiltrationReport:
    """Cross-check the stacked kernel against the graded dimension count.

    The graded side takes graded_dims' default exponent rule; the two
    rules agree in the supported regime, n <= 2 or k <= 4, and may part
    beyond it, first at (3, 5, 4).  In that regime a disagreement raises
    AssertionError with the offending degree.  Anything else is
    reported as exploratory and returned without raising, whatever the
    outcome.  Structural sanity (nullities weakly decreasing in the
    number of blocks, invariant counts no larger than full ones, and
    invariant counts that are Q[x_bar, y_bar] tensor a space graded by
    degree, see _translation_free) is enforced unconditionally.
    """
    if k < 1:
        raise ValueError("the comparison needs k >= 1")
    exploratory = not in_proven_range(n, k)
    inv_profile = _nullity_profile(n, k, max_deg, True)
    inv_rows = tuple(tuple(accumulate(dims)) for dims in inv_profile)
    full_rows = tuple(
        tuple(accumulate(dims)) for dims in _nullity_profile(n, k, max_deg, False)
    )
    levels = tuple(zip(inv_rows, full_rows))
    for l, ((inv0, full0), (inv, full)) in enumerate(zip(levels, levels[1:]), 1):
        for d in range(max_deg + 1):
            if inv[d] > inv0[d] or full[d] > full0[d]:
                raise AssertionError(
                    f"nullity grew from block {l - 1} to {l} at degree {d}"
                )
    for l, (inv, full) in enumerate(levels):
        for d in range(max_deg + 1):
            if inv[d] > full[d]:
                raise AssertionError(
                    f"invariant nullity exceeds the full one at block {l}, degree {d}"
                )
    for l, dims in enumerate(inv_profile):
        for d, b in enumerate(_translation_free(dims)):
            if b < 0:
                raise AssertionError(
                    f"invariant nullities at block {l} deconvolve by (1 - t)^2 "
                    f"to {b} < 0 at degree {d}"
                )
    graded = graded_dims(n, k, max_deg)
    totals = graded_totals(graded)
    kernel = inv_rows[-1]
    mismatches = tuple(
        (d, kernel[d], totals[d])
        for d in range(max_deg + 1)
        if kernel[d] != totals[d]
    )
    report = FiltrationReport(
        full_nullities=full_rows,
        invariant_nullities=inv_rows,
        graded=graded,
        exploratory=exploratory,
        mismatches=mismatches,
    )
    if not (report.passed or exploratory):
        d, a, b = mismatches[0]
        raise AssertionError(
            f"kernel/graded mismatch for n={n}, k={k} at degree {d}: {a} != {b}"
        )
    return report


# ---------------------------------------------------------------------------
# structural identities of the difference operators


def verify_recursion() -> dict:
    """Check that one difference step reduces the order by one.

    Three layers: the formal identity on signed binomial supports at
    orders 1 through 8, checked on the symbol tuple x_lam = lam, whose
    differences are exactly those supports; exact polynomial instances
    of the same identity at orders 1 through 4; and, through order 4,
    that order o's jet conditions lie inside order o + 1's.  Both
    identity layers run _one_step.  Failures raise AssertionError.
    """
    formal_cases = 0
    configs = [
        (2, (0, 0), (1, 2)),
        (3, (1, 0, 2), (1, 3)),
        (4, (0, 1, 0, 2), (2, 4)),
    ]
    for n, mu, A in configs:
        for order in range(1, 9):
            comps = enumerate_compositions(n, sum(mu) + order)
            if not _one_step({lam: {lam: 1} for lam in comps}, mu, A, order):
                raise AssertionError(
                    f"recursion failed formally at order {order} for mu={mu}"
                )
            formal_cases += 1
    polynomial_cases = 0
    for n, mu, A in [(2, (1, 0), (1, 2)), (3, (0, 1, 0), (1, 3))]:
        ring = PolyRing(n, 2)
        stream = _coefficient_stream()
        for order in range(1, 5):
            x = {
                lam: _stream_poly(ring, stream)
                for lam in enumerate_compositions(n, sum(mu) + order)
            }
            if not _one_step(x, mu, A, order):
                raise AssertionError(
                    f"recursion failed on polynomials at order {order}, n={n}"
                )
            polynomial_cases += 1
    ring = PolyRing(2, 3)
    nested_orders = 0
    previous = None
    for order in range(1, 5):
        rows = {frozenset(r.items()) for r in jet_conditions((1, 2), order, ring)}
        if previous is not None and not previous <= rows:
            raise AssertionError(f"jet conditions of order {order - 1} not nested in {order}")
        previous = rows
        nested_orders += 1
    return {
        "formal_cases": formal_cases,
        "polynomial_cases": polynomial_cases,
        "nested_orders": nested_orders,
    }


def _one_step(x: dict, mu, A, order: int) -> bool:
    """Whether D^o_mu x = D^(o-1)_(mu+e_a1) x - D^(o-1)_(mu+e_a0) x on
    the tuple x, with o = order and (a0, a1) the sorted pair A."""
    a0, a1 = sorted(A)
    mu0 = list(mu)
    mu0[a0 - 1] += 1
    mu1 = list(mu)
    mu1[a1 - 1] += 1
    rhs = higher_difference(x, mu1, A, order - 1)
    _add_into(rhs, higher_difference(x, mu0, A, order - 1), -1)
    return higher_difference(x, mu, A, order) == rhs


def _coefficient_stream():
    """A fixed endless supply of small nonzero integers."""
    return cycle([1, -2, 3, 1, -1, 2, 5, -3, 2, 1, -2, 7])


def _stream_poly(ring: PolyRing, stream) -> dict:
    """A polynomial with one stream coefficient on every monomial of ring."""
    return {e: next(stream) for e in ring.monomials_up_to()}


def verify_transition() -> dict:
    """Check the rescaling identity for differences of rescaled tuples.

    Rescaling each component x_lam by gamma^lam changes the order-(l+2)
    difference by lower-order differences weighted by powers of the
    rescaling spread gamma_0 - gamma_1, taken in that orientation: with
    the signs of the differences anchored at the first slot of the pair,
    the spread orientation matters, and the opposite choice fails
    already at order two.  The identity is verified as an exact
    polynomial statement in the formal symbols, for shifts mu of several
    shapes and levels l = 0 through 4, orders 2 through 6.  Both sides
    are built from the same signed supports, so each case also anchors
    those signs independently: the difference of the symbol tuple
    x_lam = z^lam must be z^mu (z_2 - z_1)^m, expanded by _product.
    """
    cases = 0
    for mu in [(0, 0), (1, 0), (0, 1), (2, 1)]:
        for l in range(5):
            m = l + 2
            support = _difference_support(mu, 1, 2, m)
            lhs = {(lam, (mu[0] + m, mu[1])): cf for lam, cf in support}
            _add_into(lhs, {(lam, lam): cf for lam, cf in support}, -1)
            rhs: dict = {}
            for i in range(1, m + 1):
                pref = (-1) ** (i + 1) * comb(m, i)
                shifted = list(mu)
                shifted[1] += i
                inner = _difference_support(tuple(shifted), 1, 2, m - i)
                for r in range(i + 1):
                    d = (mu[0] + m - r, mu[1] + r)
                    _add_into(
                        rhs,
                        {(lam, d): cf for lam, cf in inner},
                        pref * comb(i, r) * (-1) ** r,
                    )
            if lhs != rhs:
                raise AssertionError(f"transition identity failed for mu={mu}, order {m}")
            # z_1 and z_2 are the two variables of one slot
            symbols = {lam: _slot_value(1, {lam: 1}, 1)
                       for lam in enumerate_compositions(2, sum(mu) + m)}
            spread = _product([_slot_value(1, {mu: 1}, 1)]
                              + [_slot_value(1, {(0, 1): 1, (1, 0): -1}, 1)] * m)
            if higher_difference(symbols, mu, (1, 2), m) != spread:
                raise AssertionError(f"difference signs off for mu={mu}, order {m}")
            cases += 1
    return {"cases": cases, "orders_checked": 5}


# ---------------------------------------------------------------------------
# local formulas for the merged-pair operators


# Bits per variable of a packed monomial key.  _slot_value admits
# exponents up to _MAX_EXPONENT alone, so a product of up to 2^8 slot
# values, far more than any identity here multiplies, keeps every field
# below 2^_FIELD.
_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
_MAX_EXPONENT = (1 << _FIELD // 2) - 1


def _product(polys) -> dict:
    """The product of polynomials {packed exponent: int}, untruncated:
    a monomial product is one int addition, the empty product is 1, key
    0, and no zero coefficient is kept, which scalar_multiple's
    comparison of supports relies on."""
    out = {0: 1}
    for q in polys:
        acc: dict = {}
        for e1, c1 in out.items():
            for e2, c2 in q.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        out = {e: c for e, c in acc.items() if c}
    return out


def _slot_value(n: int, f: dict, slot: int) -> dict:
    """The bivariate polynomial f, {(i, j): int}, in the variables of one
    slot of n, on packed keys.  Every exponent of the local formulas
    enters here, so one past _MAX_EXPONENT, or negative, raises
    ValueError."""
    sx, sy = _FIELD * (slot - 1), _FIELD * (n + slot - 1)
    out = {}
    for (i, j), c in f.items():
        if not (0 <= i <= _MAX_EXPONENT and 0 <= j <= _MAX_EXPONENT):
            raise ValueError(f"exponent ({i}, {j}) outside 0..{_MAX_EXPONENT}")
        out[i << sx | j << sy] = c
    return out


def _jet_coefficient(f: dict, i: int, j: int) -> dict:
    """The (i, j) Taylor coefficient of a bivariate polynomial: the
    mixed partial of that order divided by i! j!."""
    out: dict = {}
    for (p, q), c in f.items():
        if p >= i and q >= j:
            key = (p - i, q - j)
            out[key] = out.get(key, 0) + c * comb(p, i) * comb(q, j)
    return {k: v for k, v in out.items() if v}


def _sym_over_slots(n: int, factors, slots) -> dict:
    """Unnormalized symmetrization: the sum over all assignments of the
    factors to the slots of the product of slot values."""
    total: dict = {}
    for perm in permutations(factors):
        _add_into(total, _product(
            _slot_value(n, f, slot) for f, slot in zip(perm, slots)
        ))
    return total


def _weighted_component(lam, weighted_factors) -> dict:
    """Component at lam of the orbit sum of a weighted factor tuple.

    Each factor carries the weight of the slot it may occupy; the
    component is the sum over all weight-respecting assignments of the
    product of slot values, and vanishes unless the weights match lam.
    An assignment is one assignment per weight class, so the sum is the
    product, over the classes, of the factors of a weight symmetrized
    over the slots of that value.
    """
    slots_by_value: dict = {}
    for slot, v in enumerate(lam, start=1):
        slots_by_value.setdefault(v, []).append(slot)
    factors_by_weight: dict = {}
    for w, f in weighted_factors:
        factors_by_weight.setdefault(w, []).append(f)
    if {v: len(s) for v, s in slots_by_value.items()} != {
        w: len(fs) for w, fs in factors_by_weight.items()
    }:
        return {}
    n = len(lam)
    return _product(
        _sym_over_slots(n, factors_by_weight[v], slots)
        for v, slots in slots_by_value.items()
    )


def _merged_pair_operator(mu0, level: int, components: dict) -> dict:
    """Degree-level expansion buckets of the merged-pair difference.

    higher_difference takes the order-(level+1) difference shifted by
    mu0 along the pair (1, 2) of the orbit sum, given by components
    {lam: polynomial}, on the components it combines only.  That
    polynomial is expanded around the first slot, substituting the
    second slot's variables by first-slot variables plus offsets; the
    returned mapping sends each offset exponent (i, j) with i + j = level
    to its coefficient polynomial, in which the second slot no longer
    occurs.  On packed keys the second slot's exponents p1 and q1 are
    read off by shift and mask, and moving what the offsets leave of
    them into the first slot is one addition.
    """
    order = level + 1
    n = len(mu0)
    x = {lam: components[lam] for lam, _ in _difference_support(mu0, 1, 2, order)}
    sx, sy, y1 = _FIELD, _FIELD * (n + 1), _FIELD * n  # x_2, y_2 and y_1
    buckets: dict = {}
    for e, c in higher_difference(x, mu0, (1, 2), order).items():
        p1, q1 = e >> sx & _FIELD_MASK, e >> sy & _FIELD_MASK
        rest = e - (p1 << sx) - (q1 << sy)
        for i in range(max(level - q1, 0), min(p1, level) + 1):
            j = level - i
            bucket = buckets.setdefault((i, j), {})
            key = rest + (p1 - i) + (q1 - j << y1)
            bucket[key] = bucket.get(key, 0) + c * comb(p1, i) * comb(q1, j)
    return {ij: {e: c for e, c in b.items() if c} for ij, b in buckets.items()}


def _match_constant(label: str, mine: dict, printed: dict):
    """The single rational c, a Fraction, with mine = c * printed, bucket
    by bucket."""

    def flat(buckets):
        return {(ij, e): c for ij, p in buckets.items() for e, c in p.items()}

    try:
        return scalar_multiple(flat(mine), flat(printed))
    except ValueError as exc:
        raise AssertionError(f"coefficient mismatch in {label}: {exc}") from None


def _poly_bank(shift: int):
    """Twenty distinct small bivariate polynomials, varied by shift."""
    s = shift
    return [
        {(0, 0): 1, (1, 0): 1 + s},
        {(0, 0): 2, (0, 1): 1, (1, 0): -1},
        {(0, 0): 1, (1, 1): 1, (0, 1): 2 + s},
        {(0, 0): 3, (2, 0): 1, (0, 1): 1},
        {(0, 0): 1, (0, 2): 1 + s, (1, 0): 2},
        {(0, 0): 2, (1, 0): 3, (0, 1): -1 - s, (1, 1): 1},
        {(0, 0): 1, (1, 0): -2, (1, 1): 1},
        {(0, 0): 5, (0, 1): 1, (2, 0): -1},
        {(0, 0): 1, (1, 0): 1, (0, 1): 1 + s, (2, 0): 1},
        {(0, 0): 2, (0, 1): -3, (1, 1): 1 + s},
        {(0, 0): 1, (2, 0): 2, (0, 1): 1},
        {(0, 0): 4, (1, 0): 1, (0, 2): -1},
        {(0, 0): 1, (0, 1): 2, (2, 0): 1 + s},
        {(0, 0): 3, (1, 0): -1, (0, 2): 2},
        {(0, 0): 1, (1, 1): -1, (1, 0): 2 + s},
        {(0, 0): 2, (2, 0): -2, (0, 1): 3},
        {(0, 0): 1, (0, 2): 1, (1, 0): -1 - s},
        {(0, 0): 6, (1, 0): 1, (1, 1): 1},
        {(0, 0): 1, (0, 1): -2, (2, 0): 2 + s},
        {(0, 0): 2, (1, 0): 2, (0, 1): 1 + s},
    ]


def _closed_form(n: int, terms, offsets) -> dict:
    """A closed form written in the summand factors, per offset (i, j).

    A term (c, placed, jet, family, slots) stands for c times the slot
    values of the (factor, slot) pairs placed, times the (i, j) Taylor
    coefficient of jet at slot 1, times family symmetrized over slots.
    With jet None it is the Leibniz term: each member of family takes
    the jet in turn, and the rest is symmetrized.
    """
    out = {}
    for i, j in offsets:
        total: dict = {}
        for c, placed, jet, family, slots in terms:
            base = [_slot_value(n, f, slot) for f, slot in placed]
            split = [(jet, family)] if jet is not None else [
                (g, family[:t] + family[t + 1 :]) for t, g in enumerate(family)
            ]
            for g, rest in split:
                _add_into(total, _product(base + [
                    _slot_value(n, _jet_coefficient(g, i, j), 1),
                    _sym_over_slots(n, rest, slots),
                ]), c)
        out[(i, j)] = total
    return out


def _local_cases(n: int, summands, forms) -> list:
    """(label, operator buckets, closed form) for each form, given as
    (label, mu0, level, terms), on the orbit sum of summands, each of
    whose components is built once for all the forms."""
    components: dict = {}
    for _, mu0, level, _ in forms:
        for lam, _ in _difference_support(mu0, 1, 2, level + 1):
            if lam not in components:
                comp = components[lam] = {}
                for wf in summands:
                    _add_into(comp, _weighted_component(lam, wf))
    return [
        (
            label,
            _merged_pair_operator(mu0, level, components),
            _closed_form(n, terms, [(i, level - i) for i in range(level, -1, -1)]),
        )
        for label, mu0, level, terms in forms
    ]


def _local_case_k3(n: int, shift: int) -> list:
    bank = _poly_bank(shift)
    f = bank[0]
    g1, g2 = bank[1], bank[2]
    h = bank[3:6]
    a = bank[6 : 6 + (n - 1)]
    b = bank[10 : 10 + (n - 2)]
    c = bank[13 : 13 + (n - 3)]
    summands = [
        [(3, f)] + [(0, ai) for ai in a],
        [(2, g1), (1, g2)] + [(0, bi) for bi in b],
    ]
    if n >= 3:
        summands.append([(1, hi) for hi in h] + [(0, ci) for ci in c])
    spectators = list(range(3, n + 1))
    terms = [
        (1, [(f, 1)], None, a, spectators),
        (-2, [(g1, 1)], g2, b, spectators),
        (1, [(g2, 1)], g1, b, spectators),
    ]
    return _local_cases(n, summands, [("D1_(1)(0)", (1,) + (0,) * (n - 1), 1, terms)])


def _local_cases_k4(shift: int) -> list:
    bank = _poly_bank(shift)
    f = bank[0]
    a = bank[1:4]
    g1, g2 = bank[4], bank[5]
    b = bank[6:8]
    h1, h2 = bank[8], bank[9]
    c = bank[10:12]
    kk, k2, k3 = bank[12], bank[13], bank[14]
    d = bank[15:16]
    m = bank[16:20]
    summands = [
        [(4, f)] + [(0, ai) for ai in a],
        [(3, g1), (1, g2)] + [(0, bi) for bi in b],
        [(2, h1), (2, h2)] + [(0, ci) for ci in c],
        [(2, kk), (1, k2), (1, k3)] + [(0, di) for di in d],
        [(1, mi) for mi in m],
    ]
    spectators = [3, 4]
    d1_20 = [
        (1, [(f, 1)], None, a, spectators),
        (-2, [(g1, 1)], g2, b, spectators),
        (1, [(h1, 1)], h2, c, spectators),
        (1, [(h2, 1)], h1, c, spectators),
    ]
    d1_11 = [
        (1, [(g1, 1), (g2, 3)], None, b, [4]),
        (-2, [(kk, 1), (k3, 3)], k2, d, [4]),
        (-2, [(kk, 1), (k2, 3)], k3, d, [4]),
        (1, [(k2, 1), (k3, 3)], kk, d, [4]),
        (1, [(k3, 1), (k2, 3)], kk, d, [4]),
    ]
    d2_10 = [
        (-1, [(f, 1)], None, a, spectators),
        (3, [(g1, 1)], g2, b, spectators),
        (-3, [(h1, 1)], h2, c, spectators),
        (-3, [(h2, 1)], h1, c, spectators),
        (1, [(g2, 1)], g1, b, spectators),
    ]
    return _local_cases(4, summands, [
        ("D1_(2)(0)", (2, 0, 0, 0), 1, d1_20),
        ("D1_(1)(1)", (1, 0, 1, 0), 1, d1_11),
        ("D2_(1)(0)", (1, 0, 0, 0), 2, d2_10),
    ])


def verify_invariant_local_formula(k: int) -> dict:
    """Global constants matching the merged-pair operators to their
    closed forms on orbit-sum tuples.

    For each operator the expansion-bucket computation is compared with
    its closed form, a table of terms in the summand factors evaluated
    by _closed_form; the two must agree up to a single rational,
    returned per operator label and required to be positive.  Multiple
    slot counts and factor choices must give the same constant.
    Everything runs in integer polynomials, and failures raise
    AssertionError.  The page-differential normalization differs from
    the one used here by the constant (-1)^((l+1)l/2) (l+1)! at level l.
    """
    if k == 3:
        instances = (
            case
            for n, shift in [(2, 0), (3, 0), (3, 5), (4, 0)]
            for case in _local_case_k3(n, shift)
        )
    elif k == 4:
        instances = (case for shift in (0, 3) for case in _local_cases_k4(shift))
    else:
        raise ValueError("closed forms are tabulated for k = 3 and k = 4 only")
    labels: dict = {}
    for label, mine, printed in instances:
        c = _match_constant(label, mine, printed)
        if labels.setdefault(label, c) != c:
            raise AssertionError(f"constant for {label} varies across instances")
    for label, c in labels.items():
        if c <= 0:
            raise AssertionError(f"constant for {label} is not positive: {c}")
    return labels
