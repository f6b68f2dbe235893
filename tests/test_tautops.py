"""Kernel filtration and difference-operator checks.

The two-slot cases are validated against a self-contained brute-force
oracle that expands the gluing conditions in its own coordinates
(slot-one variables plus offsets) and row-reduces with Fractions,
sharing no code with the package internals.  Graded dimensions for two
slots are validated against closed-form monomial counts, and on a grid
of sizes against the Reynolds average of an explicit ideal-power basis.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut import combinat, tautops
from hilbtaut.combinat import (
    enumerate_compositions,
    enumerate_partitions,
    m_mu,
    quotient_A0,
    quotient_B,
)
from hilbtaut.linalg import _add_into, sparse_int_rank
from hilbtaut.polyjet import PolyRing, jet_conditions
from hilbtaut.tautops import (
    EXPONENT_RULES,
    EntryCapError,
    FiltrationReport,
    _column_tables,
    _difference_support,
    _convolve,
    _counted,
    _free_point_counts,
    _jet_count,
    _match_constant,
    _merged_pair_operator,
    _multisets,
    _nkeys,
    _nullities,
    _nullity_profile,
    _orbit_pairs,
    _product,
    _shift_count,
    _slot_value,
    _stack,
    _translation_free,
    graded_dims,
    graded_totals,
    higher_difference,
    kernel_nullity,
    verify_filtration,
    verify_invariant_local_formula,
    verify_recursion,
    verify_transition,
)
from references import (
    TruncPoly,
    a_label_pairs,
    composition_stabilizer,
    degree,
    expand_around_first_slot,
    fraction_rows_to_int,
    free_point_counts_full_table,
    intersect_ideal_powers,
    membership,
    multisets_by_listing,
    one,
    pinned_jet_conditions,
    symmetrize,
    weighted_component_by_assignment,
    x_of,
    y_of,
    zero,
)


# ---------------------------------------------------------------------------
# oracles


def _dense_rank(rows):
    pivots = []
    for raw in rows:
        row = {c: Fraction(v) for c, v in raw.items() if v}
        for pc, prow in pivots:
            if pc in row:
                f = row.pop(pc)
                for c2, v2 in prow.items():
                    if c2 == pc:
                        continue
                    nv = row.get(c2, Fraction(0)) - f * v2
                    if nv:
                        row[c2] = nv
                    elif c2 in row:
                        del row[c2]
        if row:
            pc = min(row)
            inv = 1 / row[pc]
            pivots.append((pc, {c: v * inv for c, v in row.items()}))
    return len(pivots)


def brute_kernel_dims_n2(k, max_deg, invariant):
    """Cumulative kernel dimensions for two slots, from first principles.

    Components are indexed by (k - i, i); the second slot's variables are
    rewritten as first-slot variables plus offsets (w, w'), and a signed
    binomial combination of order l + 1 satisfies its condition when
    every offset coefficient of total offset degree at most l vanishes.
    Variables are ordered (x1, y1, x2, y2), unlike the package.
    """
    comps = [(k - i, i) for i in range(k + 1)]

    def swap_exponent(e):
        p0, q0, p1, q1 = e
        return (p1, q1, p0, q0)

    out = []
    total = 0
    for d in range(max_deg + 1):
        monos = [
            (p0, q0, p1, q1)
            for p0 in range(d + 1)
            for q0 in range(d + 1 - p0)
            for p1 in range(d + 1 - p0 - q0)
            for q1 in [d - p0 - q0 - p1]
        ]
        colmap = {}
        if invariant:
            for lam in comps:
                for e in monos:
                    key = (lam, e)
                    mate = ((lam[1], lam[0]), swap_exponent(e))
                    canon = min(key, mate)
                    if canon not in colmap:
                        colmap[canon] = len(colmap)
            ncols = len(colmap)

            def col(lam, e):
                return colmap[min(((lam, e), ((lam[1], lam[0]), swap_exponent(e))))]

        else:
            for lam in comps:
                for e in monos:
                    colmap[(lam, e)] = len(colmap)
            ncols = len(colmap)

            def col(lam, e):
                return colmap[(lam, e)]

        rows = {}
        for level in range(max(k - 1, 0)):
            order = level + 1
            for m0 in range(k - order + 1):
                mu = (m0, k - order - m0)
                for b in range(order + 1):
                    lam = (mu[0] + b, mu[1] + order - b)
                    cf = (-1) ** b * comb(order, b)
                    for e in monos:
                        p0, q0, p1, q1 = e
                        c = col(lam, e)
                        for i in range(p1 + 1):
                            for j in range(q1 + 1):
                                if i + j > level:
                                    continue
                                key = (level, mu, i, j, p0 + p1 - i, q0 + q1 - j)
                                row = rows.setdefault(key, {})
                                row[c] = row.get(c, Fraction(0)) + (
                                    cf * comb(p1, i) * comb(q1, j)
                                )
        rank = _dense_rank(rows.values())
        total += ncols - rank
        out.append(total)
    return tuple(out)


def reference_condition_rows(ring, block):
    """Rows of a condition block, every x-degree, grouped by total degree.

    The block lists conditions (A, degrees, order, shifts).  Each one
    gives every jet functional of I_A^m, m = degrees.stop (pinned ones
    when A ends one point past the ring), whatever u-v-degrees the
    engine keeps, each times the composition weights of the order-th
    difference along A, shifted by each mu in shifts.  Each row maps
    (composition, exponent) keys to integer weights.  This is the
    engine's row builder from before it mapped functionals straight onto
    the columns it eliminates and built only each stacked block's new
    jet degree.
    """
    by_degree = {}
    for A, degrees, order, shifts in block:
        if A[1] > ring.n:
            jets = pinned_jet_conditions(A[0], degrees.stop, ring)
        else:
            jets = jet_conditions(A, degrees.stop, ring)
        for mu in shifts:
            support = _difference_support(mu, *A, order)
            for functional in jets:
                by_degree.setdefault(sum(next(iter(functional))), []).append(
                    {(lam, e): cf * c for lam, cf in support for e, c in functional.items()}
                )
    return by_degree


def reference_columns(comps, ring, d, fold):
    """(ncols, index) over every key (lam, e) of degree d, all x-degrees.

    Unfolded, each key is its own column; folded, the sorted triples
    (lam_i, e_i, e_(n+i)) name a key's relabeling orbit.  This is the
    engine's column keying from before it keyed only 2g >= d.
    """
    cols = product(comps, ring.monomials(d))
    if not fold:
        index = {key: i for i, key in enumerate(cols)}
        return len(index), index
    n = ring.n
    ids = {}
    index = {}
    for lam, e in cols:
        index[(lam, e)] = ids.setdefault(tuple(sorted(zip(lam, e[:n], e[n:]))), len(ids))
    return len(ids), index


def invariant_columns(n, k, max_deg):
    """The folded columns of the invariant (n, k) system, d = 0..max_deg,
    as _nullity_profile plans them: the multisets of n items of weight k."""
    *_, orbits = _multisets(n, k, max_deg)
    return [row[k] for row in orbits]


def piece_columns(lam, max_deg):
    """The folded columns at the one composition lam, d = 0..max_deg, as
    graded_dims plans a piece's: its stabilizer permutes the points of
    each part value, so one multiset of monomials per value."""
    return list(reduce(_convolve, (_free_point_counts(lam.count(p), max_deg) for p in set(lam))))


def table_index(comps, n, d, fold):
    """The tables _column_tables builds over comps, one {e: column} per
    composition, as one index keyed (lam, e)."""
    tables, _ = _column_tables(comps, n, d, fold)
    return {(lam, e): col for lam in comps for e, col in tables[lam].items()}


def b_labels(n, k, level):
    """Every label of B(k, level + 1, n), as (mu, sorted pair), in
    quotient_B's order: pairs lexicographically, compositions rlex."""
    return [(mu, tuple(sorted(A))) for mu, A in quotient_B(k, level + 1, n)]


def label_block(level, labels):
    """The level-th stacked block over labels (mu, A), order = level + 1,
    one condition per label: the order-th difference along A, shifted by
    mu, imposing the jets of u-v-degree order - 1 alone."""
    order = level + 1
    return [(A, range(level, order), order, [mu]) for mu, A in labels]


def stack_labels(block):
    """The labels (mu, A) of a built block, read off each pair's shifts."""
    return [(mu, A) for A, _, _, shifts in block for mu in shifts]


def per_label(block):
    """A built block split into one condition per label, as label_block
    lists them."""
    return [(A, degrees, order, [mu]) for A, degrees, order, shifts in block for mu in shifts]


def engine_supports(block):
    """(A, support) per label of a built block, each support as the
    engine builds it, _difference_support over the condition's shifts."""
    return [(A, sorted(_difference_support(mu, *A, order)))
            for A, _, order, shifts in block for mu in shifts]


def label_supports(order, labels):
    """(A, support) per label (mu, A), rebuilt from the label alone: the
    order-th difference along A = (a0, a1) shifted by mu weights mu plus
    b at a0 and order - b at a1 by (-1)^b C(order, b)."""
    out = []
    for mu, (a0, a1) in labels:
        support = []
        for b in range(order + 1):
            step = {a0: b, a1: order - b}
            lam = tuple(m + step.get(slot, 0) for slot, m in enumerate(mu, start=1))
            support.append((lam, (-1) ** b * comb(order, b)))
        out.append(((a0, a1), sorted(support)))
    return out


def unpinned_full_profile(n, k, max_deg):
    """Per-degree nullities of the full stacked systems on all n points.

    Every pair keeps its jet conditions in the original coordinates and
    no point is pinned, so the centre of mass is solved for explicitly
    rather than factored out.  Every order through k - 1 is stacked,
    those above max_deg + 1 too, which add no row.
    """
    ring = PolyRing(n, max_deg)
    comps = enumerate_compositions(n, k)
    blocks = [label_block(level, b_labels(n, k, level)) for level in range(max(k - 1, 0))]
    cols = [_nkeys(len(comps), ring, d) for d in range(max_deg + 1)]
    return _nullities(blocks, ring, False, cols)


def restacked_profile(n, k, max_deg, invariant):
    """Every level of _nullity_profile, each ranked from scratch.

    Level l stacks the rows of the first l condition blocks, every jet
    below each block's order and every x-degree, over every column, so
    no implied row is left out.  It ranks them with a fresh
    sparse_int_rank, so no pivot is shared between levels and no row or
    column comes from the engine.  Systems are set up as in
    _nullity_profile: invariant ones over column orbits on n points,
    full ones pinned on n - 1 points and tensored with Q[x_n, y_n].
    Invariant ones impose every label of A(k, l), not only the A0 labels
    the engine keeps, and every order through k - 1 is stacked, not only
    those through max_deg + 1 that the engine builds.
    """
    comps = enumerate_compositions(n, k)
    ring = PolyRing(n if invariant else n - 1, max_deg)
    labels = a_label_pairs if invariant else b_labels
    blocks = [
        reference_condition_rows(ring, label_block(level, labels(n, k, level)))
        for level in range(max(k - 1, 0))
    ]
    profile = []
    for level in range(len(blocks) + 1):
        dims = []
        for d in range(max_deg + 1):
            ncols, colmap = reference_columns(comps, ring, d, invariant)
            rows = []
            for block in blocks[:level]:
                for row in block.get(d, []):
                    mapped = {}
                    for key, val in row.items():
                        mapped[colmap[key]] = mapped.get(colmap[key], 0) + val
                    rows.append(mapped)
            dims.append(ncols - sparse_int_rank(rows))
        if not invariant:
            dims = [
                sum((j + 1) * dims[d - j] for j in range(d + 1))
                for d in range(max_deg + 1)
            ]
        profile.append(dims)
    return profile


def engine_profile(n, k, max_deg, invariant):
    """Every level of _nullity_profile for n >= 2 and k >= 2, solved by
    the engine, called directly: _nullities over _stack's blocks of every
    order through k - 1, whatever max_deg (orders above max_deg + 1 add
    no row), over the builder's planned columns,
    pinned full systems tensored with Q[x_n, y_n].  _nullity_profile
    takes this path on three points or more."""
    ring = PolyRing(n if invariant else n - 1, max_deg)
    if invariant:
        cols = invariant_columns(n, k, max_deg)
    else:
        cols = [_nkeys(comb(n + k - 1, k), ring, d) for d in range(max_deg + 1)]
    blocks = _stack(n, k, PolyRing(ring.n, k), invariant)
    profile = _nullities(blocks, ring, invariant, cols)
    if not invariant:
        profile = [list(accumulate(accumulate(dims))) for dims in profile]
    return profile


def two_part_piece(n, mu, max_deg):
    """The cumulative graded piece of a two-part mu on n points, solved by
    the engine, called directly on its block, tensored with the symmetric
    polynomials on the n - 2 free points.  On two parts both exponent
    rules impose twice the smaller part, as _graded_block does."""
    part = _nullities([_graded_block(mu)], PolyRing(2, max_deg), True,
                      piece_columns(mu, max_deg))[1]
    return tuple(accumulate(_convolve(_free_point_counts(n - 2, max_deg), part)))


def reynolds_graded_dims(n, k, max_deg, exponent_rule):
    """Graded pieces by averaging an explicit basis over the stabilizer.

    Each ideal-power intersection gets a rational basis; every basis
    vector is averaged over the stabilizer of the padded partition, and
    the averages are ranked degree by degree.
    """
    ring = PolyRing(n, max_deg)
    out = {}
    for mu in enumerate_partitions(k, n):
        r = len(mu)
        pairs = [
            ((i, j), 2 * m_mu(mu) if exponent_rule == "uniform_2m_mu" else 2 * mu[j - 1])
            for i in range(1, r + 1)
            for j in range(i + 1, r + 1)
        ]
        basis = intersect_ideal_powers(pairs, ring)
        stab = composition_stabilizer(tuple(mu) + (0,) * (n - r))
        dims = []
        for d in range(max_deg + 1):
            index = {e: i for i, e in enumerate(ring.monomials(d))}
            rows = []
            for b in basis:
                if degree(b) == d:
                    avg = zero(ring)
                    for sigma in stab:
                        avg = avg + symmetrize(b, sigma)
                    rows.append({index[e]: c for e, c in avg.coeffs.items()})
            dims.append(sparse_int_rank(fraction_rows_to_int(rows)))
        out[tuple(mu)] = tuple(accumulate(dims))
    return out


def graded_count_n2(k, j, d):
    """Exact-degree dimension of the two-slot graded piece (k - j, j).

    In offset coordinates the ideal power is a monomial ideal, so the
    count is a sum over offset degrees; the balanced piece keeps only
    the even-offset half, which is the average with the trace of the
    slot swap (offset variables change sign, barycentric ones do not).
    """
    if j == 0:
        return comb(d + 3, 3)
    full = sum((m + 1) * (d - m + 1) for m in range(2 * j, d + 1))
    if 2 * j == k:
        trace = sum((-1) ** m * (m + 1) * (d - m + 1) for m in range(2 * j, d + 1))
        return (full + trace) // 2
    return full


# ---------------------------------------------------------------------------
# kernel dimensions


def test_invariant_kernel_spot_values():
    assert kernel_nullity(2, 2, 2, invariant=True) == (1, 5, 18)


@pytest.mark.parametrize("k,max_deg", [(0, 3), (1, 3), (2, 3), (3, 3)])
def test_kernel_matches_bruteforce_invariant(k, max_deg):
    assert kernel_nullity(2, k, max_deg, invariant=True) == brute_kernel_dims_n2(
        k, max_deg, True
    )


@pytest.mark.parametrize("k,max_deg", [(2, 3), (3, 2), (4, 2)])
def test_kernel_matches_bruteforce_full(k, max_deg):
    assert kernel_nullity(2, k, max_deg, invariant=False) == brute_kernel_dims_n2(
        k, max_deg, False
    )


def test_invariant_never_exceeds_full():
    inv = kernel_nullity(2, 3, 3, invariant=True)
    full = kernel_nullity(2, 3, 3, invariant=False)
    assert all(a <= b for a, b in zip(inv, full))


def test_condition_orbit_representatives_suffice():
    for n, k, max_deg in [(2, 4, 2), (3, 3, 2)]:
        ring = PolyRing(n, max_deg)
        comps = enumerate_compositions(n, k)
        blocks = [label_block(level, b_labels(n, k, level)) for level in range(k - 1)]
        cols = [reference_columns(comps, ring, d, True)[0] for d in range(max_deg + 1)]
        complete = _nullities(blocks, ring, True, cols)
        assert _nullity_profile(n, k, max_deg, True) == complete


def test_column_orbits_match_relabeling_action():
    ring = PolyRing(3, 2)
    comps = [(2, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 2, 0), (0, 0, 2)]
    base = {}
    vals = iter(range(1, 1000))
    for lam in comps:
        base[lam] = TruncPoly(
            ring, {e: Fraction(next(vals)) for e in ring.monomials(2)}
        )
    folded = None
    for sigma in [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)]:
        term = symmetrize(base, sigma)
        if folded is None:
            folded = term
        else:
            folded = {
                lam: folded[lam] + term[lam] for lam in folded
            }
    monos = ring.monomials(2)
    count = invariant_columns(3, 2, 2)[2]
    index = table_index(comps, 3, 2, True)
    upper = [(lam, e) for lam in comps for e in monos if 2 * sum(e[:3]) >= 2]
    assert set(index) == set(upper)
    orbit_values = {}
    for lam, e in upper:
        v = folded[lam].coeffs.get(e, Fraction(0))
        oid = index[(lam, e)]
        assert orbit_values.setdefault(oid, v) == v

    def image(lam, e, sigma):
        return (
            tuple(lam[s - 1] for s in sigma),
            tuple(e[s - 1] for s in sigma) + tuple(e[3 + s - 1] for s in sigma),
        )

    s3 = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)]
    orbits = set()
    for lam in comps:
        for e in monos:
            images = {image(lam, e, sigma) for sigma in s3}
            if (lam, e) in index:
                assert {index[col] for col in images} == {index[(lam, e)]}
            orbits.add(frozenset(images))
    # every orbit counts, the unkeyed 2g < d ones through their x <-> y mirror
    assert count == len(orbits)

    mu_bar = (2, 0, 0)
    stab = composition_stabilizer(mu_bar)
    stab_orbits = {
        frozenset(image(mu_bar, e, sigma)[1] for sigma in stab) for e in monos
    }
    graded_count = piece_columns(mu_bar, 2)[2]
    assert graded_count == len(stab_orbits)


def test_condition_rows_have_integer_weights(monkeypatch):
    n, k, max_deg = 3, 4, 3
    ring, pinned = PolyRing(n, max_deg), PolyRing(n - 1, max_deg)
    functionals = []
    for order in range(1, k):
        for A in [(1, 2), (1, 3), (2, 3)]:
            functionals += jet_conditions(A, order, ring)
        for a in range(1, n):
            functionals += pinned_jet_conditions(a, order, pinned)
    for shape, invariant in [(ring, True), (pinned, False)]:
        for block in _stack(n, k, shape, invariant):
            for rows in reference_condition_rows(shape, block).values():
                functionals += rows
    assert functionals
    for functional in functionals:
        assert all(type(c) is int for c in functional.values())
    # and the engine's own rows, as elimination receives them
    received = []
    rank = tautops.sparse_int_rank

    def recorded(rows, pivots=None):
        rows = list(rows)
        received.extend(v for row in rows for v in row.values())
        return rank(rows, pivots)

    monkeypatch.setattr(tautops, "sparse_int_rank", recorded)
    kernel_nullity(n, k, max_deg, invariant=True)
    kernel_nullity(n, k, max_deg, invariant=False)
    graded_dims(n, k, max_deg)
    assert received
    assert all(type(v) is int for v in received)
    assert all(received)


def _graded_block(mu):
    """The uniform-rule condition block of the graded piece mu, as graded_dims
    builds it on the l(mu) points of mu: one pair per orbit of the stabilizer
    of mu, named by the two parts, taken as the first pair of those parts.  A
    pair of equal parts keeps the even u-v-degrees below the exponent alone."""
    pairs = {}
    for i, j in combinations(range(1, len(mu) + 1), 2):
        pairs.setdefault((mu[i - 1], mu[j - 1]), (i, j))
    return [(A, range(0, 2 * m_mu(mu), 2 if p == q else 1), 0, [mu])
            for (p, q), A in pairs.items()]


@pytest.mark.parametrize(
    "n,k,max_deg,invariant",
    [(2, 3, 4, True), (2, 4, 4, False), (3, 3, 3, True), (3, 4, 3, False), (4, 3, 2, True),
     (3, 4, 3, True)],
)
def test_row_counts_from_sizes_match_built_rows(n, k, max_deg, invariant):
    # The plan counts, per condition and per u-v-degree s it keeps, the
    # reference rows of order s + 1 less those of order s: at order o, the
    # pairs times the shifts (_shift_count) times the jets of u-v-degree
    # o - 1 (_jet_count).
    def rows_below(A, jets, order, mu):
        rows = reference_condition_rows(ring, [(A, range(jets), order, [mu])]) if jets else {}
        return {d: {frozenset(row.items()) for row in r} for d, r in rows.items()}

    ring = PolyRing(n if invariant else n - 1, max_deg)
    blocks = _stack(n, k, ring, invariant)
    pairs = 1 if invariant else comb(n, 2)
    conditions = [(range(o - 1, o), pairs * _shift_count(n, k, o, invariant))
                  for o in range(1, len(blocks) + 1)]
    if invariant:
        # graded-style conditions, every u-v-degree below their exponent, on n
        # slots: (2, 1, ...), and (2, 2), whose pair of equal parts steps by
        # two.  They join the first block.
        for mu in [(2,) + (1,) * (k - 2)] + [(2, 2)] * (k == 4):
            padded = mu + (0,) * (n - len(mu))
            graded = [(A, degrees, 0, [padded]) for A, degrees, *_ in _graded_block(mu)]
            blocks[0] += graded
            conditions += [(degrees, 1) for _, degrees, _, _ in graded]
        assert k != 4 or blocks[0][-1][1] == range(0, 4, 2)
    expected = [0] * (max_deg + 1)
    for block in blocks:
        for A, degrees, order, shifts in block:
            for mu in shifts:
                for s in degrees:
                    kept = rows_below(A, s + 1, order, mu)
                    implied = rows_below(A, s, order, mu)
                    for d in range(max_deg + 1):
                        expected[d] += len(kept.get(d, set()) - implied.get(d, set()))
    # over no columns, the last level is minus every row of the stack
    assert [-c for c in _counted(conditions, ring, [0] * (max_deg + 1), 1, "stack")[-1]] == expected
    for points in (1, 2, 3):
        ring = PolyRing(points, 4)
        for order in range(1, 5):
            for jets in [pinned_jet_conditions(points, order, ring)] + (
                [jet_conditions((1, points), order, ring)] if points > 1 else []
            ):
                degrees = [sum(next(iter(f))) for f in jets]
                for d in range(5):
                    assert degrees.count(d) == _jet_count(ring, range(order), d)


def test_row_cap_refuses_before_rows_are_built(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("rows built before the cap was checked")

    monkeypatch.setattr(tautops, "jet_conditions", unbuilt)
    monkeypatch.setattr(tautops, "_jet_functionals", unbuilt)
    with pytest.raises(EntryCapError, match="15840 x 1716"):
        kernel_nullity(12, 2, 2, invariant=False)


@pytest.mark.parametrize("args,shape", [
    ((4, 4, 4, False), "(4,4): 3888 x 1960"),
    ((4, 5, 5, True), "(4,5): 3696 x 2180"),
    ((4, 6, 4, True), "(4,6): 3028 x 1401"),
])
def test_row_cap_counts_the_trimmed_stack(monkeypatch, args, shape):
    # The cap counts the rows the stack solves, each block's new jet degree
    # alone; invariant stacks count the A0 labels alone.
    def unbuilt(*args):
        raise AssertionError("rows built before the cap was checked")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(tautops, "_jet_functionals", unbuilt)
    with pytest.raises(EntryCapError, match=re.escape(f"kernel system {shape} matrix")):
        kernel_nullity(*args)


@pytest.mark.parametrize("system", ["invariant", "full", "graded"])
def test_nullities_build_only_the_upper_half(monkeypatch, system):
    # Every row is looked up in the tables _column_tables builds, so tables
    # holding only 2g >= d keys admit no row of 2g < d.
    returned = []
    build, solve = tautops._column_tables, tautops._nullities

    def checked(comps, n, d, fold):
        tables, ids = build(comps, n, d, fold)
        returned.append((n, d, tables))
        return tables, ids

    def planned(blocks, ring, fold, cols):
        # the builder's column counts are the reference's, over every key:
        # a graded piece's at its partition, a kernel's at every composition
        (_, _, order, (mu, *_)), *_ = blocks[0]
        comps = [mu] if order == 0 else enumerate_compositions(len(mu), sum(mu) + order)
        assert cols == [reference_columns(comps, ring, d, fold)[0]
                        for d in range(ring.max_deg + 1)]
        return solve(blocks, ring, fold, cols)

    monkeypatch.setattr(tautops, "_column_tables", checked)
    monkeypatch.setattr(tautops, "_nullities", planned)
    if system == "graded":
        graded_dims(3, 4, 4)
    else:
        kernel_nullity(3, 4, 3, invariant=system == "invariant")
    keyed = [2 * sum(e[:points]) >= d
             for points, d, tables in returned for table in tables.values() for e in table]
    assert keyed and all(keyed)


@pytest.mark.parametrize("system", ["invariant", "pinned", "graded"])
def test_nullities_build_only_the_upper_half_functionals(monkeypatch, system):
    # Each (pair, degrees) is built once per degree and call, over the keys
    # of 2g >= d alone, and of u-v-degree in degrees: for each u-v-degree s
    # in degrees (o - 1 alone for a kernel block of order o, every one or
    # every even one below its exponent for a graded one), as many
    # functionals as the reference has there below s + 1, less those below s.
    built = []
    build = tautops._jet_functionals

    def recorded(A, degrees, ring, keys):
        functionals = build(A, degrees, ring, keys)
        built.extend((ring.n, f) for f in functionals)
        return functionals

    monkeypatch.setattr(tautops, "_jet_functionals", recorded)
    n, k, max_deg = 3, 4, 3
    if system == "graded":
        # the two-part pieces, (3, 1) and (2, 2), are counted, not built, so
        # their blocks go to the engine directly
        pieces = graded_dims(n, k, max_deg)
        for mu in pieces:
            if len(mu) == 2:
                assert two_part_piece(n, mu, max_deg) == pieces[mu]
        systems = [(PolyRing(len(mu), max_deg), [_graded_block(mu)])
                   for mu in enumerate_partitions(k, n)]
    else:
        kernel_nullity(n, k, max_deg, invariant=system == "invariant")
        ring = PolyRing(n if system == "invariant" else n - 1, max_deg)
        systems = [(ring, _stack(n, k, ring, system == "invariant"))]

    def upper_half_jets(A, order, ring):
        if order == 0:
            return 0
        if A[1] > ring.n:
            jets = pinned_jet_conditions(A[0], order, ring)
        else:
            jets = jet_conditions(A, order, ring)
        keys = [next(iter(f)) for f in jets]
        return sum(2 * sum(e[: ring.n]) >= sum(e) for e in keys)

    expected = 0
    for ring, blocks in systems:
        for A, degrees in {(A, degrees) for block in blocks for A, degrees, *_ in block}:
            for s in degrees:
                expected += upper_half_jets(A, s + 1, ring) - upper_half_jets(A, s, ring)
    assert built and len(built) == expected
    for points, functional in built:
        assert all(2 * sum(e[:points]) >= sum(e) for e in functional)


def _built_keys(calls):
    """The key of every functional of each recorded build (A, ring, d,
    functionals).  jet_conditions lists every jet of A, of any u-v-degree,
    by degree and then key, and a pinned functional is {key: 1}."""
    out = []
    for A, ring, d, functionals in calls:
        if A[1] > ring.n:
            built = [next(iter(f)) for f in functionals]
        else:
            keys = [e for deg in range(ring.max_deg + 1) for e in sorted(ring.monomials(deg))]
            jets = jet_conditions(A, ring.max_deg + 1, ring)
            assert len(jets) == len(keys)
            keyed = {frozenset(f.items()): e for f, e in zip(jets, keys)}
            built = [keyed[frozenset(f.items())] for f in functionals]
        out.append((A, ring, d, sorted(built)))
    return out


def _upper_keys(ring, A, d, degrees):
    """The degree-d keys of x-degree g, 2g >= d, and u-v-degree at A in degrees."""
    m, a = ring.n, A[0] - 1
    return [e for e in sorted(ring.monomials(d))
            if 2 * sum(e[:m]) >= d and e[a] + e[m + a] in degrees]


# Pascal's rule D^o_mu = D^(o-1)_(mu+e_a1) - D^(o-1)_(mu+e_a0) makes every
# lower jet of a stacked kernel block implied by the block below, so the
# block of order o builds the jets of u-v-degree o - 1 alone.  A graded
# piece is a single block and builds every u-v-degree below its exponent,
# or only the even ones at a pair of equal parts.
@pytest.mark.parametrize("system", ["invariant", "pinned", "graded"])
def test_stacked_blocks_build_only_their_new_jet_degree(monkeypatch, system):
    calls = []
    build = tautops._jet_functionals

    def recorded(A, degrees, ring, keys):
        keys = list(keys)
        functionals = build(A, degrees, ring, keys)
        calls.append((A, ring, sum(keys[0]), functionals))
        return functionals

    monkeypatch.setattr(tautops, "_jet_functionals", recorded)
    n, k = 3, 4
    if system == "graded":
        assert _graded_block((2, 2))[0][1] == range(0, 4, 2)  # u-v-degrees 0 and 2
        for mu, e in [((2, 2), 4), ((2, 1, 1), 2)]:
            calls.clear()
            block = _graded_block(mu)
            kept = {A: degrees for A, degrees, *_ in block}
            assert all(degrees.stop == e for degrees in kept.values())
            _nullities([block], PolyRing(len(mu), 4), True, piece_columns(mu, 4))
            assert {d for _, _, d, _ in calls} == set(range(5))
            for A, ring, d, built in _built_keys(calls):
                assert built == _upper_keys(ring, A, d, kept[A])
        return
    kernel_nullity(n, k, 3, invariant=system == "invariant")
    # Each pair is built once per block and degree, blocks in order, so the
    # j-th build of (A, d) is the block of order j + 1.
    builds = {}
    for A, ring, d, built in _built_keys(calls):
        j = builds[A, d] = builds.get((A, d), -1) + 1
        assert built == _upper_keys(ring, A, d, range(j, j + 1))
    assert builds and set(builds.values()) == {k - 2}
    assert any(functionals for *_, functionals in calls)


# Folded and unfolded, on n points and pinned on n - 1, and over one padded
# partition as graded_dims keys them: n <= 4, k <= 4, d <= 5, and d <= 4
# where n or k is 5.  Each composition's table numbers its keys as the
# reference index over every key does, renumbered by first appearance over
# the keys of 2g >= d, compositions outer and exponents in the ring's order.
# The planned column count is the reference's over every key: unfolded
# (_nkeys) and folded on n points (the multisets of n items of weight k
# over all compositions, and over one padded partition the product over its
# part values of the free-point counts).
def test_column_count_mirrors_the_upper_half():
    for n in range(1, 6):
        for k in range(6):
            comps = enumerate_compositions(n, k)
            max_deg = 4 if 5 in (n, k) else 5
            for points in {n, n - 1} - {0}:
                ring = PolyRing(points, max_deg)
                column_sets = [comps]
                if points == n:
                    column_sets += [[tuple(mu) + (0,) * (n - len(mu))]
                                    for mu in enumerate_partitions(k, n)]
                for columns in column_sets:
                    folded = (invariant_columns(n, k, max_deg) if columns is comps
                              else piece_columns(columns[0], max_deg))
                    for d in range(max_deg + 1):
                        upper = {(lam, e) for lam in columns for e in ring.monomials(d)
                                 if 2 * sum(e[:points]) >= d}
                        for fold in (True, False):
                            count, index = reference_columns(columns, ring, d, fold)
                            if not fold:
                                assert _nkeys(len(columns), ring, d) == count
                            elif points == n:
                                assert folded[d] == count
                            numbered = table_index(columns, points, d, fold)
                            assert set(numbered) == upper
                            renumbered = {}
                            assert numbered == {
                                (lam, e): renumbered.setdefault(index[lam, e], len(renumbered))
                                for lam in columns for e in ring.monomials(d) if (lam, e) in upper
                            }


# The plan's counts against what the engine lists, n <= 4, k <= 6, d <= 4:
# folded columns (the multisets of n items of weight k) are the orbits a
# built table keys, each of 2g > d twice for its x <-> y mirror; unfolded
# ones (_nkeys) are its keys, pinned on n - 1 points; and each order's shifts
# (_shift_count) are those _stack lists, in both modes.
def test_planned_counts_match_what_is_listed():
    def mirrored(ids, d, xdeg):
        return sum(1 if 2 * xdeg(key) == d else 2 for key in ids)

    for n in range(1, 5):
        for k in range(7):
            keyed = [mu + (0,) * (n - len(mu)) for mu in enumerate_partitions(k, n)]
            folded = invariant_columns(n, k, 4)
            comps = enumerate_compositions(n, k)
            pinned = PolyRing(max(n - 1, 1), 4)
            for d in range(5):
                _, ids = _column_tables(keyed, n, d, True)
                assert folded[d] == mirrored(ids, d, lambda key: sum(t[1] for t in key))
                _, ids = _column_tables(comps, pinned.n, d, False)
                assert _nkeys(len(comps), pinned, d) == mirrored(
                    ids, d, lambda key: sum(key[1][:pinned.n]))
            if n > 1:
                for invariant in (True, False):
                    blocks = _stack(n, k, PolyRing(n, k), invariant)
                    assert [_shift_count(n, k, o, invariant) for o in range(1, k)] == [
                        len(block[0][3]) for block in blocks]


# A table keying more columns than the builder planned is an internal fault,
# not a refusal.
def test_tables_past_the_planned_columns_are_a_fault():
    mu = (2, 1)
    block = _graded_block(mu)
    cols = piece_columns(mu, 2)
    assert _nullities([block], PolyRing(2, 2), True, cols)[0] == cols
    # degree 1 keys the two exponents x_1 and x_2 of x-degree 1
    with pytest.raises(RuntimeError, match="degree 1 keys 2 columns, more than the 1") as fault:
        _nullities([block], PolyRing(2, 2), True, cols[:1] + [1] + cols[2:])
    assert not isinstance(fault.value, EntryCapError)


# The engine builds the tables of the compositions its supports name, and no
# other, in reverse lexicographic order, every degree: at (4, 4), 11 of the 35
# compositions, 5 of them non-increasing.  In that order each relabeling orbit
# first appears at its non-increasing member, so an invariant system numbers
# its columns at partitions of k it never lists.  A graded piece names its
# partition alone.
def test_folded_columns_key_only_representatives_and_named_compositions(monkeypatch):
    returned = []
    build = tautops._column_tables

    def recorded(comps, n, d, fold):
        tables, ids = build(comps, n, d, fold)
        returned.append((list(comps), n, d, ids))
        return tables, ids

    monkeypatch.setattr(tautops, "_column_tables", recorded)
    n, k = 4, 4
    kernel_nullity(n, k, 3, invariant=True)
    named = {lam for block in _stack(n, k, PolyRing(n, 3), True)
             for A, _, order, shifts in block for mu in shifts
             for lam, _ in _difference_support(mu, *A, order)}
    comps = set(enumerate_compositions(n, k))
    sorted_comps = {lam for lam in comps if list(lam) == sorted(lam, reverse=True)}
    assert len(comps) == 35 and len(sorted_comps) == 5
    assert len(named) == 11 and sorted_comps <= named
    assert [columns for columns, *_ in returned] == [sorted(named, reverse=True)] * 4
    for columns, points, d, ids in returned:
        # an orbit is named by its keys' sorted triples: each is numbered
        # where it first appears, at a non-increasing composition
        first = {}
        for lam in columns:
            for e in tautops._upper_half(points, d):
                first.setdefault(tuple(sorted(zip(lam, e[:points], e[points:]))), lam)
        assert list(first) == list(ids)
        assert all(list(lam) == sorted(lam, reverse=True) for lam in first.values())
    returned.clear()
    graded_dims(n, k, 3)
    assert {tuple(columns) for columns, *_ in returned} == {((2, 1, 1),), ((1, 1, 1, 1),)}


# Neither builder lists the compositions or partitions of k to number its
# columns: an invariant kernel lists no partition, and a full one lists the
# compositions of k - o alone, its shifts.
def test_kernels_list_no_column_keys(monkeypatch):
    calls = []

    def spied(listing):
        def wrapped(*args):
            calls.append(args)
            return listing(*args)
        return wrapped

    monkeypatch.setattr(combinat, "_partitions", spied(combinat._partitions))
    monkeypatch.setattr(tautops, "_partitions", spied(combinat._partitions), raising=False)
    assert kernel_nullity(4, 4, 3, invariant=True) == (1, 5, 21, 73)
    assert calls == []
    monkeypatch.setattr(tautops, "enumerate_compositions", spied(enumerate_compositions))
    kernel_nullity(3, 4, 3, invariant=False)
    assert sorted(calls) == [(3, 4 - o) for o in (3, 2, 1)]


# Every level ranked from rows built here, per x-degree block: invariant and
# pinned full (3, 4, 3), unpinned (3, 3, 3), one graded piece at (3, 4, 4).
@pytest.mark.parametrize("system", ["invariant", "pinned", "unpinned", "graded"])
def test_x_degree_blocks_are_independent_and_mirror(system):
    if system == "graded":
        mu = (2, 1, 1)
        ring, comps, fold, blocks = PolyRing(3, 4), [mu], True, [_graded_block(mu)]
    else:
        n, k = (3, 3) if system == "unpinned" else (3, 4)
        ring = PolyRing(n - 1 if system == "pinned" else n, 3)
        comps, fold = enumerate_compositions(n, k), system == "invariant"
        blocks = _stack(n, k, ring, fold)
    built = [reference_condition_rows(ring, block) for block in blocks]
    for d in range(ring.max_deg + 1):
        _, colmap = reference_columns(comps, ring, d, fold)
        for level in range(1, len(built) + 1):
            by_g = {}
            for rows in built[:level]:
                for row in rows.get(d, ()):
                    xdegs = {sum(e[: ring.n]) for _, e in row}
                    assert len(xdegs) == 1
                    mapped = {}
                    for key, val in row.items():
                        mapped[colmap[key]] = mapped.get(colmap[key], 0) + val
                    by_g.setdefault(xdegs.pop(), []).append(mapped)
            cols = {g: {c for row in rows for c in row} for g, rows in by_g.items()}
            for g in cols:
                for h in cols:
                    assert g == h or not cols[g] & cols[h]
            ranks = {g: sparse_int_rank(rows) for g, rows in by_g.items()}
            for g in range(d + 1):
                assert ranks.get(g, 0) == ranks.get(d - g, 0), (system, d, level, g)
            assert any(ranks.values())


def test_kernel_resource_cap(monkeypatch):
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "10")
    with pytest.raises(RuntimeError, match="cap"):
        kernel_nullity(2, 3, 3, invariant=False)


def test_filtration_resource_cap(monkeypatch):
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "10")
    with pytest.raises(EntryCapError, match="cap"):
        verify_filtration(2, 3, 3)


# The key table is checked from sizes by the builder of a system, once, at
# max_deg, where it is largest (_nullity_profile, graded_dims); _nullities
# and _column_tables check nothing.
def test_column_orbit_keys_are_capped(monkeypatch):
    # the invariant (3, 2) system at degree 1: 6 compositions x 6 monomials,
    # keyed by 3 triples each
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "107")
    ring = PolyRing(3, 1)
    assert invariant_columns(3, 2, 1) == [2, 8]
    with pytest.raises(EntryCapError, match="column orbit keys: 36 x 3"):
        kernel_nullity(3, 2, 1, invariant=True)
    assert _nullities([], ring, True, [2, 8]) == [[2, 8]]
    assert _column_tables([(2, 0, 0), (1, 1, 0)], 3, 1, True)[1]
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "108")
    assert kernel_nullity(3, 2, 1, invariant=True) == (1, 5)
    # the graded piece (2) on one point at degree 5: its 6 exponents, where
    # its free-point table, M(0, .), is 1 x 6
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "5")
    with pytest.raises(EntryCapError, match="column orbit keys: 6 x 1"):
        graded_dims(1, 2, 5)
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "6")
    assert graded_dims(1, 2, 5) == {(2,): (1, 3, 6, 10, 15, 21)}


def test_key_table_refused_exactly_when_over_the_cap_at_max_degree():
    # A table is checked at degree 2^bits, bits the cap's bit length, or on
    # more variables than bits at degree bits, when that is below max-degree:
    # it is already over the cap there.
    for cap in (1, 7, 100, 5000):
        for points in range(1, 9):
            for max_deg in range(12):
                for ncomps, slots in ((1, points), (3, points + 1)):
                    ring = PolyRing(points, max_deg)
                    keys = ncomps * comb(2 * points + max_deg - 1, max_deg)
                    if keys * slots > cap:
                        with pytest.raises(EntryCapError, match="^keys: "):
                            tautops._check_keys(ncomps, ring, slots, cap, "keys")
                    else:
                        tautops._check_keys(ncomps, ring, slots, cap, "keys")


def test_unfolded_column_keys_are_capped(monkeypatch):
    # one rule, folded or not: the full (3, 2) system at degree 1, pinned on
    # 2 points, keys 6 compositions x 4 monomials of 3 slots each, and its
    # degree-1 stack is refused next, once the key table passes
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "71")
    ring = PolyRing(3, 1)
    comps = enumerate_compositions(3, 2)
    cols = [_nkeys(len(comps), ring, d) for d in range(2)]
    assert cols == [6, 36]
    with pytest.raises(EntryCapError, match="column keys: 24 x 3"):
        kernel_nullity(3, 2, 1, invariant=False)
    assert _nullities([], ring, False, cols) == [[6, 36]]
    # 6 compositions times the 3 exponents of x-degree 1, the mirror unkeyed
    assert len(_column_tables(comps, 3, 1, False)[1]) == 18
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "72")
    with pytest.raises(EntryCapError, match=re.escape("kernel system (3,2): 18 x 24")):
        kernel_nullity(3, 2, 1, invariant=False)


def test_full_columns_count_every_slot(monkeypatch):
    # pinned full systems key n-slot compositions over n - 1 points
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "35")
    with pytest.raises(EntryCapError, match="column keys: 12 x 3"):
        kernel_nullity(3, 1, 1, invariant=False)
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "36")
    assert kernel_nullity(3, 1, 1, invariant=False) == (3, 21)


@pytest.mark.parametrize("raw", ["lots", "2.5", "", "0", "-3"])
def test_kernel_cap_rejects_bad_value(monkeypatch, raw):
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", raw)
    with pytest.raises(ValueError, match=f"HILBTAUT_MAX_MATRIX_ENTRIES.*{raw!r}"):
        kernel_nullity(2, 3, 3, invariant=False)


@pytest.mark.parametrize(
    "n,k,max_deg",
    [(2, k, 4) for k in range(7)]
    + [(3, 3, 3), (3, 4, 3), (4, 3, 2), (1, 0, 3), (1, 1, 3), (1, 3, 3), (3, 0, 2), (3, 1, 2),
       (2, 7, 2), (3, 5, 1)],
)
def test_pinned_full_profile_matches_unpinned(n, k, max_deg):
    assert _nullity_profile(n, k, max_deg, False) == unpinned_full_profile(
        n, k, max_deg
    )


# The five kernel-vs-graded configurations and the first exploratory size
# (3, 5, 4) in both modes, four-point systems (full (4, 3, 3) is over the
# default cap): (4, 3, 3), the kernel workload's (4, 4, 3) and exploratory
# (4, 5, 3), the kernel workload's (2, 6, 6) in both modes, and invariant
# (5, 4, 4), which the cap admits only counting the trimmed stack; and
# (2, 6, 1) and (3, 5, 2), whose orders above max_deg + 1 the engine does
# not build.  The restacked side builds every jet below each order, and
# every order, so this checks the engine's trimmed stack level by level.
@pytest.mark.parametrize(
    "n,k,max_deg,invariant",
    [
        (n, k, max_deg, invariant)
        for n, k, max_deg in [(2, 2, 4), (2, 3, 4), (2, 4, 4), (3, 3, 3), (3, 4, 3), (3, 5, 4),
                              (2, 6, 1), (3, 5, 2)]
        for invariant in (True, False)
    ]
    + [(4, 3, 3, True), (4, 4, 3, True), (4, 5, 3, True), (2, 6, 6, True), (2, 6, 6, False),
       (5, 4, 4, True)],
)
def test_every_level_matches_restacked_ranks(n, k, max_deg, invariant):
    assert _nullity_profile(n, k, max_deg, invariant) == restacked_profile(
        n, k, max_deg, invariant
    )


def test_rep_pairs_are_the_a_labels_off_the_swap_diagonal():
    # A0 drops exactly the labels of A whose two on-pair parts are equal;
    # the engine lists the rest in composition order, not in A0's.  Only a
    # system with a pair, n >= 2, is stacked.
    for n in range(2, 5):
        for k in range(7):
            blocks = list(_stack(n, k, PolyRing(n, max(k - 2, 0)), True))
            assert len(blocks) == max(k - 1, 0)
            for level, block in enumerate(blocks):
                kept = stack_labels(block)
                assert per_label(block) == label_block(level, kept)
                every = a_label_pairs(n, k, level)
                off_diagonal = [label for label in every if label[0][0] != label[0][1]]
                assert sorted(kept) == sorted(off_diagonal)
                assert sorted(engine_supports(block)) == sorted(
                    label_supports(level + 1, off_diagonal))


def test_full_labels_are_the_b_labels_in_their_order(monkeypatch):
    # every pair a0 < a1 times every composition of k - order, as
    # quotient_B lists them; the raised cap only admits the size checks
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", str(10**18))
    for n in range(1, 7):
        for k in range(8):
            blocks = list(_stack(n, k, PolyRing(n, max(k - 2, 0)), False))
            assert [per_label(block) for block in blocks] == [
                label_block(level, b_labels(n, k, level)) for level in range(max(k - 1, 0))]
            assert [engine_supports(block) for block in blocks] == [
                label_supports(level + 1, b_labels(n, k, level))
                for level in range(max(k - 1, 0))]


# An order above max_deg + 1 imposes no jet through max_deg, so neither
# mode builds its labels or supports, and the levels above repeat the last.
# verify_filtration's graded pieces are conditions of order 0.  On two
# points nothing is built, so there the engine is called directly on the
# systems verify_filtration(2, 6, 1) counts, and agrees with its report.
def test_orders_above_max_degree_plus_one_are_not_built(monkeypatch):
    orders = set()
    real = tautops._difference_support

    def recorded(mu, a0, a1, order):
        orders.add(order)
        return real(mu, a0, a1, order)

    monkeypatch.setattr(tautops, "_difference_support", recorded)
    assert kernel_nullity(3, 12, 2, invariant=True) == (1, 5, 21)
    assert orders == {1, 2, 3}
    orders.clear()
    assert kernel_nullity(3, 12, 2, invariant=False) == (1, 9, 48)
    assert orders == {1, 2, 3}
    orders.clear()
    report = verify_filtration(2, 6, 1)
    assert not orders
    ring = PolyRing(2, 1)
    _nullities(_stack(2, 6, ring, True), ring, True, invariant_columns(2, 6, 1))
    _nullities(_stack(2, 6, PolyRing(1, 1), False), PolyRing(1, 1), False,
               [_nkeys(7, PolyRing(1, 1), d) for d in range(2)])
    pieces = {mu: two_part_piece(2, mu, 1) for mu in report.graded if len(mu) == 2}
    assert orders == {0, 1, 2}
    assert report.full_nullities == ((7, 35), (1, 17), (1, 7), (1, 7), (1, 7), (1, 7))
    assert report.invariant_nullities == ((4, 18), (1, 9), (1, 5), (1, 5), (1, 5), (1, 5))
    for invariant, rows in [(True, report.invariant_nullities), (False, report.full_nullities)]:
        assert [tuple(accumulate(dims)) for dims in engine_profile(2, 6, 1, invariant)] == list(rows)
    assert pieces and all(report.graded[mu] == dims for mu, dims in pieces.items())
    assert report.passed and not report.exploratory


# With k < 2 no order imposes a jet, so no pair is listed: at k = 0 the
# key table at max_deg 0 admits up to 2,000,000 points, whose pairs it does
# not bound.
def test_systems_without_an_order_list_no_pair(monkeypatch):
    def unlisted(*args):
        raise AssertionError("pairs listed with no order")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(tautops, "combinations", unlisted)
    for invariant in (True, False):
        assert kernel_nullity(1000, 1, 0, invariant=invariant) == ((1,) if invariant else (1000,))
        assert kernel_nullity(3000, 0, 0, invariant=invariant) == (1,)


@pytest.mark.parametrize("n,k,max_deg", [(3, 4, 3), (3, 5, 4), (4, 4, 3), (2, 6, 6)])
def test_invariant_rows_reaching_elimination_are_never_empty(monkeypatch, n, k, max_deg):
    received = []
    rank = tautops.sparse_int_rank

    def recorded(rows, pivots=None):
        rows = list(rows)
        received.extend(rows)
        return rank(rows, pivots)

    monkeypatch.setattr(tautops, "sparse_int_rank", recorded)
    if n == 2:  # counted by kernel_nullity: the engine is called directly
        engine_profile(n, k, max_deg, True)
    else:
        kernel_nullity(n, k, max_deg, invariant=True)
    assert received
    assert all(any(row.values()) for row in received)


# A system of one pair on its own two points is counted, not eliminated:
# its rows are independent, so each level is its columns less its rows.
# The count against the engine called directly, every level: the kernel at
# n = 2 in both modes, k <= 12, max_deg <= 8, and each two-part piece of
# graded_dims under both rules, n <= 5, k <= 8, through degree 4.
def test_two_point_systems_count_what_the_engine_solves():
    for invariant in (True, False):
        for k in range(2, 13):
            for max_deg in range(9):
                assert _nullity_profile(2, k, max_deg, invariant) == engine_profile(
                    2, k, max_deg, invariant), (invariant, k, max_deg)
    checked = 0
    for n in range(2, 6):
        for k in range(2, 9):
            for rule in EXPONENT_RULES:
                for mu, dims in graded_dims(n, k, 4, exponent_rule=rule).items():
                    if len(mu) == 2:
                        assert dims == two_part_piece(n, mu, 4), (n, k, rule, mu)
                        checked += 1
    assert checked == 2 * 4 * sum(k // 2 for k in range(2, 9))


# ... and reaches no engine: no table, no row, no elimination.  A kernel at
# n = 2, verify_filtration at n = 2, and graded_dims at n = 2, whose pieces
# have at most two parts, call none of _nullities, _column_tables or
# sparse_int_rank; at n = 3 to 5 graded_dims solves the pieces of three
# parts or more alone.
def test_two_point_systems_run_no_engine(monkeypatch):
    solved = []

    def unreached(*args):
        raise AssertionError("a two-point system reached the engine")

    def recorded(blocks, ring, fold, cols):
        solved.extend(mu for block in blocks for _, _, _, shifts in block for mu in shifts)
        return solve(blocks, ring, fold, cols)

    solve = tautops._nullities
    for name in ("_nullities", "_column_tables", "sparse_int_rank"):
        monkeypatch.setattr(tautops, name, unreached)
    for k in range(2, 13):
        for max_deg in (0, 4, 8):
            for invariant in (True, False):
                kernel_nullity(2, k, max_deg, invariant=invariant)
            for rule in EXPONENT_RULES:
                graded_dims(2, k, max_deg, exponent_rule=rule)
    for k in range(1, 5):
        verify_filtration(2, k, 4)
    monkeypatch.setattr(tautops, "_nullities", recorded)
    monkeypatch.setattr(tautops, "_column_tables", _column_tables)
    monkeypatch.setattr(tautops, "sparse_int_rank", sparse_int_rank)
    for n in range(3, 6):
        for k in range(2, 9):
            for rule in EXPONENT_RULES:
                graded_dims(n, k, 4, exponent_rule=rule)
    assert solved and all(len(mu) >= 3 for mu in solved)


# The plan counts each level's rows once per degree, and answers from that
# count: one _jet_count call per (condition, degree), for a kernel at n = 2
# in both modes and for a graded piece of two parts.
def test_two_point_systems_count_each_level_once(monkeypatch):
    calls = []
    count = tautops._jet_count

    def recorded(ring, degrees, d):
        calls.append((degrees, d))
        return count(ring, degrees, d)

    monkeypatch.setattr(tautops, "_jet_count", recorded)
    for invariant in (True, False):
        calls.clear()
        kernel_nullity(2, 6, 6, invariant=invariant)
        assert Counter(calls) == Counter((range(o - 1, o), d) for o in range(1, 6) for d in range(7))
    calls.clear()
    assert list(graded_dims(2, 2, 3)) == [(2,), (1, 1)]
    assert calls == [(range(0, 2, 2), d) for d in range(4)]


# Only the first piece, (k,) or (), the one with the most free points, can
# have a free-point table over the cap: it is refused before any partition
# is listed, with the same message, where it alone is over the cap.
@pytest.mark.parametrize("n,k,shape,cap", [(3, 1, "2 free points: 3 x 5", 14),
                                            (3, 0, "3 free points: 4 x 5", 19)])
def test_free_point_table_refused_before_partitions_are_listed(monkeypatch, n, k, shape, cap):
    def unlisted(*args):
        raise AssertionError("partitions listed before the free points were checked")

    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", str(cap + 1))
    assert graded_dims(n, k, 4)
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", str(cap))
    monkeypatch.setattr(tautops, "enumerate_partitions", unlisted)
    with pytest.raises(EntryCapError) as refused:
        graded_dims(n, k, 4)
    assert str(refused.value) == (f"symmetric polynomials on {shape} matrix exceeds the entry "
                                  f"cap {cap}; set HILBTAUT_MAX_MATRIX_ENTRIES to raise it")


# The cap is read once per builder call, and each check takes it from there:
# once for graded_dims(2, 2000, 0), 1,001 pieces, 1,000 of them of two parts,
# and for graded_dims(4, 6, 3) and kernel_nullity(3, 4, 3); three times for
# verify_filtration(3, 4, 3), which calls a builder three times.
def test_builders_read_the_cap_once_per_call(monkeypatch):
    reads = []
    read = tautops._max_entries

    def recorded():
        reads.append(None)
        return read()

    monkeypatch.setattr(tautops, "_max_entries", recorded)
    assert len(graded_dims(2, 2000, 0)) == 1001
    for call, args, expected in [(graded_dims, (2, 2000, 0), 1), (graded_dims, (4, 6, 3), 1),
                                 (kernel_nullity, (3, 4, 3), 1),
                                 (verify_filtration, (3, 4, 3), 3)]:
        reads.clear()
        call(*args)
        assert len(reads) == expected, (call.__name__, args)


# A graded piece imposes no odd u-v-degree at a pair of equal parts, whose
# rows fold to zero, so every row it eliminates is nonzero: n <= 4, k <= 6,
# through degree 4, under both rules.
def test_graded_rows_reaching_elimination_are_never_empty(monkeypatch):
    received = []
    rank = tautops.sparse_int_rank

    def recorded(rows, pivots=None):
        rows = list(rows)
        received.extend(rows)
        return rank(rows, pivots)

    monkeypatch.setattr(tautops, "sparse_int_rank", recorded)
    for n in range(1, 5):
        for k in range(7):
            for rule in EXPONENT_RULES:
                graded_dims(n, k, 4, exponent_rule=rule)
    assert received
    assert all(received)


def test_full_kernel_past_the_unpinned_cap():
    # Unpinned, this system is 3345 x 1890 at degree 4, over the default cap.
    assert kernel_nullity(3, 4, 4, invariant=False) == (1, 9, 48, 188, 600)


# ---------------------------------------------------------------------------
# graded dimensions


@pytest.mark.parametrize("k", [2, 3, 4])
def test_graded_matches_counting_n2(k):
    dims = graded_dims(2, k, 4)
    for mu, got in dims.items():
        j = 0 if len(mu) == 1 else mu[1]
        expected = []
        total = 0
        for d in range(5):
            total += graded_count_n2(k, j, d)
            expected.append(total)
        assert got == tuple(expected), mu


def test_graded_exponent_rules_agree_low_weight():
    for n, k in [(2, 4), (3, 3), (3, 4), (4, 4)]:
        uniform = graded_dims(n, k, 2, exponent_rule="uniform_2m_mu")
        per_pair = graded_dims(n, k, 2, exponent_rule="per_pair_2mu")
        assert uniform == per_pair


def test_exponent_rules_separate_at_weight_five():
    # The smallest separating partition is (2, 2, 1): the uniform rule asks
    # order two at every pair, the per-pair rule order four at the leading
    # pair.  The squared pairwise-difference product witnesses the gap.
    ring = PolyRing(3, 6)
    w = one(ring)
    for a, b in [(1, 2), (1, 3), (2, 3)]:
        diff = x_of(ring, a) - x_of(ring, b)
        w = w * diff * diff
    for pair in [(1, 2), (1, 3), (2, 3)]:
        assert membership(w, pair, 2, ring)
    assert not membership(w, (1, 2), 4, ring)


def test_exponent_rules_split_at_3_5_4():
    # The first exploratory size where the rules part: the invariant kernel
    # follows per_pair_2mu, and uniform_2m_mu is one over at degree 4.
    kernel = (1, 5, 21, 69, 196)
    assert kernel_nullity(3, 5, 4) == kernel
    assert graded_totals(graded_dims(3, 5, 4, exponent_rule="per_pair_2mu")) == kernel
    report = verify_filtration(3, 5, 4)
    assert report.exploratory
    assert report.invariant_nullities[-1] == kernel
    assert graded_totals(report.graded) == (1, 5, 21, 69, 197)
    assert report.mismatches == ((4, 196, 197),)


def test_graded_rejects_unknown_rule():
    with pytest.raises(ValueError):
        graded_dims(2, 2, 2, exponent_rule="cubic")


# (3, 5, 4) is where the two rules first separate, at (2, 2, 1) in degree 4.
# The last five have pieces on fewer points than n and with repeated parts.
@pytest.mark.parametrize(
    "n,k,max_deg",
    [(1, 3, 3), (2, 0, 3), (3, 0, 2), (2, 2, 4), (2, 3, 4), (2, 4, 4), (3, 3, 3),
     (3, 4, 3), (3, 5, 4), (4, 3, 3),
     (4, 2, 3), (4, 4, 3), (5, 2, 2), (5, 3, 2), (3, 6, 3)],
)
def test_graded_matches_reynolds_average(n, k, max_deg):
    for rule in EXPONENT_RULES:
        assert graded_dims(n, k, max_deg, exponent_rule=rule) == reynolds_graded_dims(
            n, k, max_deg, rule
        )


def test_orbit_pairs_take_the_first_pair_of_each_pair_of_parts():
    for k in range(10):
        for mu in enumerate_partitions(k, max(k, 1)):
            pairs = _orbit_pairs(mu)
            assert sorted(A for A, _ in pairs) == sorted(A for A, *_ in _graded_block(mu))
            assert all(q == mu[j - 1] for (i, j), q in pairs)


def test_free_point_counts_match_folded_columns():
    # M(m, d) counts the S_m-orbits of degree-d monomials on m points: the
    # folded columns of the all-zero composition
    for m in range(1, 5):
        ring = PolyRing(m, 5)
        folded = tuple(reference_columns([(0,) * m], ring, d, True)[0] for d in range(6))
        assert _free_point_counts(m, 5) == folded
    assert _free_point_counts(0, 5) == (1, 0, 0, 0, 0, 0)
    # a multiset of degree at most 5 holds at most 5 monomials other than 1
    assert _free_point_counts(10**9, 5) == _free_point_counts(5, 5)


def test_free_point_counts_match_the_full_table():
    # Newton's identity at weight 0 against the table of multisets by how
    # many of their monomials are not 1
    for m in range(7):
        for d in range(15):
            assert list(_free_point_counts(m, d)) == free_point_counts_full_table(m, d), (m, d)


# Closed forms far past the full table's reach: M(1, j) = j + 1, and by
# Burnside over S_2, M(2, j) = (C(j + 3, 3) + [j even] (j / 2 + 1)) / 2, as
# the ordered pairs of monomials of total degree j are C(j + 3, 3), and the
# swap fixes the j / 2 + 1 pairs of one monomial of degree j / 2.
def test_free_point_counts_on_one_and_two_points():
    assert _free_point_counts(1, 3000) == tuple(range(1, 3002))
    assert _free_point_counts(2, 3000) == tuple(
        (comb(j + 3, 3) + (j % 2 == 0) * (j // 2 + 1)) // 2 for j in range(3001))


# Newton's identity against the multisets listed one by one, n <= 4, k <= 4,
# d <= 4: one table per number of items j up to min(n, k + max_deg), past
# which every further item is (0, 1), so the last one stands for j up to n.
def test_multisets_match_the_listed_multisets():
    for n in range(5):
        for k in range(5):
            for max_deg in range(5):
                tables = list(_multisets(n, k, max_deg))
                assert len(tables) == min(n, k + max_deg) + 1
                for j in range(n + 1):
                    assert tables[min(j, len(tables) - 1)] == multisets_by_listing(j, k, max_deg), (
                        n, k, max_deg, j)


# The planned shifts are the paper's label sets, n <= 6, k <= 8: A0(k, o) in
# invariant mode, and B(k, o), every pair times every composition, in full.
def test_shift_counts_are_the_label_sets():
    for n in range(2, 7):
        for k in range(2, 9):
            for o in range(1, k):
                assert _shift_count(n, k, o, True) == len(quotient_A0(k, o, n)), (n, k, o)
                assert comb(n, 2) * _shift_count(n, k, o, False) == len(quotient_B(k, o, n))


def test_compositions_over_the_cap_are_refused_unlisted(monkeypatch):
    # C(59, 30) = 59,132,290,782,430,712 compositions of 30 into 30 slots
    def unlisted(*args):
        raise AssertionError("compositions listed before the cap was checked")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(tautops, "enumerate_compositions", unlisted)
    for invariant, table in [(True, "column orbit keys"), (False, "column keys")]:
        with pytest.raises(EntryCapError, match=f"{table}: 59132290782430712 x 30 "):
            kernel_nullity(30, 30, 0, invariant=invariant)


def test_partitions_over_the_cap_are_refused_unlisted(monkeypatch):
    def unlisted(*args):
        raise AssertionError("partitions listed before the cap was checked")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(tautops, "enumerate_partitions", unlisted)
    # counting stops once the count is too many: the 46,262 partitions of 100
    # into parts of size at most 5, 100 wide, are over 2,000,000 entries
    with pytest.raises(EntryCapError, match="partitions of 100 into at most 100 parts: "
                                            "at least 46262 x 100 "):
        graded_dims(100, 100, 0)
    # k past the cap: k // 2 + 1 partitions into at most two parts, uncounted
    with pytest.raises(EntryCapError, match=r"at least 500000000001 x 2 "):
        graded_dims(2, 10**12, 0)
    monkeypatch.undo()
    # 14 partitions of 10 into at most 3 parts, 3 wide, counted exactly
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "42")
    assert len(graded_dims(3, 10, 0)) == 14
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "41")
    with pytest.raises(EntryCapError, match="at least 14 x 3 exceeds the entry cap 41"):
        graded_dims(3, 10, 0)


def test_graded_keys_in_refined_order():
    dims = graded_dims(3, 4, 1)
    assert list(dims) == [(4,), (3, 1), (2, 2), (2, 1, 1)]


# ---------------------------------------------------------------------------
# filtration comparison


@pytest.mark.parametrize("n,k,max_deg", [(2, 2, 4), (2, 3, 3), (3, 3, 2)])
def test_filtration_agreement(n, k, max_deg):
    report = verify_filtration(n, k, max_deg)
    assert report.passed
    assert not report.exploratory
    assert report.invariant_nullities[k - 1] == graded_totals(report.graded)
    for l in range(1, k):
        for d in range(max_deg + 1):
            assert report.invariant_nullities[l][d] <= report.invariant_nullities[l - 1][d]
            assert report.invariant_nullities[l][d] <= report.full_nullities[l][d]


def test_invariant_profile_is_plane_times_nonnegative_series():
    # the invariant kernel is Q[x_bar, y_bar] tensor the invariant part of K0
    profile = _nullity_profile(3, 5, 4, True)
    assert all(min(_translation_free(dims)) >= 0 for dims in profile)
    assert _translation_free(profile[-1]) == (1, 2, 9, 20, 47)
    assert _translation_free([(d + 1) * 3 for d in range(4)]) == (3, 0, 0, 0)


def test_filtration_rejects_invariant_series_not_over_the_plane(monkeypatch):
    # weakly decreasing and below the full counts, but 1 - 2t + ... at degree 1
    def profile(n, k, max_deg, invariant):
        return [[1] * (max_deg + 1) if invariant else [9] * (max_deg + 1)] * k

    monkeypatch.setattr(tautops, "_nullity_profile", profile)
    with pytest.raises(AssertionError, match=r"deconvolve by \(1 - t\)\^2 to -1 < 0 at degree 1"):
        verify_filtration(2, 2, 2)


@pytest.mark.parametrize("grown", [True, False])
def test_filtration_rejects_a_profile_grown_at_its_last_level(monkeypatch, grown):
    # the last level is the kernel; the walk over adjacent levels reaches it
    real = tautops._nullity_profile

    def profile(n, k, max_deg, invariant):
        levels = list(real(n, k, max_deg, invariant))
        if invariant == grown:
            levels[-1] = [levels[0][0] + 1, *levels[0][1:]]
        return levels

    monkeypatch.setattr(tautops, "_nullity_profile", profile)
    with pytest.raises(AssertionError, match="nullity grew from block 2 to 3 at degree 0"):
        verify_filtration(2, 4, 3)


def test_filtration_exploratory_mode():
    report = verify_filtration(3, 5, 1)
    assert isinstance(report, FiltrationReport)
    assert report.exploratory


def test_filtration_report_is_an_immutable_value():
    report = verify_filtration(2, 2, 2)
    assert report.passed and not report.exploratory and report.mismatches == ()
    assert report == verify_filtration(2, 2, 2)
    assert report == FiltrationReport(
        full_nullities=report.full_nullities,
        invariant_nullities=report.invariant_nullities,
        graded=report.graded,
        exploratory=False,
        mismatches=(),
    )
    with pytest.raises(AttributeError):
        report.mismatches = ((0, 1, 2),)


def test_filtration_rejects_k0():
    with pytest.raises(ValueError):
        verify_filtration(2, 0, 2)


# ---------------------------------------------------------------------------
# section tuples and differences


def _generic_tuple(n, k):
    """A section tuple: {composition: {exponent: int}} of degree at most 2."""
    ring = PolyRing(n, 2)
    vals = iter([1, -1, 2, 3, -2, 1, 5, -1, 2, 7, 1, -3] * 50)
    comps = {}
    for lam in enumerate_compositions(n, k):
        comps[lam] = {e: next(vals) for e in ring.monomials_up_to()}
    return comps


def test_higher_difference_literal_example():
    x = _generic_tuple(2, 3)
    ring = PolyRing(2, 2)

    def comp(lam):
        return TruncPoly(ring, x[lam])

    got = higher_difference(x, (1, 0), (1, 2), 2)
    assert TruncPoly(ring, got) == comp((3, 0)) - 2 * comp((2, 1)) + comp((1, 2))


def test_higher_difference_order_zero_is_component():
    x = _generic_tuple(2, 2)
    got = higher_difference(x, (2, 0), (1, 2), 0)
    # a copy, which callers may add into
    assert got == x[(2, 0)] and got is not x[(2, 0)]


def test_higher_difference_weight_mismatch():
    x = _generic_tuple(2, 3)
    with pytest.raises(ValueError, match="weight mismatch"):
        higher_difference(x, (1, 0), (1, 2), 1)


def test_section_tuple_validation():
    with pytest.raises(ValueError, match="missing"):
        higher_difference({(2, 0): {(0, 0, 0, 0): 1}}, (1, 0), (1, 2), 1)


@pytest.mark.parametrize("n,k,mu,A,order", [
    (2, 3, (1, 0), (1, 2), 2),
    (3, 4, (1, 0, 1), (1, 3), 2),
    (3, 4, (0, 1, 0), (2, 3), 3),
    (4, 2, (0, 0, 1, 0), (2, 4), 1),
    (3, 2, (0, 2, 0), (1, 2), 0),
])
def test_higher_difference_needs_only_the_support(n, k, mu, A, order):
    x = _generic_tuple(n, k)
    a0, a1 = sorted(A)
    support = [lam for lam, _ in _difference_support(mu, a0, a1, order)]
    assert len(support) < len(x)
    part = {lam: x[lam] for lam in support}
    got = higher_difference(part, mu, A, order)
    assert got and got == higher_difference(x, mu, A, order)
    dropped = dict(part)
    del dropped[support[-1]]
    with pytest.raises(ValueError, match=re.escape(f"missing component {support[-1]}")):
        higher_difference(dropped, mu, A, order)


@pytest.mark.parametrize("mu,A,order,message", [
    ((1, 0, 0), (1, 2), 2, "one entry per slot"),
    ((2, -1), (1, 2), 2, "nonnegative"),
    ((1, 0), (1, 1), 2, "distinct slots"),
    ((1, 0), (1, 3), 2, "distinct slots"),
], ids=["slots", "negative", "same-slot", "slot-range"])
def test_higher_difference_checks_its_arguments(mu, A, order, message):
    with pytest.raises(ValueError, match=message):
        higher_difference(_generic_tuple(2, 3), mu, A, order)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=20, max_size=20))
def test_difference_one_step_reduction_random(coeffs):
    ring = PolyRing(2, 2)
    monos = list(ring.monomials_up_to(1))
    x = {}
    idx = 0
    for lam in [(3, 0), (2, 1), (1, 2), (0, 3)]:
        x[lam] = {e: coeffs[idx * 5 + i] for i, e in enumerate(monos)}
        idx += 1
    lhs = higher_difference(x, (1, 0), (1, 2), 2)
    rhs = -TruncPoly(ring, higher_difference(x, (2, 0), (1, 2), 1)) + TruncPoly(
        ring, higher_difference(x, (1, 1), (1, 2), 1)
    )
    assert TruncPoly(ring, lhs) == rhs


# ---------------------------------------------------------------------------
# structural verifications


def test_recursion_layers():
    report = verify_recursion()
    assert report["formal_cases"] == 24
    assert report["polynomial_cases"] == 8
    assert report["nested_orders"] == 4


def test_transition_identity():
    report = verify_transition()
    assert report["cases"] == 20
    assert report["orders_checked"] == 5


def test_transition_catches_unsigned_supports(monkeypatch):
    # both sides of the identity share the supports, so dropping their
    # signs leaves it intact; the z^mu (z_2 - z_1)^m anchor does not
    real = tautops._difference_support

    def unsigned(mu, a0, a1, order):
        return [(lam, abs(cf)) for lam, cf in real(mu, a0, a1, order)]

    monkeypatch.setattr(tautops, "_difference_support", unsigned)
    with pytest.raises(AssertionError, match="difference signs off"):
        verify_transition()


# ---------------------------------------------------------------------------
# local formulas


def test_local_formula_constants_k3():
    assert verify_invariant_local_formula(3) == {"D1_(1)(0)": Fraction(1)}


def test_local_formula_constants_k4():
    constants = verify_invariant_local_formula(4)
    assert constants == {
        "D1_(2)(0)": Fraction(1),
        "D1_(1)(1)": Fraction(1),
        "D2_(1)(0)": Fraction(1),
    }
    assert all(c > 0 for c in constants.values())


def test_local_formulas_apply_the_difference_through_higher_difference(monkeypatch):
    """The merged-pair operators take their difference by
    higher_difference, once per operator, on the support's components."""
    calls = []
    real = tautops.higher_difference

    def spy(x, mu, A, order):
        calls.append((mu, A, order, len(x)))
        return real(x, mu, A, order)

    monkeypatch.setattr(tautops, "higher_difference", spy)
    for k in (3, 4):
        calls.clear()
        verify_invariant_local_formula(k)
        assert calls, f"k = {k}"
        assert all(A == (1, 2) and size == order + 1 for _, A, order, size in calls)
    assert {(mu, order) for mu, _, order, _ in calls} == {
        ((2, 0, 0, 0), 2), ((1, 0, 1, 0), 2), ((1, 0, 0, 0), 3)
    }


def test_weighted_component_matches_assignment_sum(monkeypatch):
    """The factorized orbit-sum component equals the plain sum over
    weight-respecting assignments, on every component the local formulas
    ask for: the k = 3 summands at n = 2..4 and the k = 4 summands."""
    fast = tautops._weighted_component
    seen = []

    def checked(lam, weighted_factors):
        out = fast(lam, weighted_factors)
        # factors have degree <= 2, so the cap 2n cuts nothing
        ring = PolyRing(len(lam), 2 * len(lam))
        assert TruncPoly(ring, _unpack(out, ring.nvars)) == weighted_component_by_assignment(
            ring, lam, weighted_factors)
        seen.append((ring.n, not out))
        return out

    monkeypatch.setattr(tautops, "_weighted_component", checked)
    verify_invariant_local_formula(3)
    verify_invariant_local_formula(4)
    assert {n for n, _ in seen} == {2, 3, 4}
    assert {zero for _, zero in seen} == {True, False}


def test_local_formula_catches_each_flipped_closed_form_sign(monkeypatch):
    """Flipping the sign of any one k = 4 closed-form term leaves its
    operator no multiple of the closed form."""
    real = tautops._local_cases
    forms = []
    monkeypatch.setattr(tautops, "_local_cases",
                        lambda n, summands, fs: forms.extend(fs) or real(n, summands, fs))
    verify_invariant_local_formula(4)
    flips = [(f, t) for f, (*_, terms) in enumerate(forms[:3]) for t in range(len(terms))]
    assert len(flips) == 14
    for f, t in flips:
        def flipped(n, summands, fs, f=f, t=t):
            label, mu0, level, terms = fs[f]
            c, *rest = terms[t]
            terms = terms[:t] + [(-c, *rest)] + terms[t + 1 :]
            return real(n, summands, fs[:f] + [(label, mu0, level, terms)] + fs[f + 1 :])

        monkeypatch.setattr(tautops, "_local_cases", flipped)
        with pytest.raises(AssertionError, match=f"coefficient mismatch in {re.escape(forms[f][0])}"):
            verify_invariant_local_formula(4)


def test_local_formula_unknown_k():
    with pytest.raises(ValueError):
        verify_invariant_local_formula(5)


def test_match_constant_detects_mismatch():
    ring = PolyRing(1, 2)
    x = x_of(ring, 1)
    y = y_of(ring, 1)
    with pytest.raises(AssertionError, match="mismatch"):
        _match_constant("probe", {(1, 0): x.coeffs}, {(1, 0): (x + y).coeffs})
    assert _match_constant(
        "probe", {(1, 0): (3 * x).coeffs}, {(1, 0): (2 * x).coeffs}
    ) == Fraction(3, 2)


_DICT_RING = PolyRing(2, 4)


def _pack(poly: dict) -> dict:
    """poly with each exponent tuple packed as the local formulas key
    it: entry v in field v."""
    return {sum(x << tautops._FIELD * v for v, x in enumerate(e)): c for e, c in poly.items()}


def _unpack(poly: dict, nvars: int) -> dict:
    """poly with its packed keys decoded back to exponent tuples of
    nvars entries."""
    mask = (1 << tautops._FIELD) - 1
    return {tuple(e >> tautops._FIELD * v & mask for v in range(nvars)): c
            for e, c in poly.items()}


@pytest.mark.parametrize("n,level", [(2, 1), (3, 2), (4, 3)])
def test_merged_pair_buckets_match_the_tuple_expansion(n, level):
    """The offset expansion on packed keys, read by shift and mask,
    equals the one on exponent tuples, at exponents up to 40, past every
    bit of a narrower mask."""
    rng = random.Random(10 * n + level)
    mu0 = (1,) + (0,) * (n - 1)
    x = {
        lam: {tuple(rng.randrange(41) for _ in range(2 * n)): rng.choice([-3, -1, 1, 2])
              for _ in range(12)}
        for lam, _ in _difference_support(mu0, 1, 2, level + 1)
    }
    got = _merged_pair_operator(mu0, level, {lam: _pack(p) for lam, p in x.items()})
    want = expand_around_first_slot(higher_difference(x, mu0, (1, 2), level + 1), n, level)
    assert len(want) == level + 1
    assert {ij: _unpack(p, 2 * n) for ij, p in got.items()} == want


def test_slot_value_refuses_an_exponent_too_wide_for_its_field():
    top = tautops._MAX_EXPONENT
    assert _unpack(_slot_value(2, {(top, 1): 3, (0, 0): -1}, 2), 4) == {
        (0, top, 0, 1): 3, (0, 0, 0, 0): -1}
    # a product of slot values at the widest exponent keeps its fields apart
    widest = _slot_value(2, {(top, top): 1}, 1)
    assert _unpack(_product([widest] * 4), 4) == {(4 * top, 0, 4 * top, 0): 1}
    for bad in [(top + 1, 0), (0, top + 1), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match=r"exponent \(-?\d+, -?\d+\) outside"):
            _slot_value(2, {bad: 1}, 1)


@st.composite
def _int_polys(draw):
    """A polynomial of degree <= 2 on two points, an {exponent: int}
    dict with no zero coefficient."""
    monos = list(PolyRing(2, 2).monomials_up_to())
    return draw(st.dictionaries(
        st.sampled_from(monos), st.integers(-3, 3).filter(bool), max_size=6))


@settings(max_examples=200, deadline=None)
@given(_int_polys(), _int_polys())
def test_dict_product_and_add_store_no_zero(p, q):
    """The package's product and add-into agree with the truncated oracle
    on a ring whose cap 4 covers every product of degree <= 2 factors,
    and keep no zero coefficient: scalar_multiple compares supports, so
    a stored zero would read as a mismatch.  (p + q) * (p - q) and p - p
    cancel terms exactly.  The product runs on packed keys, decoded back
    to exponent tuples for the comparison."""
    P, Q = TruncPoly(_DICT_RING, p), TruncPoly(_DICT_RING, q)
    total, diff, none = dict(p), dict(p), dict(p)
    _add_into(total, q)
    _add_into(diff, q, -1)
    _add_into(none, p, -1)
    for got, want in [
        (total, P + Q),
        (diff, P - Q),
        (none, P - P),
        (_unpack(_product([_pack(p), _pack(q)]), 4), P * Q),
        (_unpack(_product([_pack(total), _pack(diff)]), 4), (P + Q) * (P - Q)),
        (_unpack(_product([]), 4), one(_DICT_RING)),
    ]:
        assert got == want.coeffs
    assert none == {}
