"""Orbit and label-set combinatorics, checked against brute force.

The oracles here count orbits and stabilizers by direct group sweeps,
independently of the closed-form label sets and product formulas under
test.
"""

import itertools
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut import combinat
from hilbtaut.combinat import (
    enumerate_compositions,
    enumerate_partitions,
    m_mu,
    orbits,
    quotient_A,
    quotient_A0,
    quotient_B,
    refined_key,
    stabilizer_order,
)
from hilbtaut.polyjet import PolyRing
from references import (
    MultiIndexMap,
    act,
    all_multiindex_maps,
    canonical_section,
    composition_stabilizer,
    enumerate_multiindex_maps,
    from_masks,
    h_key,
    in_Ip,
    maps_by_level,
    multiindex_invariants,
    nu_of_composition,
    phi,
    psi,
)


# --- oracles -----------------------------------------------------------


def all_permutations(m):
    return list(itertools.permutations(range(1, m + 1)))


def counted(orbs):
    """Member-listed orbits as combinat gives them: the H-key of each
    orbit's first member, and the orbit's size."""
    return [(h_key(orb[0]), len(orb)) for orb in orbs]


def stab_order_direct(a, group):
    """Count stabilizer elements by sweeping the whole group."""
    count = 0
    taus = all_permutations(a.k)
    sigmas = all_permutations(a.n) if group == "GxH" else [None]
    for sigma in sigmas:
        for tau in taus:
            if act(a, sigma, tau) == a:
                count += 1
    return count


def bfs_orbits(n, k, l, group):
    """The breadth-first orbit search over adjacent transpositions that
    the canonical-key orbits replaced, rebuilt on the public action."""
    maps = enumerate_multiindex_maps(n, k, l)
    index = {a: i for i, a in enumerate(maps)}
    gens = []
    for i in range(1, k):
        tau = list(range(1, k + 1))
        tau[i - 1], tau[i] = tau[i], tau[i - 1]
        gens.append((None, tuple(tau)))
    if group == "GxH":
        for i in range(1, n):
            sigma = list(range(1, n + 1))
            sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
            gens.append((tuple(sigma), None))
    seen = [False] * len(maps)
    out = []
    for start in range(len(maps)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        frontier = [maps[start]]
        while frontier:
            nxt = []
            for a in frontier:
                for sigma, tau in gens:
                    b = act(a, sigma, tau)
                    j = index[b]
                    if not seen[j]:
                        seen[j] = True
                        orbit.append(j)
                        nxt.append(b)
            frontier = nxt
        out.append([maps[j] for j in sorted(orbit)])
    return out


def min_key_orbits(n, k, l, group):
    """The orbits the closure replaced: each map keyed by the least
    sorted bitmask image tuple over all relabellings of its points.

    A relabelling moves the images as its restriction to their points
    does, so the injections of those points into {1..n} stand in for
    S_n; maps with one multiset of images share their least key."""
    least = {}
    classes = {}
    for a in enumerate_multiindex_maps(n, k, l):
        images = tuple(sorted(a.images, key=sorted))
        if images not in least:
            points = sorted(set().union(*images))
            sigmas = (itertools.permutations(range(1, n + 1), len(points))
                      if group == "GxH" else [points])
            least[images] = min(
                tuple(sorted(sum(1 << sigma[points.index(j)] - 1 for j in im)
                             for im in images))
                for sigma in sigmas)
        classes.setdefault(least[images], []).append(a)
    return list(classes.values())


def recursive_compositions(n, k):
    """The recursive enumeration the partial-sum one replaced."""
    if n == 1:
        return [(k,)]
    return [(first,) + rest for first in range(k, -1, -1)
            for rest in recursive_compositions(n - 1, k - first)]


def mmap(n, *sets):
    return MultiIndexMap(n, tuple(frozenset(s) for s in sets))


# --- compositions and partitions --------------------------------------


def test_composition_counts_and_order():
    assert enumerate_compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(enumerate_compositions(3, 3)) == 10 == comb(5, 2)
    assert len(enumerate_compositions(4, 4)) == 35 == comb(7, 3)
    for c in enumerate_compositions(3, 4):
        assert sum(c) == 4 and len(c) == 3


def test_composition_order_is_rlex():
    cs = enumerate_compositions(3, 3)
    assert cs == sorted(cs, reverse=True)


def test_compositions_match_recursive_order():
    for n, kmax in [(2, 8), (4, 6), (6, 5), (8, 5)]:
        for k in range(0, kmax + 1):
            assert enumerate_compositions(n, k) == recursive_compositions(n, k)
    for n, d in [(1, 5), (2, 4), (3, 3), (4, 2)]:
        assert list(PolyRing(n, d).monomials(d)) == recursive_compositions(2 * n, d)
    # deeper than the recursion limit
    assert len(enumerate_compositions(600, 1)) == 600
    assert enumerate_compositions(600, 0) == [(0,) * 600]


def test_partition_enumeration():
    assert enumerate_partitions(4, 4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(3, 2) == [(3,), (2, 1)]
    assert enumerate_partitions(0, 5) == [()]
    # the non-increasing compositions, zeros dropped, in refined order
    for k in range(11):
        for n in range(1, 11):
            expected = sorted(
                (tuple(p for p in c if p) for c in enumerate_compositions(n, k)
                 if list(c) == sorted(c, reverse=True)),
                key=refined_key,
            )
            assert enumerate_partitions(k, n) == expected


def test_two_part_partitions_take_linear_work():
    # a first part below ceil(k / 2) is never tried: 2001 partitions of 4000
    # cost about 4000 cache entries, not the 4,004,001 of every first part
    combinat._partitions.cache_clear()
    assert len(enumerate_partitions(4000, 2)) == 2001
    assert combinat._partitions.cache_info().misses <= 3 * 4000


def test_refined_order_chain_weight_six():
    chain = [
        (6,), (5, 1), (4, 2), (3, 3), (4, 1, 1), (3, 2, 1), (2, 2, 2),
        (3, 1, 1, 1), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    ]
    assert enumerate_partitions(6, 6) == chain
    for a, b in itertools.combinations(chain, 2):
        assert refined_key(a) < refined_key(b)
    assert refined_key((3, 3)) < refined_key((4, 1, 1))


def test_refined_agrees_with_rlex_up_to_weight_five():
    for w in range(1, 6):
        parts = enumerate_partitions(w, w)
        assert parts == sorted(parts, reverse=True)


def test_m_mu():
    assert m_mu((4,)) == 0
    assert m_mu((2, 2)) == 2
    assert m_mu((2, 1, 1)) == 1
    with pytest.raises(ValueError):
        m_mu(())


# --- multi-index invariants -------------------------------------------


def test_invariants_worked_examples():
    inv = multiindex_invariants(mmap(2, {1, 2}, {1}, {1}))
    assert inv.A == {1, 2} and inv.S0 == {1} and inv.J == {1}
    assert inv.lam == (2, 0) and inv.l == 1 and inv.t == 1

    inv = multiindex_invariants(mmap(2, {1}, {1}, {2}))
    assert inv.A == frozenset() and inv.J == {1, 2}
    assert inv.lam == (2, 1) and inv.l == 0 and inv.t == 0

    inv = multiindex_invariants(mmap(3, {1, 2}, {1, 2}))
    assert inv.A == {1, 2} and inv.J == frozenset() and inv.S0 == {1, 2}
    assert inv.l == 2 and inv.t == 0


def test_Ip_membership():
    assert in_Ip(mmap(2, {1, 2}, {1}, {1}), 1)
    assert not in_Ip(mmap(2, {1, 2}, {1}, {1}), 0)
    # two different doubletons push |A| to 3, so k(a) = 4 excludes the map
    assert not in_Ip(mmap(3, {1, 2}, {1, 3}), 2)


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in range(5)]
                         + [(4, k) for k in range(4)])
def test_maps_match_the_plain_product_walk(n, k):
    """The reference walk lists I^l exactly as filtering the product of
    the subset pool does, order included, at every level l."""
    product = all_multiindex_maps(n, k)
    for l in range(k * (n - 1) + 1):
        assert enumerate_multiindex_maps(n, k, l) == [
            a for a in product if in_Ip(a, l)]


def test_walk_keys_are_sorted_bitmask_images_and_shared():
    """The reference walk's maps are plain tuples of image bitmasks, and
    it stores each map's H-key beside it: that tuple sorted, one tuple
    object per distinct key."""
    for n, k in [(2, 4), (3, 4), (4, 3)]:
        for maps, keys in maps_by_level(n, k).values():
            assert len(maps) == len(keys)
            for a, key in zip(maps, keys):
                assert type(a) is tuple and all(type(m) is int for m in a)
                images = from_masks(n, a).images
                assert key == tuple(sorted(sum(1 << j - 1 for j in im) for im in images))
            assert len({id(key) for key in keys}) == len(set(keys))


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in range(5)]
                         + [(4, k) for k in range(4)])
def test_walk_counts_the_plain_product_maps_of_each_key(n, k):
    """At every level, the counting walk holds each H-key once, in order
    of its first map in the product of the subset pool, with the number
    of product maps that have it."""
    product = all_multiindex_maps(n, k)
    buckets = combinat._keys_by_level(n, k)
    assert sum(map(len, buckets.values())) == len(combinat._layer(n, k))
    for l in range(k * (n - 1) + 1):
        counts = Counter(h_key(a) for a in product if in_Ip(a, l))
        assert list(buckets.get(l, {}).items()) == list(counts.items())


@pytest.mark.parametrize("images,message", [
    (({1}, set()), "images must be nonempty"),
    (({0}, {1}), "image out of range"),
    (({1}, {1, 4}), "image out of range"),
])
def test_multiindex_map_rejects_bad_images(images, message):
    with pytest.raises(ValueError, match=message):
        mmap(3, *images)


# --- label sets vs brute force ----------------------------------------


def test_B_at_level_zero_is_compositions():
    for n, k in [(2, 3), (3, 2), (4, 4)]:
        labels = quotient_B(k, 0, n)
        assert [lam for lam, _ in labels] == enumerate_compositions(n, k)
        assert all(A == frozenset() for _, A in labels)


def test_B_spot_counts():
    # the H-orbits of I^1 at (k,n)=(3,2) are the singleton-value multisets
    # {1,1}, {1,2}, {2,2}: three of them
    assert len(quotient_B(3, 1, 2)) == 3 == len(orbits(2, 3, 1, "H"))
    assert len(quotient_B(4, 1, 3)) == len(enumerate_compositions(3, 3)) * 3 == 30
    assert len(quotient_B(4, 1, 3)) == len(orbits(3, 4, 1, "H"))


def test_A0_listed_sets():
    assert quotient_A0(3, 1, 4) == [((2,), ()), ((1,), (1,))]
    assert quotient_A0(4, 1, 5) == [
        ((3,), ()),
        ((2, 1), ()),
        ((2,), (1,)),
        ((1,), (2,)),
        ((1,), (1, 1)),
    ]
    assert quotient_A0(4, 3, 4) == [((1,), ())]


def test_A0_small_n_drops_long_mu():
    # at n=3 there is a single point outside A, so mu=(1,1) cannot occur
    assert ((1,), (1, 1)) not in quotient_A0(4, 1, 3)
    assert len(quotient_A0(4, 1, 3)) == 4


@pytest.mark.parametrize("n,k", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_quotients_match_orbit_counts(n, k):
    for l in range(0, k + 1):
        h_orbits = orbits(n, k, l, "H")
        gh_orbits = orbits(n, k, l, "GxH")
        assert len(quotient_B(k, l, n)) == len(h_orbits)
        assert len(quotient_A(k, l, n)) == len(gh_orbits)
        order = factorial(n) * factorial(k)
        for rep, size in gh_orbits:
            assert stabilizer_order(n, rep, "GxH") * size == order
        for rep, size in h_orbits:
            assert stabilizer_order(n, rep, "H") * size == factorial(k)


@pytest.mark.parametrize("n,kmax", [(1, 5), (2, 5), (3, 5), (4, 3), (4, 5), (8, 2)])
def test_orbits_match_bfs_search(n, kmax):
    for k in range(1, kmax + 1):
        for l in range(0, k + 1):
            for group in ("H", "GxH"):
                assert orbits(n, k, l, group) == counted(bfs_orbits(n, k, l, group))


def test_orbits_match_min_key_orbits():
    # the whole grid of verify --suite combinatorics, and eight points
    grid = [(n, k) for n in range(1, 5) for k in range(1, 6)] + [(8, 1), (8, 2)]
    for n, k in grid:
        for l in range(0, k + 1):
            for group in ("H", "GxH"):
                assert orbits(n, k, l, group) == counted(min_key_orbits(n, k, l, group))


def test_empty_levels_build_no_relabel_table(monkeypatch):
    built = []

    def counting(sigma):
        built.append(sigma)
        return real(sigma)

    real = combinat._relabel_table
    monkeypatch.setattr(combinat, "_relabel_table", counting)
    # on eight points and one slot only levels 0 and 1 hold maps
    assert orbits(8, 1, 5, "GxH") == []
    assert built == []
    assert len(orbits(3, 2, 1, "GxH")) == len(quotient_A(2, 1, 3))
    assert len(built) == 2


@pytest.mark.parametrize("k", [1, 2])
def test_eight_points_build_at_most_two_relabel_tables(monkeypatch, k):
    """The orbits close under the two generators (1 2) and (1 2 ... 8)
    of S_8, not under all 8! relabellings."""
    built = []

    def counting(sigma):
        built.append(sigma)
        return real(sigma)

    real = combinat._relabel_table
    monkeypatch.setattr(combinat, "_relabel_table", counting)
    gh_orbits = orbits(8, k, 1, "GxH")
    assert len(built) <= 2
    assert len(gh_orbits) == len(quotient_A(k, 1, 8))
    for rep, size in gh_orbits:
        assert stabilizer_order(8, rep, "GxH") * size == factorial(8) * factorial(k)
    built.clear()
    assert len(orbits(8, k, 1, "H")) == len(quotient_B(k, 1, 8))
    assert built == []


def test_psi_label_classifies_H_orbits():
    h_orbits = bfs_orbits(3, 4, 2, "H")
    assert counted(h_orbits) == orbits(3, 4, 2, "H")
    for orb in h_orbits:
        labels = {psi(a) for a in orb}
        assert len(labels) == 1
    all_labels = {psi(from_masks(3, rep)) for rep, _ in orbits(3, 4, 2, "H")}
    assert all_labels == set(quotient_B(4, 2, 3))


def test_phi_label_classifies_GxH_orbits():
    gh_orbits = bfs_orbits(3, 4, 1, "GxH")
    assert counted(gh_orbits) == orbits(3, 4, 1, "GxH")
    for orb in gh_orbits:
        assert len({phi(a) for a in orb}) == 1
    all_labels = {phi(from_masks(3, rep)) for rep, _ in orbits(3, 4, 1, "GxH")}
    assert all_labels == set(quotient_A(4, 1, 3))


# --- stabilizers -------------------------------------------------------


def test_stabilizer_examples():
    a = (0b11, 0b1, 0b1)  # {1, 2}, {1}, {1}
    assert stabilizer_order(2, a, "H") == 2 == stab_order_direct(from_masks(2, a), "H")
    b = (0b1, 0b1, 0b10)  # {1}, {1}, {2}
    assert stabilizer_order(3, b, "H") == 2 == stab_order_direct(from_masks(3, b), "H")
    c = (0b1, 0b10, 0b100)  # {1}, {2}, {3}
    assert stabilizer_order(3, c, "H") == 1
    assert stabilizer_order(2, a, "GxH") == stab_order_direct(from_masks(2, a), "GxH")
    assert stabilizer_order(3, b, "GxH") == stab_order_direct(from_masks(3, b), "GxH")
    with pytest.raises(ValueError):
        stabilizer_order(3, (0b11, 0b101), "H")  # {1, 2}, {1, 3}


@pytest.mark.parametrize("n,a,group,message", [
    (3, (0b1, 0), "H", "image mask out of range"),
    (3, (0b1, -1), "GxH", "image mask out of range"),
    (3, (0b1000,), "GxH", "image mask out of range"),
    (2, (0b11, 0b100), "H", "image mask out of range"),
    (3, (0b11, 0b110), "H", "requires k\\(a\\) <= 2"),
    (4, (0b111, 0b1000), "GxH", "requires k\\(a\\) <= 2"),
    (3, (0b1,), "G", "group must be"),
    (3, (0b11,), "gxh", "group must be"),
])
def test_stabilizer_order_rejects_bad_input(n, a, group, message):
    with pytest.raises(ValueError, match=message):
        stabilizer_order(n, a, group)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_orbit_stabilizer_identity(data):
    n = data.draw(st.integers(2, 3), label="n")
    k = data.draw(st.integers(2, 4), label="k")
    pool = [masks for masks in itertools.product(range(1, 1 << n), repeat=k)
            if multiindex_invariants(from_masks(n, masks)).k <= 2]
    masks = data.draw(st.sampled_from(pool), label="masks")
    a = from_masks(n, masks)
    orbit = set()
    frontier = [a]
    orbit.add(a)
    while frontier:
        nxt = []
        for x in frontier:
            for sigma in all_permutations(n):
                for tau in all_permutations(k):
                    y = act(x, sigma, tau)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
        frontier = nxt
    assert len(orbit) * stabilizer_order(n, masks, "GxH") == factorial(n) * factorial(k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_psi_equivariance(data):
    n, k = 3, 3
    pool = [a for a in all_multiindex_maps(n, k)
            if multiindex_invariants(a).k <= 2]
    a = data.draw(st.sampled_from(pool))
    sigma = data.draw(st.sampled_from(all_permutations(n)))
    tau = data.draw(st.sampled_from(all_permutations(k)))
    lam, A = psi(a)
    lam2, A2 = psi(act(a, sigma, tau))
    # H-invariant, G-equivariant: sigma.(lam, A) = (lam o sigma^-1, sigma(A))
    assert A2 == frozenset(sigma[j - 1] for j in A)
    assert lam2 == tuple(lam[sigma.index(i + 1)] for i in range(n))


# --- sections and composition stabilizers -----------------------------


def test_canonical_section_roundtrip():
    for k, l, n in [(3, 1, 2), (4, 2, 3), (5, 1, 4), (4, 0, 3)]:
        for lam, A in quotient_B(k, l, n):
            a = canonical_section(lam, A, k)
            assert in_Ip(a, l)
            assert psi(a) == (lam, A)


def test_composition_stabilizer():
    stab = composition_stabilizer((1, 1, 0))
    assert len(stab) == 2
    for sigma in stab:
        assert tuple((1, 1, 0)[sigma.index(i + 1)] for i in range(3)) == (1, 1, 0)
    assert len(composition_stabilizer((2, 0, 0, 0))) == 6
    assert len(composition_stabilizer((3, 2, 1))) == 1
    for n in range(1, 5):
        for k in range(0, 5):
            for c in enumerate_compositions(n, k):
                stab = composition_stabilizer(c)
                blocks = 1
                for v in set(c):
                    blocks *= factorial(c.count(v))
                assert len(stab) == blocks
                for sigma in stab:
                    assert tuple(c[sigma.index(i + 1)] for i in range(n)) == c


def test_nu_of_composition():
    assert nu_of_composition((0, 2, 1, 0, 2)) == (2, 2, 1)
    assert nu_of_composition((0, 0)) == ()
