"""Compositions, partitions, multi-index maps and their orbit bookkeeping.

Two symmetric groups act throughout: G = S_n permutes the n points and
H = S_k permutes the k tensor factors, with (sigma, tau).a = sigma a tau^-1
on maps a from factor slots to point subsets.  This module fixes the
enumeration orders once (reverse lexicographic for compositions, refined
order for partitions), builds the label sets B(k,l), A(k,l), A0(k,l) that
index every direct-sum decomposition downstream, and evaluates stabilizer
orders in closed form.

A multi-index map is the tuple of its image bitmasks, slot by slot,
with point j at bit j - 1, and every function here takes and returns
maps in that one format.  A capped brute-force orbit enumerator is
included, so that the tests and `verify --suite combinatorics` can
cross-check the closed-form counts against an independent computation.
It never lists a map.  Its cached walk builds one slot layer at a time
with prefixes merged by H-key (a map's sorted masks), keeping per key
the number of maps that reach it, and every k on n points extends the
same layers.  Each orbit is then one (representative, size) pair: a
key not yet reached opens it and is its representative, and its size
is the sum of the counts of every key reached from that one by two
relabellings that generate S_n (its own key alone under H).

Points are 1-based everywhere.  A permutation of {1..m} is a tuple p of
length m with p[i-1] = p(i).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from operator import sub

BRUTE_FORCE_GROUP_CAP = 100_000


@lru_cache(maxsize=None)
def _compositions(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Compositions of k into n parts, reverse lexicographic.

    The partial sums c1, c1 + c2, ... of the first n - 1 parts run over
    the weakly increasing tuples in 0..k, and in lexicographic order they
    give the compositions in lexicographic order.  Iterative, so n is
    not bounded by the recursion limit.
    """
    sums = list(itertools.combinations_with_replacement(range(k + 1), n - 1))
    return tuple(tuple(map(sub, cuts + (k,), (0,) + cuts)) for cuts in reversed(sums))


def enumerate_compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """All length-n vectors of nonnegative integers summing to k.

    Ordered reverse-lexicographically: (2,0), (1,1), (0,2).
    """
    if n < 1:
        raise ValueError("range n must be at least 1")
    if k < 0:
        raise ValueError("weight k must be nonnegative")
    return list(_compositions(n, k))


@lru_cache(maxsize=None)
def _partitions(k: int, max_part: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),)
    if max_len == 0 or max_part == 0:
        return ()
    out = []
    # a first part below ceil(k / max_len) leaves too much for the rest
    for first in range(min(k, max_part), -(-k // max_len) - 1, -1):
        out.extend(
            (first,) + rest for rest in _partitions(k - first, first, max_len - 1)
        )
    return tuple(out)


def refined_key(mu) -> tuple:
    """Sort key realizing the refined order: length first, then rlex."""
    return (len(mu), tuple(-p for p in mu))


def enumerate_partitions(k: int, n: int) -> list[tuple[int, ...]]:
    """Partitions of k with at most n parts, listed in refined order."""
    if k < 0:
        raise ValueError("weight k must be nonnegative")
    if n < 1:
        raise ValueError("length bound n must be at least 1")
    return sorted(_partitions(k, k, n), key=refined_key)


def m_mu(mu) -> int:
    """The exponent datum of a partition: 0 for one part, else the last part.

    For mu with l(mu) >= 2 the parts are weakly decreasing, so the last
    part is min over the parts from the second on.
    """
    mu = tuple(mu)
    if not mu:
        raise ValueError("m_mu is undefined for the empty partition")
    return 0 if len(mu) == 1 else mu[-1]


# ---------------------------------------------------------------------------
# label sets


def quotient_B(k: int, l: int, n: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """The label set B(k,l) of H-orbits on I^l.

    Pairs (lambda, A) with lambda a composition of k-l of range n and
    |A| = min(2, 2l).  Ordering: pairs A lexicographically, compositions
    in rlex within each A.
    """
    if not 0 <= l <= k:
        raise ValueError("need 0 <= l <= k")
    if l == 0:
        return [(lam, frozenset()) for lam in enumerate_compositions(n, k)]
    if n < 2:
        return []
    out = []
    for pair in itertools.combinations(range(1, n + 1), 2):
        A = frozenset(pair)
        out.extend((lam, A) for lam in enumerate_compositions(n, k - l))
    return out


def _A_sort_key(pair):
    lam, mu = pair
    return (sum(mu), refined_key(lam), refined_key(mu))


def quotient_A(k: int, l: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The label set A(k,l) of (G x H)-orbits on I^l.

    Pairs of partitions (lam, mu) with |lam| + |mu| = k - l, l(lam) at
    most min(2, 2l), and mu fitting on the points outside A (length at
    most n - |A|).  Ordered by |mu| ascending, then refined order on lam,
    then on mu.
    """
    if not 0 <= l <= k:
        raise ValueError("need 0 <= l <= k")
    if l == 0:
        return [((), mu) for mu in enumerate_partitions(k, n)]
    if n < 2:
        return []
    out = []
    for wl in range(0, k - l + 1):
        for lam in _partitions(wl, wl, 2):
            for mu in _partitions(k - l - wl, k - l - wl, n - 2):
                out.append((lam, mu))
    return sorted(out, key=_A_sort_key)


def quotient_A0(
    k: int, l: int, n: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A0(k,l): the labels of A(k,l) with lam nonzero and not of shape (h,h)."""
    if not 1 <= l <= k - 1:
        raise ValueError("need 1 <= l <= k-1")
    return [
        (lam, mu)
        for (lam, mu) in quotient_A(k, l, n)
        if lam and not (len(lam) == 2 and lam[0] == lam[1])
    ]


# ---------------------------------------------------------------------------
# stabilizers of multi-index maps


def _block_factor(values) -> int:
    """Product of (multiplicity)! over groups of equal values."""
    out = 1
    for _, grp in itertools.groupby(sorted(values)):
        out *= factorial(sum(1 for _ in grp))
    return out


def stabilizer_order(n: int, a: tuple[int, ...], group: str) -> int:
    """Order of the stabilizer of the map a, its image bitmasks, on n
    points, by the closed product formula.

    A and J are the unions of the non-singleton and of the singleton
    images, lam_j the number of slots with image {j}, S0 the slots with
    image A.  For H: |S0|! times the product of lam_j! over j in J.
    For GxH: additionally the permutations of untouched points, of
    points of A carrying no singleton, and the diagonal shuffles of
    equal-multiplicity points inside A & J and J - A.

    Only maps with k(a) <= 2, that is |A| <= 2, are accepted; the
    formula is proved on I^l, where every non-singleton image equals A,
    so |S0| is the number of non-singleton slots.
    """
    if group not in ("H", "GxH"):
        raise ValueError("group must be 'H' or 'GxH'")
    A = J = big = 0
    lam: dict[int, int] = {}  # mask of {j} -> lam_j
    for m in a:
        if not 0 < m < 1 << n:
            raise ValueError("image mask out of range")
        if m & (m - 1):
            A |= m
            big += 1
        else:
            J |= m
            lam[m] = lam.get(m, 0) + 1
    if A.bit_count() > 2:
        raise ValueError("stabilizer formula requires k(a) <= 2")
    order = factorial(big)
    for mult in lam.values():
        order *= factorial(mult)
    if group == "H":
        return order
    order *= factorial(n - (A | J).bit_count()) * factorial((A & ~J).bit_count())
    order *= _block_factor(mult for m, mult in lam.items() if m & A)
    order *= _block_factor(mult for m, mult in lam.items() if not m & A)
    return order


# ---------------------------------------------------------------------------
# brute-force orbit enumeration (cross-check of the closed forms)


@lru_cache(maxsize=None)
def _layer(n: int, k: int) -> dict[tuple[int, ...], int]:
    """The H-keys of the maps on k slots with k(a) <= 2, each with the
    number of maps that have it, in the order of each key's first map.

    A map is the tuple of its image bitmasks, slot by slot, and its
    H-key is that tuple sorted.  The k(a) <= 2 condition is that the
    union of the non-singleton images stays within two points.  That
    union depends on the key alone, and so do the images a prefix may
    take next, so prefixes are merged by key: layer k extends each key
    of layer k - 1, once, by every mask of the pool (every nonempty
    subset of {1..n}, by size and then lexicographically) that keeps
    the condition, and adds its count to the child's.  Keys are taken
    in layer order and children in pool order, so a key first appears
    where its first map does in the plain product walk over the pool,
    restricted to the survivors.  Each layer is cached, and every k on
    n points extends the same ones.
    """
    if k == 0:
        return {(): 1}
    pool = [sum(1 << j - 1 for j in s) for size in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), size)]
    out: dict[tuple[int, ...], int] = {}
    for key, count in _layer(n, k - 1).items():
        union = 0
        for m in key:
            if m & (m - 1):
                union |= m
        for m in pool:
            if (union | m if m & (m - 1) else union).bit_count() <= 2:
                new = tuple(sorted(key + (m,)))
                out[new] = out.get(new, 0) + count
    return out


@lru_cache(maxsize=None)
def _keys_by_level(n: int, k: int) -> dict[int, dict[tuple[int, ...], int]]:
    """The layer of k slots bucketed by l(a), the image sizes summed
    minus k, each bucket in layer order."""
    buckets: dict[int, dict[tuple[int, ...], int]] = {}
    for key, count in _layer(n, k).items():
        buckets.setdefault(sum(map(int.bit_count, key)) - k, {})[key] = count
    return buckets


def _relabel_table(sigma: tuple[int, ...]):
    """The lookup from the bitmask of a set of points (point j is bit
    j - 1) to that of its image under sigma, filled in one pass, each
    mask from the mask without its lowest point.  The group cap keeps
    n <= 8, so every mask fits in a byte."""
    table = bytearray(1 << len(sigma))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | 1 << sigma[low.bit_length() - 1] - 1
    return table.__getitem__


def orbits(n: int, k: int, l: int, group: str) -> list[tuple[tuple[int, ...], int]]:
    """Brute-force orbit partition of I^l under H or G x H, as one
    (representative, size) pair per orbit.

    H permutes slots, so a map's H-key, the sorted tuple of its image
    bitmasks, names its H-orbit, whose size is the number of maps with
    that key, counted by the cached walk.  G x H also relabels points,
    and I^l is stable under it (l(a) and k(a) are invariants), so every
    relabelling of a walked key is walked too.  The orbits are therefore
    closed in one pass over the keys: a key not yet reached opens a new
    orbit, which takes every key reached from its own by relabelling
    with the transposition (1 2) and the n-cycle, which generate S_n
    (under H, its own key alone), and sums their counts.  The partition
    comes from the group action alone, entirely independent of the
    label-set constructions above.  Orbits are listed in order of their
    first map in the plain product walk, each represented by that map's
    H-key, which stabilizer_order reads as the same multiset of masks.
    Hard error when n! * k! exceeds the cap; `verify --suite
    combinatorics` and the tests run it against the closed forms.
    """
    if factorial(n) * factorial(k) > BRUTE_FORCE_GROUP_CAP:
        raise ValueError("group too large for brute-force enumeration")
    if group not in ("H", "GxH"):
        raise ValueError("group must be 'H' or 'GxH'")
    counts = _keys_by_level(n, k).get(l)
    if not counts:
        return []
    gens = []
    if group == "GxH" and n > 1:
        points = tuple(range(1, n + 1))
        gens = [_relabel_table((2, 1) + points[2:]),
                _relabel_table(points[1:] + (1,))]
    reached: set[tuple[int, ...]] = set()
    out = []
    for key in counts:
        if key in reached:
            continue
        reached.add(key)
        size = 0
        todo = [key]
        while todo:
            other = todo.pop()
            size += counts[other]
            for f in gens:
                image = tuple(sorted(map(f, other)))
                if image not in reached:
                    reached.add(image)
                    todo.append(image)
        out.append((key, size))
    return out
