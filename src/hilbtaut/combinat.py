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
Its cached walk builds the maps one slot layer at a time, and computes
each map's H-key (its sorted masks) once, as one interned tuple per
distinct key.  Orbits are then grouped by key, with no sort per map:
the first member of an orbit hands its id to every key reached from its
own by two relabellings that generate S_n (to its own key alone under
H), and every later map finds its orbit by one lookup of its own key.

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
def _maps_by_level(n: int, k: int) -> dict[int, tuple[tuple, tuple]]:
    """All maps with k(a) <= 2, bucketed by l(a): per level, the maps and
    their H-keys as two parallel tuples.

    A map is the tuple of its image bitmasks, slot by slot, and its
    H-key is that tuple sorted.  The k(a) <= 2 condition is that the
    union of the non-singleton images stays within two points.  That
    union, like the level, depends on the key alone, and so do the
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


def orbits(n: int, k: int, l: int, group: str) -> list[list[tuple[int, ...]]]:
    """Brute-force orbit partition of I^l under H or G x H.

    Each member is a map as the tuple of its image bitmasks.  H permutes
    slots, so a map's H-key, the sorted tuple of its masks, computed
    once in the cached walk, names its H-orbit.  G x H also relabels
    points, and I^l is stable under it (l(a) and k(a) are invariants),
    so every relabelling of an enumerated map is enumerated too.  The
    orbits are therefore closed in one walk: a map whose H-key is unseen
    opens a new orbit, whose id goes to every key reached from its own
    by relabelling with the transposition (1 2) and the n-cycle, which
    generate S_n (under H, to its own key alone).  The partition comes
    from the group action alone, entirely independent of the label-set
    constructions above.  Orbits are listed in order of their first
    member, members in enumeration order.
    Hard error when n! * k! exceeds the cap; `verify --suite
    combinatorics` and the tests run it against the closed forms.
    """
    if factorial(n) * factorial(k) > BRUTE_FORCE_GROUP_CAP:
        raise ValueError("group too large for brute-force enumeration")
    if group not in ("H", "GxH"):
        raise ValueError("group must be 'H' or 'GxH'")
    maps, keys = _maps_by_level(n, k).get(l, ((), ()))
    if not maps:
        return []
    gens = []
    if group == "GxH" and n > 1:
        points = tuple(range(1, n + 1))
        gens = [_relabel_table((2, 1) + points[2:]),
                _relabel_table(points[1:] + (1,))]
    orbit_of: dict[tuple[int, ...], int] = {}
    out: list[list[tuple[int, ...]]] = []
    for a, key in zip(maps, keys):
        i = orbit_of.get(key)
        if i is None:
            i = orbit_of[key] = len(out)
            out.append([])
            todo = [key]
            while todo:
                reached = todo.pop()
                for f in gens:
                    image = tuple(sorted(map(f, reached)))
                    if image not in orbit_of:
                        orbit_of[image] = i
                        todo.append(image)
        out[i].append(a)
    return out
