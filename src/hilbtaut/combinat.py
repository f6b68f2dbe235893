"""Compositions, partitions, multi-index maps and their orbit bookkeeping.

Two symmetric groups act throughout: G = S_n permutes the n points and
H = S_k permutes the k tensor factors, with (sigma, tau).a = sigma a tau^-1
on maps a from factor slots to point subsets.  This module fixes the
enumeration orders once (reverse lexicographic for compositions, refined
order for partitions), unfolds the invariants A, J, S0, lambda, l, k, t
of a multi-index map, builds the label sets B(k,l), A(k,l), A0(k,l) that
index every direct-sum decomposition downstream, and evaluates stabilizer
orders in closed form.

A capped brute-force orbit enumerator is included, so that the tests
and `verify --suite combinatorics` can cross-check the closed-form
counts against an independent computation.  Its cached walk builds
the maps one slot layer at a time, unvalidated, as it makes only valid
ones, and computes each map's H-key (its sorted image bitmasks) once,
as one interned tuple per distinct key.  Orbits are then grouped by
key, with no sort per map: the first member of an orbit hands its id
to its key relabelled by every sigma in S_n (only the identity under
H), and every later map finds its orbit by one lookup of its own key.

Points are 1-based everywhere.  A permutation of {1..m} is a tuple p of
length m with p[i-1] = p(i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    for first in range(min(k, max_part), 0, -1):
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
# multi-index maps


@lru_cache(maxsize=None)
def _points(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1))


@dataclass(frozen=True, slots=True)
class MultiIndexMap:
    """A map a from factor slots {1..k} to nonempty subsets of {1..n}.

    Built from outside data, it checks its images; the orbit walk builds
    its own maps through _unchecked_map.
    """

    n: int
    images: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not all(self.images):
            raise ValueError("images must be nonempty")
        if not _points(self.n).issuperset(frozenset().union(*self.images)):
            raise ValueError("image out of range")

    @property
    def k(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class MapInvariants:
    """The derived quantities of a multi-index map.

    A: union of all images of size >= 2.
    J: union of all singleton images.
    S0: slots whose image equals A itself.
    lam: dense length-n vector, lam[j-1] = number of slots with image {j}.
    l: total image size minus k.  k: max(0, 2(|A|-1)).  t: |A & J|.
    """

    A: frozenset[int]
    J: frozenset[int]
    S0: frozenset[int]
    lam: tuple[int, ...]
    l: int
    k: int
    t: int


def multiindex_invariants(a: MultiIndexMap) -> MapInvariants:
    big = [im for im in a.images if len(im) >= 2]
    A = frozenset().union(*big) if big else frozenset()
    singles = [im for im in a.images if len(im) == 1]
    J = frozenset().union(*singles) if singles else frozenset()
    lam = tuple(
        sum(1 for im in a.images if len(im) == 1 and j in im)
        for j in range(1, a.n + 1)
    )
    S0 = frozenset(i for i in range(1, a.k + 1) if a.images[i - 1] == A and A)
    l = sum(len(im) for im in a.images) - a.k
    kk = max(0, 2 * (len(A) - 1))
    return MapInvariants(A=A, J=J, S0=S0, lam=lam, l=l, k=kk, t=len(A & J))


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
# stabilizers


def _block_factor(values) -> int:
    """Product of (multiplicity)! over groups of equal values."""
    out = 1
    for _, grp in itertools.groupby(sorted(values)):
        out *= factorial(sum(1 for _ in grp))
    return out


def stabilizer_order(a: MultiIndexMap, group: str = "H") -> int:
    """Order of the stabilizer of a, by the closed product formula.

    For H: |S0|! times the product of lam_j! over singleton points j.
    For GxH: additionally the permutations of untouched points, of
    points of A carrying no singleton, and the diagonal shuffles of
    equal-multiplicity points inside A & J and J - A.

    Only maps with k(a) <= 2 are accepted; the formula is proved on I^l,
    where every image of size >= 2 equals A itself.
    """
    inv = multiindex_invariants(a)
    if inv.k > 2:
        raise ValueError("stabilizer formula requires k(a) <= 2")
    h_order = factorial(len(inv.S0))
    for j in inv.J:
        h_order *= factorial(inv.lam[j - 1])
    if group == "H":
        return h_order
    if group != "GxH":
        raise ValueError("group must be 'H' or 'GxH'")
    untouched = a.n - len(inv.A | inv.J)
    order = h_order * factorial(untouched) * factorial(len(inv.A - inv.J))
    order *= _block_factor(inv.lam[j - 1] for j in inv.A & inv.J)
    order *= _block_factor(inv.lam[j - 1] for j in inv.J - inv.A)
    return order


# ---------------------------------------------------------------------------
# plain permutation helpers


def all_permutations(m: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(1, m + 1))]


# ---------------------------------------------------------------------------
# brute-force orbit enumeration (cross-check of the closed forms)


def _subset_pool(n: int) -> list[frozenset[int]]:
    return [frozenset(s) for m in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), m)]


def _unchecked_map(n: int, images: tuple[frozenset[int], ...]) -> MultiIndexMap:
    """A MultiIndexMap without __post_init__'s checks, for maps the walk
    below makes valid by construction."""
    a = object.__new__(MultiIndexMap)
    object.__setattr__(a, "n", n)
    object.__setattr__(a, "images", images)
    return a


@lru_cache(maxsize=None)
def _maps_by_level(n: int, k: int) -> dict[int, tuple[tuple, tuple]]:
    """All maps with k(a) <= 2, bucketed by l(a): per level, the maps and
    their H-keys as two parallel tuples.

    A map's H-key is the sorted tuple of its images as bitmasks.  The
    k(a) <= 2 condition is that the union of the non-singleton images
    stays within two points.  That union, like the level, depends on the
    key alone, and so do the images a prefix may take next.  The
    children of each distinct key are listed once, in subset-pool order,
    each with its own key, interned so that equal keys are one tuple.
    Every prefix of a layer is extended by the children its key lists,
    and the maps are never validated: every image is a nonempty subset
    of {1..n}.  Prefixes stay in the order of the plain product walk
    over the pool, restricted to the survivors, and so do the maps in
    each bucket.
    """
    pool = [(s, sum(1 << j - 1 for j in s)) for s in _subset_pool(n)]
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
            for im, m in pool:
                if (union | m if m & (m - 1) else union).bit_count() <= 2:
                    new = tuple(sorted(key + (m,)))
                    new = known.setdefault(new, (new, level + len(im) - 1))[0]
                    out.append((im, new))
        return out

    layer = [((), ())]
    for _ in range(k):
        layer = [(prefix + (im,), new)
                 for prefix, key in layer for im, new in kids(key)]
    buckets: dict[int, tuple[list, list]] = {}
    for images, key in layer:
        maps, keys = buckets.setdefault(known[key][1], ([], []))
        maps.append(_unchecked_map(n, images))
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


def orbits(n: int, k: int, l: int, group: str = "GxH") -> list[list[MultiIndexMap]]:
    """Brute-force orbit partition of I^l under H or G x H.

    H permutes slots, so a map's H-key, the sorted tuple of its images
    taken as bitmasks and computed once in the cached walk, names its
    H-orbit.  G x H also relabels points, and I^l is stable under it
    (l(a) and k(a) are invariants), so every relabelling of an
    enumerated map is enumerated too.  The orbits are therefore closed
    in one walk: a map whose H-key is unseen opens a new orbit, whose id
    goes to the relabelled keys of all sigma in S_n, each bitmask mapped
    to that of its image under sigma.  The partition comes from the
    group action alone, entirely independent of the label-set
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
    sigmas = all_permutations(n) if group == "GxH" else [tuple(range(1, n + 1))]
    relabel = [_relabel_table(sigma) for sigma in sigmas]
    orbit_of: dict[tuple[int, ...], int] = {}
    out: list[list[MultiIndexMap]] = []
    for a, key in zip(maps, keys):
        i = orbit_of.get(key)
        if i is None:
            i = len(out)
            out.append([])
            for f in relabel:
                orbit_of.setdefault(tuple(sorted(map(f, key))), i)
        out[i].append(a)
    return out
