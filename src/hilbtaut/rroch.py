"""Surface lattice models, Riemann-Roch, and the closed chi formulas.

A surface is modeled by its Picard-lattice slice: an intersection form,
the canonical class K, chi of the structure sheaf, and the Euler number
c2, tied together by Noether's relation K^2 + c2 = 12 chiO.  Bundle
classes are lattice vectors.  Every Euler characteristic the formulas
below use is chi(S^l Omega otimes L^p otimes A^q), which Hirzebruch-
Riemann-Roch makes one integer quadratic in (p, q): the surface enters
only through L^2, L.A, A^2, L.K, A.K, K^2, c2 and chiO.

On top of that sit the closed formulas for chi of the symmetric powers
S^k of a tautological bundle, twisted by the natural line bundle of a
class A (numerically: A tensored into every factor):

* a two-point formula valid for every k,
* for k <= 4 and every number of points, one sum over the j <= k
  points a graded piece of the filtration lives on:
  chi_{n,k} = sum_j c_j C(chi(A) + n - j - 1, n - j), where a binomial
  with negative lower index vanishes, dropping the parts that need more
  points than there are.  So (1 - z)^chi(A) sum_n chi_{n,k} z^n is the
  polynomial c_0 + c_1 z + ... + c_k z^k of degree <= k, a bound that
  is open past k = 4; per k, only the list of c_j is written out,
* the per-partition graded pieces in the two-point case, whose sum
  telescopes to the first formula.

The k = 2 any-n formula is *derived* (two-step filtration plus the sign
of the flip on the conormal ideal), not quoted; it specializes to the
two-point formula exactly and is cross-checked in the tests.

All formulas are lattice-generic, so randomized cross-validation over
models is meaningful.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

Vec = tuple[int, ...]


def binom_int(x: int, h: int) -> int:
    """The binomial as an integer polynomial in x: zero when h < 0.

    For x < 0, C(x, h) = (-1)^h C(h - x - 1, h).
    """
    if h < 0:
        return 0
    if x >= 0:
        return comb(x, h)
    return (-1) ** h * comb(h - x - 1, h)


class SurfaceModel(namedtuple("SurfaceModel", "name rank intersection K chiO c2")):
    """Numerical invariants of a smooth projective surface.

    intersection is the Gram matrix of the modeled Picard slice; K the
    canonical class in that basis.  Noether's relation is enforced at
    construction, and so is that K is characteristic: M.(M - K) is even
    for every class M, which holds exactly when m_ii = K.e_i mod 2 for
    each generator e_i.  An inconsistent model never produces a chi.
    """

    __slots__ = ()
    # _replace builds through _make, which would skip the checks below
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, name: str, rank: int, intersection: tuple[tuple[int, ...], ...],
                K: Vec, chiO: int, c2: int):
        self = super().__new__(cls, name, rank, intersection, K, chiO, c2)
        m = self.intersection
        if len(m) != self.rank or any(len(row) != self.rank for row in m):
            raise ValueError("intersection matrix must be rank x rank")
        for i in range(self.rank):
            for j in range(self.rank):
                if m[i][j] != m[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
        if len(self.K) != self.rank:
            raise ValueError("K must have one coordinate per lattice generator")
        if self.dot(self.K, self.K) + self.c2 != 12 * self.chiO:
            raise ValueError(
                f"model {self.name!r} violates Noether: "
                f"K^2 + c2 = {self.dot(self.K, self.K) + self.c2}, "
                f"12 chiO = {12 * self.chiO}"
            )
        for i, row in enumerate(m, start=1):
            if (row[i - 1] - sum(k * x for k, x in zip(self.K, row))) % 2:
                raise ValueError(
                    f"model {self.name!r} has a non-characteristic K: "
                    f"e{i}.e{i} - K.e{i} is odd"
                )
        return self

    def dot(self, u, v) -> int:
        return sum(
            u[i] * self.intersection[i][j] * v[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )


def _vec(v, rank: int) -> Vec:
    v = tuple(int(x) for x in v)
    if len(v) != rank:
        raise ValueError(f"bundle class must have {rank} coordinates")
    return v


BUILTIN_SURFACES = {
    "p2": SurfaceModel("p2", 1, ((1,),), (-3,), 1, 3),
    "p1xp1": SurfaceModel("p1xp1", 2, ((0, 1), (1, 0)), (-2, -2), 1, 4),
    "k3": SurfaceModel("k3", 1, ((4,),), (0,), 2, 24),
    "abelian": SurfaceModel("abelian", 1, ((2,),), (0,), 0, 0),
}


def get_surface(name: str) -> SurfaceModel:
    try:
        return BUILTIN_SURFACES[name]
    except KeyError:
        raise ValueError(
            f"unknown surface {name!r}; builtins: {sorted(BUILTIN_SURFACES)}"
        ) from None


def load_surface(path) -> SurfaceModel:
    """Build a SurfaceModel from a JSON file.

    Expected object: {"name": str, "rank": int, "intersection": [[int]],
    "K": [int], "chiO": int, "c2": int}.  A missing or wrongly typed
    field, such as a float, null or string for an int, raises ValueError
    naming it, and so does a file nested too deeply for the JSON decoder.
    Noether violations are rejected here, at load time.
    """
    import json  # here alone: a start that reads no file does not load it

    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("surface model JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("surface model must be a JSON object")
    try:
        fields = {f: _typed(data[f], want, f) for f, want in _MODEL_FIELDS.items()}
    except KeyError as missing:
        raise ValueError(f"surface model missing field {missing}") from None
    return SurfaceModel(**fields)


_MODEL_FIELDS = {"name": str, "rank": int, "intersection": [[int]], "K": [int],
                 "chiO": int, "c2": int}


def _typed(value, want, field: str):
    """value checked against want, a type or [type] for a list of them.
    Types match exactly, since int() would take a bool, float or string."""
    if not isinstance(want, list):
        if type(value) is not want:
            raise ValueError(
                f"surface model field {field!r} must be {want.__name__}, got {value!r}"
            )
        return value
    if not isinstance(value, list):
        raise ValueError(f"surface model field {field!r} must be a list, got {value!r}")
    return tuple(_typed(x, want[0], field) for x in value)


# ---------------------------------------------------------------------------
# Riemann-Roch


def chi_twists(s: SurfaceModel, L, A):
    """chi(S^l Omega otimes L^p otimes A^q) as a function of (l, p, q).

    Hirzebruch-Riemann-Roch on the Chern roots i a + (l - i) b of S^l
    Omega, where a + b = K and ab = c2, twisted by M = pL + qA:

        (l+1) chiO + C(l+1, 3) K^2 - C(l+2, 3) c2
            + (l+1) (M^2 - M.K)/2 + C(l+1, 2) M.K.

    So only L^2, L.A, A^2, L.K and A.K enter, read here once.  M^2 - M.K
    is even because the model's K is characteristic.
    """
    L, A = _vec(L, s.rank), _vec(A, s.rank)
    LL, LA, AA = s.dot(L, L), s.dot(L, A), s.dot(A, A)
    LK, AK, KK = s.dot(L, s.K), s.dot(A, s.K), s.dot(s.K, s.K)

    def chi(l: int, p: int, q: int) -> int:
        MK = p * LK + q * AK
        half = (p * p * LL + 2 * p * q * LA + q * q * AA - MK) // 2
        return ((l + 1) * (s.chiO + half) + comb(l + 1, 3) * KK
                - comb(l + 2, 3) * s.c2 + comb(l + 1, 2) * MK)

    return chi


# ---------------------------------------------------------------------------
# the closed chi formulas


def chi_sym_power_n2(s: SurfaceModel, k: int, L, A) -> int:
    """The two-point formula, any k >= 0."""
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


def _point_parts(om, k: int) -> list[int]:
    """c_0 ... c_k, the j-point parts of the k <= 4 formula, read off
    om = chi_twists(s, L, A)."""
    chi = lambda p, q: om(0, p, q)
    if k == 0:
        return [1]
    if k == 1:
        return [0, chi(1, 1)]
    if k == 2:
        return [0, chi(2, 1), binom_int(chi(1, 1) + 1, 2) - chi(2, 2)]
    if k == 3:
        return [
            0,
            chi(3, 1),
            chi(2, 1) * chi(1, 1) - chi(3, 2) - om(1, 3, 2),
            binom_int(chi(1, 1) + 2, 3) - chi(2, 2) * chi(1, 1) + om(1, 3, 3),
        ]
    # k == 4: Omega (x) Omega = S^2 Omega + K, and Serre duality turns
    # chi(K + M) into chi(-M)
    chi_omom = om(2, 4, 3) + chi(-4, -3)
    chi_K = chi(-4, -4)
    return [
        0,
        chi(4, 1),
        (chi(3, 1) * chi(1, 1)
         - 2 * chi(4, 2)
         - om(1, 4, 2)
         + binom_int(chi(2, 1) + 1, 2)
         - om(2, 4, 2)),
        (chi(2, 1) * binom_int(chi(1, 1) + 1, 2)
         - chi(3, 2) * chi(1, 1)
         - chi(2, 2) * chi(2, 1)
         + chi(4, 3)
         - om(1, 3, 2) * chi(1, 1)
         + 2 * om(1, 4, 3)
         + chi_omom
         + om(3, 4, 3)),
        (binom_int(chi(1, 1) + 3, 4)
         - chi(2, 2) * binom_int(chi(1, 1) + 1, 2)
         + binom_int(chi(2, 2), 2)
         + om(1, 3, 3) * chi(1, 1)
         - om(1, 4, 4)
         - chi_K
         - om(3, 4, 4)),
    ]


def chi_sym_power_smallk(s: SurfaceModel, n: int, k: int, L, A) -> int:
    """The per-k formulas, k <= 4, any n >= 1.

    chi_{n,k} = sum over j <= k of c_j C(chi(A) + n - j - 1, n - j): the
    part c_j lives on j points, and its prefactor is chi(D_A) on the
    other n - j.  A part that needs more than n points has a negative
    lower index and vanishes, which is exactly the right truncation.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= 4:
        raise ValueError("closed per-k formulas exist for k <= 4 only")
    om = chi_twists(s, L, A)
    cA = om(0, 0, 1)
    return sum(binom_int(cA + n - j - 1, n - j) * c
               for j, c in enumerate(_point_parts(om, k)) if c)


def chi_sym_power(s: SurfaceModel, n: int, k: int, L, A) -> int:
    """chi of the k-th symmetric power on n points, twisted by A.

    Supported: n = 2 with any k >= 0, or 0 <= k <= 4 with any n >= 1.
    Everything else has no closed formula here and raises.
    """
    if n == 2:
        return chi_sym_power_n2(s, k, L, A)
    if n >= 1 and 0 <= k <= 4:
        return chi_sym_power_smallk(s, n, k, L, A)
    raise ValueError(f"unsupported (n, k) = ({n}, {k}): need n = 2 or k <= 4")


def chi_graded_piece_n2(s: SurfaceModel, k: int, j: int, L, A) -> int:
    """chi of the graded piece labeled (k-j, j) in the two-point filtration.

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

