"""Sign-isotypic dimensions for wedge powers, and two tensor identities.

First half: for V of dimension 2, the dimensions of the anti-invariant
parts of Lambda^q(V (x) R_k) and Lambda^q(V (x) rho_k), where R_k is the
permutation representation of S_k and rho_k the standard one.  These are
plain character averages, run over cycle types with exact integer
polynomial arithmetic; a non-integral average would mean a bug and is
detected immediately.  The rho_k series is not averaged again: since
R_k = rho_k + 1, it is the R_k series divided exactly by 1 + t, once
per dimension of V.

Second half: small wedge and symmetric powers are realized inside
tensor powers with integer coefficients (wedges and symmetric products
as unnormalized alternating and symmetrizing sums).  The hats, each a
division by the factorial that makes a basis vector primitive, only
rescale tensors: they are applied as one rational on the final
constant.  In that model the code checks, coefficient by coefficient,

* two closed expressions for the sign generator omega_{k-1} of the top
  wedge of rho_k, and
* that the induced map out of the sum of one-letter-deleted wedge
  spaces restricts, on invariants and in the hatted bases, to exactly
  (k-1) times symmetrization.

The identification used in the second check depends on a choice of
basis vectors and is canonical only up to a positive scalar; whatever
scalar comes out is returned, never silently absorbed.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import factorial

from .combinat import _partitions
from .linalg import _add_into, scalar_multiple

# ---------------------------------------------------------------------------
# character arithmetic over cycle types


def cycle_types(k: int):
    """All cycle types of S_k as (partition, class size, sign) triples."""
    out = []
    for lam in _partitions(k, k, k):
        z = 1
        mult: dict[int, int] = {}
        for p in lam:
            mult[p] = mult.get(p, 0) + 1
        for p, m in mult.items():
            z *= p**m * factorial(m)
        size = factorial(k) // z
        sign = (-1) ** (k - len(lam))
        out.append((lam, size, sign))
    return out


# V is a plane, so the invariant line of R_k gives V (x) R_k the factor
# det(1 + t) = (1 + t)^2 in every class's characteristic polynomial
_DIM_V = 2


def _det_one_plus_t(lam):
    """det(1 + t sigma) on V (x) R_k for sigma of cycle type lam:
    the product over cycles of (1 - (-t)^c), raised to dim V."""
    poly = [1]
    for c in lam:
        for _ in range(_DIM_V):
            poly = [a + (-1) ** (c + 1) * b for a, b in zip(poly + [0] * c, [0] * c + poly)]
    return poly


def antiinv_dims_R(k: int) -> tuple[int, ...]:
    """Anti-invariant dimensions of Lambda^q(V (x) R_k), all q at once.

    Entry q of the result is the coefficient of t^q in the average over
    S_k of sign(sigma) det(1 + t sigma), which must clear k!.  The sum
    is accumulated one cycle type at a time, so one class polynomial is
    held at once; the polynomials share one length.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    total: list[int] = []
    for lam, size, sign in cycle_types(k):
        poly = _det_one_plus_t(lam)
        if not total:
            total = [0] * len(poly)
        w = size * sign
        for q, c in enumerate(poly):
            if c:
                total[q] += w * c
    kfac = factorial(k)
    if any(c % kfac for c in total):
        raise AssertionError("character average is not integral")
    return tuple(c // kfac for c in total)


def rho_from_R(dims) -> tuple[int, ...]:
    """The series of antiinv_dims_R for the standard summand rho_k, from
    antiinv_dims_R(k)'s.

    R_k = rho_k + 1, and averaging is linear, so the series for R_k is
    divided exactly by (1 + t)^dim V, the contribution of the invariant
    line, one factor 1 + t at a time.  Raises AssertionError if a
    division leaves a remainder.
    """
    for _ in range(_DIM_V):
        quot = [0]
        for c in dims:
            quot.append(c - quot[-1])
        if quot.pop():
            raise AssertionError("inexact polynomial division")
        dims = quot[1:]
    return tuple(dims)


# ---------------------------------------------------------------------------
# explicit tensor model

# tensors are sparse dicts {word: int}; a word is a tuple of basis
# letters, one per slot


def _scale(d, c):
    if not c:
        return {}
    return {w: c * v for w, v in d.items()}


def _tensor(d1, d2):
    # words of one tensor share a length, so w1 + w2 never collides
    return {w1 + w2: v1 * v2 for w1, v1 in d1.items() for w2, v2 in d2.items()}


def _perm_sign(pi) -> int:
    sign = 1
    for i in range(len(pi)):
        for j in range(i + 1, len(pi)):
            if pi[i] > pi[j]:
                sign = -sign
    return sign


@cache
def _signed_permutations(m: int) -> tuple:
    """Every permutation pi of range(m), in permutations' order, with its
    sign: (pi, sign) pairs, tabulated once per m."""
    return tuple((pi, _perm_sign(pi)) for pi in permutations(range(m)))


def _alt_unnorm(d, m: int):
    """Sum over all slot permutations with sign, no normalization."""
    out: dict = {}
    for pi, sign in _signed_permutations(m):
        for w, v in d.items():
            moved = tuple(map(w.__getitem__, pi))
            nv = out.get(moved, 0) + sign * v
            if nv:
                out[moved] = nv
            else:
                out.pop(moved, None)
    return out


def _sym_unnorm(letters):
    """Unnormalized symmetrization of a word, as a tensor."""
    out: dict = {}
    for pi in permutations(letters):
        out[pi] = out.get(pi, 0) + 1
    return out


def omega_on(letters) -> dict:
    """The alternating generator on a letter set: the signed sum of the
    wedges of all one-letter-deleted subwords."""
    letters = tuple(letters)
    m = len(letters)
    out: dict = {}
    for i in range(m):
        sub = letters[:i] + letters[i + 1 :]
        _add_into(out, _alt_unnorm({sub: 1}, m - 1), (-1) ** (m - 1 - i))
    return out


def _map_letters(d, table):
    """d with every letter of every word replaced through table, a
    sequence or dict indexed by letter."""
    image = table.__getitem__
    return {tuple(map(image, w)): v for w, v in d.items()}


def _transposition(i: int, j: int, k: int) -> list:
    """The letter table of the transposition (i j) on the letters 1..k,
    indexed by letter (entry 0 is unused)."""
    table = list(range(k + 1))
    table[i], table[j] = j, i
    return table


def _pair_table(table, k: int) -> dict:
    """The letter table acting on the pair letters (v, j) of V (x) R_k
    through their second entries."""
    return {(v, j): (v, table[j]) for v in (0, 1) for j in range(1, k + 1)}


def verify_omega(k: int) -> bool:
    """Check both closed expressions for omega_{k-1} exactly.

    One: the signed sum over all of S_k acting on the first k-1 basis
    letters.  Two: the signed sum over coset representatives (i k) of
    the last-letter-deleted omega tensored with the invariant vector.
    Raises on any mismatch.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    omega = omega_on(range(1, k + 1))
    # tau = pi + 1 on the letters 1..k, with pi's sign, applied to the
    # letters 1..k-1; those k - 1 values determine tau, so no two words
    # collide
    signed = {tuple(p + 1 for p in pi[: k - 1]): sign
              for pi, sign in _signed_permutations(k)}
    if signed != omega:
        raise AssertionError(f"signed-sum expression fails at k={k}")
    if k >= 2:
        inner = _tensor(
            omega_on(range(1, k)), {(j,): 1 for j in range(1, k)}
        )
        recursed: dict = {}
        for i in range(1, k + 1):
            moved = _map_letters(inner, _transposition(i, k, k))
            _add_into(recursed, moved, 1 if i == k else -1)
        if recursed != omega:
            raise AssertionError(f"coset-sum expression fails at k={k}")
    return True


def _reshuffle(sym_tensor, wedge_tensor):
    """Pair two degree-m tensors slot by slot into one with paired letters;
    zip of two words of length m is injective, so no two pairs collide."""
    return {tuple(zip(w1, w2)): v1 * v2
            for w1, v1 in sym_tensor.items() for w2, v2 in wedge_tensor.items()}


def verify_sym_map(k: int):
    """Reproduce the induced-map computation on invariants and compare
    with (k-1) times symmetrization.

    For every monomial generator u (x) v of S^(k-2)V (x) V the element

        sum over cosets (i k), with sign, of the wedge-embedded
        u . omega-hat tensor v . sigma

    is formed in the tensor power of V (x) R_k.  The embedded monomial
    basis of S^(k-1)V must have nonempty, pairwise disjoint word
    supports, so it is independent, and the element must be a rational
    multiple of the expected product monomial, with one common constant
    across all generators; that constant, a Fraction, is returned (the
    identification is only pinned up to a positive scalar, so it is
    reported rather than asserted to be 1).  Failures raise
    AssertionError.

    The tensors are built in integers, without the hats: omega-hat on
    k - 1 letters and the wedge each divide by (k-2)!, the map by k - 1,
    and the target's omega-hat on k letters by (k-1)!.  Together they
    scale the constant by (k-1)! / ((k-2)!^2 (k-1)) = 1/(k-2)!.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    hats = factorial(k - 2)
    omega_small = omega_on(range(1, k))
    omega_big = omega_on(range(1, k + 1))
    targets = []
    for a in range(k - 1, -1, -1):
        mono = (0,) * a + (1,) * (k - 1 - a)
        targets.append(_reshuffle(_sym_unnorm(mono), omega_big))
    seen: set = set()
    for target in targets:
        if not target or not seen.isdisjoint(target):
            raise AssertionError(f"monomial basis degenerate at k={k}")
        seen.update(target)

    coset_tables = [_pair_table(_transposition(i, k, k), k) for i in range(1, k + 1)]
    swap12_table = _pair_table(_transposition(1, 2, k), k)
    constant = None
    for ua in range(k - 2, -1, -1):
        u = (0,) * ua + (1,) * (k - 2 - ua)
        for v in (0, 1):
            embedded = _reshuffle(_sym_unnorm(u), omega_small)
            appended = _tensor(embedded, {((v, j),): 1 for j in range(1, k)})
            wedge = _alt_unnorm(appended, k - 1)
            total: dict = {}
            for i in range(1, k + 1):
                moved = _map_letters(wedge, coset_tables[i - 1])
                _add_into(total, moved, 1 if i == k else -1)
            # anti-invariance under the full group is a structural must
            swap12 = _map_letters(total, swap12_table)
            if _scale(swap12, -1) != total:
                raise AssertionError(f"image not anti-invariant at k={k}")
            expect_at = (k - 1) - (ua + (1 if v == 0 else 0))
            try:
                c = scalar_multiple(total, targets[expect_at])
            except ValueError as exc:
                raise AssertionError(
                    f"image not a multiple of its monomial at k={k}: {exc}"
                ) from None
            if constant is None:
                constant = c
            elif c != constant:
                raise AssertionError(
                    f"generator-dependent factor at k={k}: {c / hats} vs {constant / hats}"
                )
    if constant is None or constant <= 0:
        raise AssertionError(f"no positive global factor at k={k}")
    return constant / hats

