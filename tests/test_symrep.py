"""Anti-invariant dimension counts and the explicit tensor lemmas.

The brute-force oracle computes traces on wedge powers as sums of
principal minors of explicit permutation-action matrices, a different
route from the characteristic-polynomial products used in the module.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from hilbtaut import symrep
from hilbtaut.linalg import bareiss_det
from hilbtaut.symrep import (
    antiinv_dims_R,
    cycle_types,
    omega_on,
    rho_from_R,
    verify_omega,
    verify_sym_map,
)


def perm_matrices_R(k):
    """For each sigma in S_k: its sign and its matrix on V (x) R_k,
    basis indexed by (a, j) with a in {0,1}, j in 0..k-1."""
    dim = 2 * k
    out = []
    for sigma in permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if sigma[i] > sigma[j]:
                    sign = -sign
        mat = [[0] * dim for _ in range(dim)]
        for a in range(2):
            for j in range(k):
                mat[a * k + sigma[j]][a * k + j] = 1
        out.append((sign, mat))
    return out


def perm_matrices_rho(k):
    """Matrices on V (x) rho_k in the basis f_j = e_j - e_{k-1}, j < k-1,
    doubled for the two V coordinates."""
    m = k - 1
    dim = 2 * m
    out = []
    for sigma in permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if sigma[i] > sigma[j]:
                    sign = -sign
        block = [[0] * m for _ in range(m)]
        for j in range(m):
            # sigma . f_j = f_{sigma(j)} - f_{sigma(k-1)}, with f_{k-1} = 0
            if sigma[j] < m:
                block[sigma[j]][j] += 1
            if sigma[k - 1] < m:
                block[sigma[k - 1]][j] -= 1
        mat = [[0] * dim for _ in range(dim)]
        for a in range(2):
            for r in range(m):
                for c in range(m):
                    mat[a * m + r][a * m + c] = block[r][c]
        out.append((sign, mat))
    return out


def antiinv_dim_brute(matrices, q):
    """(1/k!) sum of sign(sigma) * trace(Lambda^q sigma), the trace taken
    as the sum of principal q x q minors."""
    total = 0
    dim = len(matrices[0][1])
    for sign, mat in matrices:
        for rows in combinations(range(dim), q):
            total += sign * bareiss_det(
                [[mat[r][c] for c in rows] for r in rows]
            )
    val = Fraction(total, len(matrices))
    assert val.denominator == 1 and val >= 0
    return int(val)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dims_R_match_brute_force(k):
    dims = antiinv_dims_R(k)
    mats = perm_matrices_R(k)
    assert len(dims) == 2 * k + 1
    for q in range(2 * k + 1):
        assert dims[q] == antiinv_dim_brute(mats, q), (k, q)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dims_rho_match_brute_force(k):
    dims = rho_from_R(antiinv_dims_R(k))
    mats = perm_matrices_rho(k)
    assert len(dims) == 2 * (k - 1) + 1
    for q in range(2 * (k - 1) + 1):
        assert dims[q] == antiinv_dim_brute(mats, q), (k, q)


def test_dims_rho_concentrated():
    assert rho_from_R(antiinv_dims_R(3)) == (0, 0, 3, 0, 0)
    assert rho_from_R(antiinv_dims_R(2)) == (0, 2, 0)
    dims5 = rho_from_R(antiinv_dims_R(5))
    assert dims5[4] == 5
    assert all(d == 0 for q, d in enumerate(dims5) if q != 4)


def test_dims_R_window():
    assert antiinv_dims_R(3) == (0, 0, 3, 6, 3, 0, 0)
    assert antiinv_dims_R(1) == (1, 2, 1)
    assert antiinv_dims_R(6)[7] == 6
    for k in range(1, 21):
        dims = antiinv_dims_R(k)
        for q, d in enumerate(dims):
            if q == k - 1 or q == k + 1:
                assert d == k
            elif q == k:
                assert d == 2 * k
            else:
                assert d == 0


def test_dims_R_palindromic():
    # the determinant twist is the trivial character, so the window is
    # symmetric about q = k
    for k in range(1, 8):
        dims = antiinv_dims_R(k)
        assert dims == dims[::-1]


def test_rho_total_count():
    for k in range(1, 8):
        assert sum(rho_from_R(antiinv_dims_R(k))) == k


def test_rho_from_R_divides_exactly_by_one_plus_t_squared():
    rng = random.Random(11)
    for _ in range(200):
        quot = [rng.randint(-50, 50) for _ in range(rng.randint(0, 9))]
        prod = [0] * (len(quot) + 2)
        for i, c in enumerate(quot):
            for j, b in enumerate((1, 2, 1)):
                prod[i + j] += c * b
        assert rho_from_R(prod) == tuple(quot)
    for dims in ((1, 1, 1), (1, 2, 1, 1)):
        with pytest.raises(AssertionError, match="inexact polynomial division"):
            rho_from_R(dims)


def test_bad_k_rejected():
    with pytest.raises(ValueError):
        antiinv_dims_R(0)
    with pytest.raises(ValueError):
        verify_sym_map(1)


def test_cycle_types_partition_group():
    for k in range(1, 9):
        cts = cycle_types(k)
        assert sum(size for _, size, _ in cts) == factorial(k)
        assert all(sum(lam) == k for lam, _, _ in cts)
    # one worked class: 3-cycles in S_3 have size 2 and sign +1
    by_type = {lam: (size, sign) for lam, size, sign in cycle_types(3)}
    assert by_type[(3,)] == (2, 1)
    assert by_type[(2, 1)] == (3, -1)
    assert by_type[(1, 1, 1)] == (1, 1)


def test_omega_small_values():
    assert omega_on((1, 2)) == {(1,): 1, (2,): -1}
    w2 = omega_on((1, 2, 3))
    assert w2[(1, 2)] == 1 and w2[(2, 1)] == -1
    assert w2[(2, 3)] == 1 and w2[(3, 1)] == 1
    assert len(w2) == 6


@pytest.mark.parametrize("k", range(1, 7))
def test_verify_omega(k):
    assert verify_omega(k) is True


@pytest.mark.parametrize("m,index", [(3, 0), (3, 5), (4, 1), (4, 23)])
def test_omega_catches_a_flipped_permutation_sign(monkeypatch, m, index):
    """One sign flipped in the signed permutations of m slots breaks the
    alternating sums omega_4 is built from (m = 3) or its signed-sum
    expression over S_4 (m = 4)."""
    real = symrep._signed_permutations

    def flipped(size):
        table = list(real(size))
        if size == m:
            pi, sign = table[index]
            table[index] = (pi, -sign)
        return tuple(table)

    monkeypatch.setattr(symrep, "_signed_permutations", flipped)
    with pytest.raises(AssertionError, match="expression fails at k=4"):
        verify_omega(4)


def test_signed_permutations_carry_their_inversion_parity():
    for m in range(6):
        table = symrep._signed_permutations(m)
        assert [pi for pi, _ in table] == list(permutations(range(m)))
        for pi, sign in table:
            inversions = sum(a > b for a, b in combinations(pi, 2))
            assert sign == (-1) ** inversions


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sym_map_normalization(k):
    # the tensors are integral and 1/(k-2)! is applied once; from k = 4
    # on, a dropped or doubled factorial would move the constant off 1
    assert verify_sym_map(k) == Fraction(1)


def test_sym_map_refuses_overlapping_monomial_images(monkeypatch):
    # every degree-2 monomial symmetrized as x0^2: the three targets of
    # k = 3 coincide, so they are not independent
    real = symrep._sym_unnorm
    monkeypatch.setattr(
        symrep,
        "_sym_unnorm",
        lambda letters: real((0,) * len(letters)) if len(letters) == 2 else real(letters),
    )
    with pytest.raises(AssertionError, match="degenerate"):
        verify_sym_map(3)


def test_dim_arithmetic_against_binomials():
    # ambient dimensions: the q-th wedge of a 2k-dimensional space
    for k in (2, 3):
        mats = perm_matrices_R(k)
        ident = [m for s, m in mats if s == 1 and all(m[i][i] == 1 for i in range(2 * k))]
        assert ident  # identity matrix is present
        for q in range(2 * k + 1):
            tr = sum(
                bareiss_det([[ident[0][r][c] for c in rows] for r in rows])
                for rows in combinations(range(2 * k), q)
            )
            assert tr == comb(2 * k, q)
