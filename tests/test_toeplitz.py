"""Banded binomial matrices: determinants, minors, ranks.

The determinant oracle is a naive cofactor expansion, kept to size <= 8;
the library's fraction-free elimination is checked against it before
being trusted on the larger cases.
"""

from math import ceil, comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut.linalg import bareiss_det, int_rank, leading_principal_minors
from hilbtaut.toeplitz import r_matrix, t_even, t_odd
from references import leading_minors_by_block


# --- oracle ------------------------------------------------------------


def det_cofactor(m):
    """Determinant by first-row cofactor expansion; exponential, small only."""
    size = len(m)
    assert size <= 8, "oracle reserved for small matrices"
    if size == 0:
        return 1
    if size == 1:
        return m[0][0]
    total = 0
    for c, v in enumerate(m[0]):
        if v == 0:
            continue
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        total += (-1) ** c * v * det_cofactor(minor)
    return total


def transpose(m):
    return [list(col) for col in zip(*m)]


# --- constructions -----------------------------------------------------


def test_t_even_1_3():
    assert t_even(1, 3) == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_t_odd_1_2_first_column():
    m = t_odd(1, 2)
    assert [m[0][0], m[1][0]] == [3, -1]
    # full band: s_{-2}=1, s_{-1}=-3, s_0=3, s_1=-1
    assert m == [[3, -3], [-1, 3]]


def test_r_square_case_equals_t_even():
    for j in range(1, 5):
        for k in range(2 * j, 2 * j + 6):
            assert r_matrix(2 * j, k, j) == t_even(j, k + 1 - 2 * j)


def test_r_shape():
    m = r_matrix(2, 5, 2)
    assert len(m) == 4 and len(m[0]) == 2
    assert m == [[1, 0], [-2, 1], [1, -2], [0, 1]]


# --- determinants ------------------------------------------------------


def test_det_identity_and_empty():
    assert bareiss_det([[1, 0], [0, 1]]) == 1
    assert bareiss_det([]) == 1
    with pytest.raises(ValueError):
        bareiss_det([[1, 2, 3], [4, 5, 6]])


def test_det_t_even_1_m_is_m_plus_1():
    for m in range(1, 13):
        assert bareiss_det(t_even(1, m)) == m + 1


def test_det_matches_cofactor_oracle():
    for n in range(0, 4):
        for m in range(1, 9):
            assert bareiss_det(t_even(n, m)) == det_cofactor(t_even(n, m))
            assert bareiss_det(t_odd(n, m)) == det_cofactor(t_odd(n, m))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_det_random_matches_oracle(m):
    assert bareiss_det(m) == det_cofactor(m)


def test_t_even_minors_positive():
    for n in range(1, 7):
        minors = leading_principal_minors(t_even(n, 12))
        assert all(d > 0 for d in minors)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 6).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(-2, 2), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
)
def test_leading_minors_match_block_determinants(m):
    assert leading_principal_minors(m) == leading_minors_by_block(m)


def test_leading_minors_of_banded_matrices_and_past_zero_pivots():
    for n in range(7):
        for m in range(1, 13):
            for matrix in (t_even(n, m), t_odd(n, m)):
                assert leading_principal_minors(matrix) == leading_minors_by_block(matrix)
    assert leading_principal_minors([[0, 1], [1, 0]]) == [0, -1]
    assert leading_principal_minors([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == [1, 0, -1]


@pytest.mark.parametrize("matrix", [
    [[1, 2, 3], [4, 5, 6]],
    [[1, 2], [3, 4], [5, 6]],
    [[1, 2], [3]],
])
def test_minors_and_det_refuse_a_nonsquare_matrix(matrix):
    for f in (leading_principal_minors, bareiss_det):
        with pytest.raises(ValueError, match="matrix must be square"):
            f(matrix)


def test_t_odd_nondegenerate():
    for n in range(0, 7):
        for m in range(1, 13):
            assert bareiss_det(t_odd(n, m)) != 0


# --- ranks -------------------------------------------------------------


def test_rank_zero_matrix():
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([]) == 0


def test_r_full_column_rank():
    for k in range(1, 13):
        for j in range(0, k // 2 + 1):
            for l in range(0, 2 * j + 1):
                if not (l <= 2 * j < k + 1):
                    continue
                assert int_rank(r_matrix(l, k, j)) == k - 2 * j + 1


def test_row_deletion_reproduces_t():
    # dropping the first j - ceil(l/2) and last j - floor(l/2) rows of
    # R(l,k,j) leaves the weight-l T matrix, transposed, up to the sign
    # (-1)^(j - ceil(l/2))
    for k in range(2, 10):
        for j in range(1, k // 2 + 1):
            for l in range(1, 2 * j + 1):
                m = r_matrix(l, k, j)
                d1 = j - ceil(l / 2)
                d2 = j - l // 2
                kept = m[d1: len(m) - d2]
                t = t_even(l // 2, k + 1 - 2 * j) if l % 2 == 0 else t_odd(
                    (l - 1) // 2, k + 1 - 2 * j
                )
                sign = (-1) ** (d1 % 2)
                assert kept == [[sign * v for v in row] for row in transpose(t)]


def test_rank_equals_bareiss_nonzero_when_square():
    for n in range(1, 5):
        for m in range(1, 9):
            mat = t_odd(n, m)
            assert (int_rank(mat) == m) == (bareiss_det(mat) != 0)
