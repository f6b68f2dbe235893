"""Banded binomial Toeplitz matrices and their nondegeneracy.

Three families, all with constant diagonals of signed binomial
coefficients:

* ``T_even(n, m)``: m x m, diagonal k holds (-1)^k C(2n, n+k), zero once
  |k| > n.
* ``T_odd(n, m)``: m x m, diagonal k holds (-1)^k C(2n+1, n+k+1) for
  -n-1 <= k <= n.
* ``R(l, k, j)``: rectangular (k-l+1) x (k-2j+1), diagonal i holds
  (-1)^i C(l, j+i) for -j <= i <= l-j.

The two-point filtration argument needs these to be nondegenerate
(injective in the rectangular case); their determinants, leading
minors and ranks are exact integer facts from :mod:`hilbtaut.linalg`.
The square case ``R(2j, k, j)`` coincides entrywise with
``T_even(j, k+1-2j)``.
"""

from __future__ import annotations

from math import comb


def t_even(n: int, m: int) -> list[list[int]]:
    """The m x m matrix with entry (-1)^(r-c) C(2n, n+r-c) at row r, col c."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    def entry(d: int) -> int:
        if abs(d) > n:
            return 0
        return (-1) ** (d % 2) * comb(2 * n, n + d)
    return [[entry(r - c) for c in range(m)] for r in range(m)]


def t_odd(n: int, m: int) -> list[list[int]]:
    """The m x m matrix with entry (-1)^(r-c) C(2n+1, n+r-c+1), banded in
    -n-1 <= r-c <= n."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    def entry(d: int) -> int:
        if not -n - 1 <= d <= n:
            return 0
        return (-1) ** (d % 2) * comb(2 * n + 1, n + d + 1)
    return [[entry(r - c) for c in range(m)] for r in range(m)]


def r_matrix(l: int, k: int, j: int) -> list[list[int]]:
    """The (k-l+1) x (k-2j+1) matrix with diagonals (-1)^i C(l, j+i).

    Here the diagonal index runs column minus row (each column is a
    shifted copy of the signed binomial row of weight l), the opposite
    of the T-family convention.
    """
    rows, cols = k - l + 1, k - 2 * j + 1
    if rows < 1 or cols < 1:
        raise ValueError("empty matrix: need l <= k and 2j <= k")
    def entry(d: int) -> int:
        if not -j <= d <= l - j:
            return 0
        return (-1) ** (d % 2) * comb(l, j + d)
    return [[entry(c - r) for c in range(cols)] for r in range(rows)]
