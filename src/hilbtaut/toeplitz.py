"""Banded binomial Toeplitz matrices and their nondegeneracy.

Three families, all cut from one signed binomial band: diagonal d holds
(-1)^d C(N, c + d), zero unless 0 <= c + d <= N.

* ``T_even(n, m)``: m x m, (N, c) = (2n, n), so diagonal k holds
  (-1)^k C(2n, n+k), zero once |k| > n.
* ``T_odd(n, m)``: m x m, (N, c) = (2n+1, n+1), so diagonal k holds
  (-1)^k C(2n+1, n+k+1) for -n-1 <= k <= n.
* ``R(l, k, j)``: rectangular (k-l+1) x (k-2j+1), (N, c) = (l, j), so
  diagonal i holds (-1)^i C(l, j+i) for -j <= i <= l-j.

The T families index diagonals by row minus column, R by column minus
row.  The two-point filtration argument needs these to be nondegenerate
(injective in the rectangular case); their determinants, leading
minors and ranks are exact integer facts from :mod:`hilbtaut.linalg`.
The square case ``R(2j, k, j)`` coincides entrywise with
``T_even(j, k+1-2j)``.
"""

from __future__ import annotations

from math import comb


def _band(N: int, c: int, rows: int, cols: int, sign: int = 1) -> list[list[int]]:
    """rows x cols, entry (-1)^d C(N, c + d) at d = sign (row - col),
    zero unless 0 <= c + d <= N."""
    def entry(d: int) -> int:
        return (-1) ** (d % 2) * comb(N, c + d) if 0 <= c + d <= N else 0
    return [[entry(sign * (r - q)) for q in range(cols)] for r in range(rows)]


def t_even(n: int, m: int) -> list[list[int]]:
    """The m x m matrix with entry (-1)^(r-c) C(2n, n+r-c) at row r, col c."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return _band(2 * n, n, m, m)


def t_odd(n: int, m: int) -> list[list[int]]:
    """The m x m matrix with entry (-1)^(r-c) C(2n+1, n+r-c+1), banded in
    -n-1 <= r-c <= n."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return _band(2 * n + 1, n + 1, m, m)


def r_matrix(l: int, k: int, j: int) -> list[list[int]]:
    """The (k-l+1) x (k-2j+1) matrix with diagonals (-1)^i C(l, j+i).

    Here the diagonal index runs column minus row (each column is a
    shifted copy of the signed binomial row of weight l), the opposite
    of the T-family convention.
    """
    rows, cols = k - l + 1, k - 2 * j + 1
    if rows < 1 or cols < 1:
        raise ValueError("empty matrix: need l <= k and 2j <= k")
    return _band(l, j, rows, cols, sign=-1)
