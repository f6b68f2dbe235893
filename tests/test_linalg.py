"""Sparse integer elimination against independent references, and the
scalar-multiple check.

sparse_int_rank is checked against the nullspace of tests/references.py,
a Gauss-Jordan pass over Fraction that shares no code with it, on small
random integer matrices, whole and fed in chunks into one pivot dict.
The elimination it replaced, which cross-multiplied every row with its
pivot and gcd-reduced the result, is kept here as a reference for the
nullity engine's per-level nullities.
"""

import copy
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut import tautops
from hilbtaut.linalg import scalar_multiple, sparse_int_rank
from hilbtaut.tautops import _nullity_profile
from references import fraction_rows_to_int, nullspace


# --- reference -----------------------------------------------------------


def _reduce_row(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def cross_multiplied_rank(rows, pivots=None):
    """Rank that rows add to a pivot dict, by integer cross-multiplication.

    Each step builds p[c] * row - row[c] * p as a new dict and
    gcd-reduces it; pivots are stored as reached, with either sign.
    """
    if pivots is None:
        pivots = {}
    before = len(pivots)
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = _reduce_row(row)
                break
            p = pivots[c]
            pc, rc = p[c], row[c]
            merged = {}
            for col, v in row.items():
                merged[col] = v * pc
            for col, v in p.items():
                merged[col] = merged.get(col, 0) - v * rc
            row = _reduce_row({col: v for col, v in merged.items() if v})
    return len(pivots) - before


def assert_pivots_canonical(pivots):
    """Every stored pivot: keyed by its leading column, positive there,
    primitive, and free of zero entries."""
    for c, p in pivots.items():
        assert min(p) == c
        assert p[c] > 0
        assert gcd(*p.values()) == 1
        assert all(p.values())


# --- random matrices -----------------------------------------------------


@st.composite
def _matrices(draw):
    """(ncols, rows): dicts with explicit zeros, repeated and scaled rows,
    and rows that are all zero."""
    ncols = draw(st.integers(1, 7), label="ncols")
    entry = st.one_of(st.just(0), st.integers(-12, 12))
    base = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8),
        label="base",
    )
    rows = [dict(enumerate(vals)) for vals in base]
    for _ in range(draw(st.integers(0, 4), label="extra")):
        if rows and draw(st.booleans()):
            pick = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from([1, -1, 2, -3, 6]))
            rows.append({c: scale * v for c, v in pick.items()})
        else:
            rows.append(dict.fromkeys(range(ncols), 0))
    order = draw(st.permutations(range(len(rows))), label="order")
    return ncols, [rows[i] for i in order]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_matrices(), st.integers(1, 5))
def test_rank_matches_rational_nullspace(matrix, chunk):
    ncols, rows = matrix
    snapshot = copy.deepcopy(rows)
    expected = ncols - len(nullspace(rows, ncols))
    assert sparse_int_rank(rows) == expected
    pivots = {}
    increments = [
        sparse_int_rank(rows[i : i + chunk], pivots)
        for i in range(0, len(rows), chunk)
    ]
    assert_pivots_canonical(pivots)
    assert sum(increments) == len(pivots) == expected
    assert sparse_int_rank(rows, pivots) == 0
    assert rows == snapshot
    assert cross_multiplied_rank(rows) == expected


def test_rank_of_generator_and_edge_rows():
    assert sparse_int_rank([]) == 0
    assert sparse_int_rank(iter([{0: 0, 3: 0}, {}])) == 0
    pivots = {}
    assert sparse_int_rank(({0: -6, 2: 4}, {0: 3, 2: -2}, {2: -5}), pivots) == 2
    assert pivots == {0: {0: 3, 2: -2}, 2: {2: 1}}


def test_reference_fraction_rows_to_int():
    # each row times the least common multiple of its denominators, zeros dropped
    rows = [{0: Fraction(1, 2), 3: Fraction(-2, 3), 5: Fraction(0)}, {1: 4}, {}]
    assert fraction_rows_to_int(rows) == [{0: 3, 3: -4}, {1: 4}, {}]
    ints = fraction_rows_to_int(rows)
    assert all(type(v) is int for row in ints for v in row.values())
    assert sparse_int_rank(ints) == 2


def test_scalar_multiple():
    c = scalar_multiple({"u": 3, "v": -6}, {"u": 2, "v": -4})
    assert c == Fraction(3, 2) and type(c) is Fraction
    assert scalar_multiple({1: Fraction(1, 3)}, {1: Fraction(2, 3)}) == Fraction(1, 2)
    with pytest.raises(ValueError, match="supports"):
        scalar_multiple({"u": 3}, {"u": 2, "v": 1})
    with pytest.raises(ValueError, match="supports"):
        scalar_multiple({"u": 3, "w": 1}, {"u": 2})
    with pytest.raises(ValueError, match="ratios"):
        scalar_multiple({"u": 3, "v": 1}, {"u": 2, "v": 1})
    with pytest.raises(ValueError):
        scalar_multiple({}, {})
    with pytest.raises(ValueError):
        scalar_multiple({"u": 1}, {})


_entries = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 5), _entries, min_size=1, max_size=5),
       _entries, st.data())
def test_scalar_multiple_matches_fraction_division(b, c, data):
    """Cross-multiplied ratios agree with dividing as Fractions, on true
    multiples and on ones with a perturbed entry."""
    a = {w: c * v for w, v in b.items()}
    if data.draw(st.booleans()):
        w = data.draw(st.sampled_from(sorted(b)))
        a[w] += data.draw(_entries)
    ratios = {Fraction(a[w]) / v for w, v in b.items()}
    if len(ratios) == 1:
        assert scalar_multiple(a, b) == ratios.pop()
    else:
        with pytest.raises(ValueError, match="ratios .* and .* differ"):
            scalar_multiple(a, b)


# --- the nullity engine on the old elimination ----------------------------

_VERIFY_GRID = [(2, 2, 4), (2, 3, 4), (2, 4, 4), (3, 3, 3), (3, 4, 3)]


@pytest.mark.parametrize(
    "n,k,max_deg,invariant",
    [(n, k, d, inv) for n, k, d in _VERIFY_GRID for inv in (True, False)]
    + [(3, 5, 4, True), (4, 4, 3, True)],
)
def test_engine_matches_cross_multiplied_elimination(
    monkeypatch, n, k, max_deg, invariant
):
    def checked(rows, pivots=None):
        gained = sparse_int_rank(rows, pivots)
        assert_pivots_canonical(pivots)
        return gained

    monkeypatch.setattr(tautops, "sparse_int_rank", checked)
    profile = _nullity_profile(n, k, max_deg, invariant)
    monkeypatch.setattr(tautops, "sparse_int_rank", cross_multiplied_rank)
    assert profile == _nullity_profile(n, k, max_deg, invariant)
