"""The eight headline checks, one test each, with their time budgets.

Every test prints a single PASS line (visible with -s or on failure) and
asserts both the mathematical content and the wall-clock budget.  These
are the checks the whole package is accepted against; nothing here may
be weakened or skipped.
"""

import random
import time
from math import comb, factorial

from hilbtaut.combinat import (
    orbits,
    quotient_A,
    quotient_A0,
    quotient_B,
    stabilizer_order,
)
from hilbtaut.linalg import bareiss_det, int_rank, leading_principal_minors
from hilbtaut.rroch import (
    BUILTIN_SURFACES,
    chi_sym_power,
    chi_sym_power_n2,
    chi_sym_power_smallk,
    get_surface,
)
from hilbtaut.symrep import (
    antiinv_dims_R,
    rho_from_R,
    verify_omega,
    verify_sym_map,
)
from hilbtaut.tautops import (
    verify_filtration,
    verify_invariant_local_formula,
    verify_recursion,
    verify_transition,
)
from hilbtaut.toeplitz import r_matrix, t_even, t_odd


def test_1_chi_cross_formulas_agree():
    start = time.perf_counter()
    checks = 0
    for name in sorted(BUILTIN_SURFACES):
        s = get_surface(name)
        for k in (3, 4):
            rng = random.Random(f"acceptance:chi:{name}:{k}")
            for _ in range(25):
                L = tuple(rng.randrange(-4, 5) for _ in range(s.rank))
                A = tuple(rng.randrange(-4, 5) for _ in range(s.rank))
                assert chi_sym_power_n2(s, k, L, A) == chi_sym_power_smallk(
                    s, 2, k, L, A
                ), (name, k, L, A)
                checks += 1
    elapsed = time.perf_counter() - start
    assert checks == 200
    assert elapsed < 5.0
    print(f"PASS chi cross-formula consistency: {checks} checks in {elapsed:.2f}s")


def test_2_projective_plane_section_counts():
    start = time.perf_counter()
    p2 = get_surface("p2")
    cases = 0
    for n in (3, 4, 5):
        for l in range(2, 7):
            want = comb(comb(l + 2, 2) + 2, 3)
            assert chi_sym_power(p2, n, 3, (l,), (0,)) == want, (n, 3, l)
            cases += 1
    for n in (4, 5):
        for l in (4, 5):
            want = comb(comb(l + 2, 2) + 3, 4)
            assert chi_sym_power(p2, n, 4, (l,), (0,)) == want, (n, 4, l)
            cases += 1
    for n in (2, 3, 4):
        for l in range(1, 6):
            want = comb(comb(l + 2, 2) + 1, 2)
            assert chi_sym_power(p2, n, 2, (l,), (0,)) == want, (n, 2, l)
            cases += 1
    assert chi_sym_power(p2, 3, 3, (2,), (0,)) == 56
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS plane section counts: {cases} equalities in {elapsed:.2f}s")


def test_3_kernel_equals_graded():
    start = time.perf_counter()
    for n, k in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4)):
        degree = 4 if n == 2 else 3
        report = verify_filtration(n, k, degree)
        assert report.passed, (n, k, report.mismatches)
        assert not report.exploratory
        if (n, k) == (2, 2):
            assert list(report.invariant_nullities[-1][:3]) == [1, 5, 18]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS kernel = graded on five models in {elapsed:.2f}s")


def test_4_toeplitz_nondegeneracy():
    start = time.perf_counter()
    for n in range(1, 7):
        for m in range(1, 13):
            assert all(d > 0 for d in leading_principal_minors(t_even(n, m)))
            assert bareiss_det(t_odd(n, m)) != 0
    ranks = 0
    for k in range(2, 13):
        for j in range(1, k // 2 + 1):
            for l in range(0, 2 * j + 1):
                assert int_rank(r_matrix(l, k, j)) == k - 2 * j + 1, (l, k, j)
                ranks += 1
            assert r_matrix(2 * j, k, j) == t_even(j, k + 1 - 2 * j), (k, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"PASS Toeplitz nondegeneracy: {ranks} rank checks in {elapsed:.2f}s")


def test_5_anti_invariant_dimensions():
    start = time.perf_counter()
    for k in range(1, 8):
        full = antiinv_dims_R(k)
        rho = rho_from_R(full)
        for q in range(2 * k + 1):
            dim = rho[q] if q < len(rho) else 0
            assert dim == (k if q == k - 1 else 0), (k, q)
        for q in range(2 * k + 1):
            want = {k - 1: k, k: 2 * k, k + 1: k}.get(q, 0)
            assert full[q] == want, (k, q)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"PASS anti-invariant dimension patterns for k <= 7 in {elapsed:.2f}s")


def test_6_symbolic_identities():
    start = time.perf_counter()
    recursion = verify_recursion()
    assert recursion["formal_cases"] > 0 and recursion["polynomial_cases"] > 0
    transition = verify_transition()
    assert transition["cases"] == 20
    constants = set()
    for k in (3, 4):
        constants.update(verify_invariant_local_formula(k).values())
    assert len(constants) == 1
    scale = constants.pop()
    assert scale > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS symbolic identities (local constant {scale}) in {elapsed:.2f}s")


def test_7_symmetrization_maps():
    start = time.perf_counter()
    for k in (2, 3, 4):
        assert verify_sym_map(k) > 0
    for k in range(2, 7):
        assert verify_omega(k)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS symmetrization and sign-twisted bases in {elapsed:.2f}s")


def test_8_orbit_combinatorics():
    start = time.perf_counter()
    for n in range(1, 5):
        for k in range(1, 6):
            for l in range(0, k + 1):
                h_orbits = orbits(n, k, l, "H")
                gh_orbits = orbits(n, k, l, "GxH")
                assert len(quotient_B(k, l, n)) == len(h_orbits), (n, k, l)
                assert len(quotient_A(k, l, n)) == len(gh_orbits), (n, k, l)
                for rep, size in h_orbits:
                    assert stabilizer_order(n, rep, "H") * size == factorial(k)
                for rep, size in gh_orbits:
                    assert stabilizer_order(n, rep, "GxH") * size == (
                        factorial(n) * factorial(k)
                    )
    assert quotient_A0(3, 1, 4) == [((2,), ()), ((1,), (1,))]
    assert quotient_A0(4, 1, 5) == [
        ((3,), ()),
        ((2, 1), ()),
        ((2,), (1,)),
        ((1,), (2,)),
        ((1,), (1, 1)),
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS orbit combinatorics sweep in {elapsed:.2f}s")
