"""Riemann-Roch on surface models and the closed chi formulas.

Oracles come first: section counts by monomial enumeration on p2 and
p1xp1 (where higher cohomology of nonnegative twists vanishes, so chi
equals the count), Euler-sequence recursions for twists of the
cotangent bundle on p2, and Riemann-Roch on general Chern data.  The
closed formulas are then pinned against hand-checked spots, against
values frozen at three to five points, and against each other.
"""

import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut import rroch
from hilbtaut.rroch import (
    BUILTIN_SURFACES,
    SurfaceModel,
    binom_int,
    chi_graded_pieces_n2,
    chi_sym_power,
    chi_sym_power_n2,
    chi_sym_power_smallk,
    chi_twists,
    get_surface,
    load_surface,
)
from references import (
    ChernData,
    chern_sym_omega,
    chi_graded_piece_n2,
    chi_sym_power_n2_telescoped,
    chi_twisted_fraction,
    tensor_chern,
)

P2 = get_surface("p2")
P1P1 = get_surface("p1xp1")
K3 = get_surface("k3")
AB = get_surface("abelian")
MODELS = [P2, P1P1, K3, AB]


def chi_line(s, M):
    """chi of the line bundle M, read off the package: S^1 of M on one
    point, untwisted."""
    return chi_sym_power(s, 1, 1, M, (0,) * s.rank)


def monomials_p2(d):
    """Number of degree-d monomials in three variables."""
    return sum(1 for i in range(d + 1) for j in range(d + 1 - i))


def monomials_p1p1(a, b):
    return (a + 1) * (b + 1)


def chi_omega_p2_oracle(d):
    """Twisted cotangent chi from the Euler sequence: the middle term is
    three copies of a line bundle, the quotient another line bundle."""
    return 3 * chi_line(P2, (d - 1,)) - chi_line(P2, (d,))


def chi_sym2_omega_p2_oracle(d):
    """Symmetric square of the Euler sequence, graded pieces peeled off."""
    return 6 * chi_line(P2, (d - 2,)) - chi_omega_p2_oracle(d) - chi_line(P2, (d,))


def test_binom_int_matches_comb():
    for x in range(0, 12):
        for h in range(0, 12):
            assert binom_int(x, h) == comb(x, h)
    assert binom_int(5, 2) == 10
    assert binom_int(3, 5) == 0


def test_binom_int_negative_arguments():
    assert binom_int(-1, 2) == 1
    assert binom_int(-2, 3) == -4
    assert binom_int(7, -1) == 0
    assert binom_int(-3, -2) == 0
    assert binom_int(0, 0) == 1


@given(st.integers(-30, 30), st.integers(1, 10))
def test_binom_int_pascal(x, h):
    assert binom_int(x, h) == binom_int(x - 1, h) + binom_int(x - 1, h - 1)


def test_binom_int_huge_lower_index():
    h = 10**6
    assert binom_int(h + 2, h) == (h + 2) * (h + 1) // 2
    assert binom_int(-3, h) == (h + 2) * (h + 1) // 2
    assert binom_int(-3, h + 1) == -(h + 3) * (h + 2) // 2


def test_chi_line_p2_counts_sections():
    for d in range(0, 9):
        assert chi_line(P2, (d,)) == monomials_p2(d)


def test_chi_line_p1xp1_counts_sections():
    for a in range(0, 5):
        for b in range(0, 5):
            assert chi_line(P1P1, (a, b)) == monomials_p1p1(a, b)


def test_chi_line_serre_duality():
    for s in MODELS:
        for d in range(-4, 5):
            M = (d,) * s.rank
            MK = tuple(s.K[i] - M[i] for i in range(s.rank))
            assert chi_line(s, M) == chi_line(s, MK)


def test_chi_line_special_models():
    assert chi_line(K3, (0,)) == 2
    assert chi_line(K3, (1,)) == 4
    assert chi_line(AB, (0,)) == 0
    assert chi_line(AB, (1,)) == 1
    assert chi_line(P1P1, (0, -2)) == -1


def test_surface_model_is_an_immutable_value():
    s = SurfaceModel(name="p1xp1", rank=2, intersection=((0, 1), (1, 0)),
                     K=(-2, -2), chiO=1, c2=4)
    assert s == get_surface("p1xp1") and hash(s) == hash(get_surface("p1xp1"))
    assert (s.name, s.rank, s.K, s.chiO, s.c2) == ("p1xp1", 2, (-2, -2), 1, 4)
    assert s.dot((1, 0), (0, 1)) == 1
    assert s != get_surface("p2")
    with pytest.raises(AttributeError):
        s.c2 = 5
    with pytest.raises(ValueError, match="Noether"):
        SurfaceModel(name="p1xp1", rank=2, intersection=((0, 1), (1, 0)),
                     K=(-2, -2), chiO=1, c2=5)
    with pytest.raises(ValueError, match="Noether"):
        s._replace(c2=5)
    assert s._replace(name="q") == SurfaceModel("q", *s[1:])


def test_noether_violation_rejected():
    with pytest.raises(ValueError, match="Noether"):
        SurfaceModel("bad", 1, ((1,),), (-3,), 1, 4)


@pytest.mark.parametrize("form,K,c2,generator", [
    (((1,),), (0,), 12, 1),
    (((0, 1), (1, 0)), (-2, -1), 8, 1),
    (((0, 1), (1, 0)), (-1, -2), 8, 2),
])
def test_non_characteristic_K_rejected(form, K, c2, generator):
    # Noether holds; M.(M - K) is odd for M the named generator
    with pytest.raises(ValueError, match=f"non-characteristic K: e{generator}"):
        SurfaceModel("odd", len(form), form, K, 1, c2)


def test_asymmetric_intersection_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        SurfaceModel("bad", 2, ((0, 1), (2, 0)), (0, 0), 1, 12)


def test_load_surface_from_dict_and_file(tmp_path):
    data = {
        "name": "quartic",
        "rank": 1,
        "intersection": [[4]],
        "K": [0],
        "chiO": 2,
        "c2": 24,
    }
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(data))
    assert load_surface(str(path)) == SurfaceModel("quartic", 1, ((4,),), (0,), 2, 24)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"name": "x", "rank": 1}))
    with pytest.raises(ValueError, match="missing field"):
        load_surface(str(partial))


def test_get_surface_unknown():
    with pytest.raises(ValueError, match="unknown surface"):
        get_surface("p3")


def test_omega_twists_match_euler_sequence():
    chi = chi_twists(P2, (1,), (0,))
    for d in range(-3, 8):
        assert chi(1, d, 0) == chi_omega_p2_oracle(d)
        assert chi_omega_p2_oracle(d) == d * d - 1


def test_sym2_omega_p2():
    assert chern_sym_omega(P2, 2) == ChernData(3, (-9,), 30)
    chi = chi_twists(P2, (0,), (1,))
    for d in range(-2, 8):
        assert chi(2, 0, d) == chi_sym2_omega_p2_oracle(d)
    assert chi(2, 0, 0) == 0


def test_sym_omega_low_cases_all_models():
    for s in MODELS:
        triv = chern_sym_omega(s, 0)
        assert (triv.rank, triv.c1, triv.c2num) == (1, (0,) * s.rank, 0)
        omega = chern_sym_omega(s, 1)
        assert (omega.rank, omega.c1, omega.c2num) == (2, s.K, s.c2)


def test_tensor_chern_symmetric_and_line_consistent():
    omega = chern_sym_omega(P2, 1)
    for d in range(-2, 4):
        line = ChernData(1, (d,), 0)
        tw = tensor_chern(P2, omega, line)
        assert tw.rank == 2
        assert tw.c1 == (2 * d - 3,)
        for e in range(-2, 4):
            assert chi_twisted_fraction(P2, tw, (e,)) == chi_twisted_fraction(
                P2, omega, (d + e,))
    s2 = chern_sym_omega(P2, 2)
    assert tensor_chern(P2, omega, s2) == tensor_chern(P2, s2, omega)


def test_omega_tensor_omega_splits_into_sym_plus_det():
    # rank 4 = rank 3 + rank 1: the square splits off the symmetric part
    # and the determinant, and chi is additive on the pieces.
    for s in MODELS:
        omega = chern_sym_omega(s, 1)
        square = tensor_chern(s, omega, omega)
        chi = chi_twists(s, (1,) * s.rank, (0,) * s.rank)
        for d in (-1, 0, 1, 2):
            M = (d,) * s.rank
            KM = tuple(k + m for k, m in zip(s.K, M))
            assert chi_twisted_fraction(s, square, M) == chi(2, d, 0) + chi_line(s, KM)


# a blown-up plane and a rank-one lattice with K^2 = 2, written as JSON
_JSON_MODELS = [
    {"name": "f1", "rank": 2, "intersection": [[1, 0], [0, -1]], "K": [-3, 1],
     "chiO": 1, "c2": 4},
    {"name": "k2", "rank": 1, "intersection": [[2]], "K": [1], "chiO": 1, "c2": 10},
]


def _six_models(tmp_path):
    models = list(MODELS)
    for data in _JSON_MODELS:
        path = tmp_path / f"{data['name']}.json"
        path.write_text(json.dumps(data))
        models.append(load_surface(str(path)))
    return models


def test_integer_chi_twisted_matches_fraction_reference(tmp_path):
    """The closed quadratic against Riemann-Roch on Chern data, and the
    two rewrites of the k = 4 formula: Omega (x) Omega = S^2 Omega + K,
    and Serre duality chi(K + M) = chi(-M)."""
    rng = random.Random(7)
    for s in _six_models(tmp_path):
        square = tensor_chern(s, chern_sym_omega(s, 1), chern_sym_omega(s, 1))
        trivial = ChernData(1, (0,) * s.rank, 0)
        for _ in range(4):
            L, A = (tuple(rng.randint(-4, 4) for _ in range(s.rank)) for _ in "LA")
            chi = chi_twists(s, L, A)
            line = lambda p, q: tuple(p * x + q * y for x, y in zip(L, A))
            for l in range(9):
                E = chern_sym_omega(s, l)
                for _ in range(6):
                    p, q = rng.randint(-6, 6), rng.randint(-6, 6)
                    assert chi(l, p, q) == chi_twisted_fraction(s, E, line(p, q))
            assert chi(2, 4, 3) + chi(0, -4, -3) == chi_twisted_fraction(
                s, square, line(4, 3))
            K44 = tuple(k + m for k, m in zip(s.K, line(4, 4)))
            assert chi(0, -4, -4) == chi_twisted_fraction(s, trivial, K44)


# chi_sym_power at (n, k) = (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (5, 4)
# with A != 0, computed through Riemann-Roch on general Chern data; each
# k = 3 and k = 4 term that needs three or more points moves them
_TWISTED_PINS = {
    ("abelian", (3,), (-1,)): (45, 317, 45, 152, 45, 152),
    ("abelian", (0,), (-2,)): (-60, -52, -128, 63, -220, 280),
    ("k3", (0,), (2,)): (774, 928, 3450, 4315, 12210, 15730),
    ("k3", (-1,), (-2,)): (7264, 13866, 37300, 76545, 146080, 316140),
    ("p1xp1", (1, 1), (-2, -2)): (20, 99, 20, -80, 20, -80),
    ("p1xp1", (-1, 0), (1, 2)): (-10, 84, 0, 180, 35, 270),
    ("p2", (1,), (1,)): (136, 210, 243, 381, 381, 603),
    ("p2", (-1,), (-1,)): (35, 441, 0, -339, 0, 0),
    ("f1", (0, 3), (1, -2)): (-7, -191, 0, 66, 0, 0),
    ("f1", (3, 2), (1, 1)): (956, 2517, 1887, 5316, 3135, 9190),
    ("k2", (-2,), (-1,)): (1022, 2604, 1980, 5327, 3255, 9030),
    ("k2", (2,), (-1,)): (44, -54, 54, -44, 63, -9),
}


def test_twisted_values_pinned_at_three_to_five_points(tmp_path):
    models = {s.name: s for s in _six_models(tmp_path)}
    for (name, L, A), pinned in _TWISTED_PINS.items():
        s = models[name]
        got = tuple(chi_sym_power(s, n, k, L, A) for n in (3, 4, 5) for k in (3, 4))
        assert got == pinned, (name, L, A)


def test_spot_56():
    assert chi_sym_power_smallk(P2, 3, 3, (2,), (0,)) == 56


def test_spot_540_both_routes():
    assert chi_sym_power_n2(P2, 3, (3,), (1,)) == 540
    assert chi_sym_power_smallk(P2, 2, 3, (3,), (1,)) == 540


def test_routes_agree_at_two_points():
    cases = [
        (P2, [(1,), (2,), (3,)], [(0,), (1,), (-1,)]),
        (P1P1, [(1, 1), (2, 1), (1, 3)], [(0, 0), (1, 0), (0, -1)]),
        (K3, [(1,), (2,)], [(0,), (1,)]),
        (AB, [(1,), (2,)], [(0,), (-1,)]),
    ]
    for s, Ls, As in cases:
        for L in Ls:
            for A in As:
                for k in range(5):
                    assert chi_sym_power_smallk(s, 2, k, L, A) == chi_sym_power_n2(
                        s, k, L, A
                    ), (s.name, k, L, A)


def test_point_parts_stop_at_k_points():
    """(1 - z)^chi(A) sum_n chi_{n,k} z^n is a polynomial of degree <= k
    with constant term [k = 0] and, for k >= 1, linear term chi(L^k A).
    Its z^2 coefficient comes through the two-point formula, so this also
    ties the two routes together."""
    rng = random.Random(31)
    for s in MODELS:
        for _ in range(4):
            L, A = (tuple(rng.randint(-3, 3) for _ in range(s.rank)) for _ in "LA")
            chi = chi_twists(s, L, A)
            for k in range(5):
                series = [int(k == 0)]
                series += [chi_sym_power(s, n, k, L, A) for n in range(1, k + 5)]
                parts = [sum((-1) ** (j - i) * binom_int(chi(0, 0, 1), j - i) * series[i]
                             for i in range(j + 1)) for j in range(len(series))]
                case = (s.name, L, A, k, parts)
                assert parts[0] == int(k == 0), case
                assert k == 0 or parts[1] == chi(0, k, 1), case
                assert not any(parts[k + 1:]), case


def test_section_count_identities_on_p2():
    # with trivial twist the chi of S^k stabilizes to the symmetric power
    # of the space of sections once there are at least k points
    for k in range(1, 5):
        for n in range(k, 8):
            for l in range(2, 10):
                expected = comb(comb(l + 2, 2) + k - 1, k)
                assert chi_sym_power(P2, n, k, (l,), (0,)) == expected, (n, k, l)


def test_stabilization_in_n():
    for s in (P2, P1P1):
        A = (0,) * s.rank
        L = (1,) * s.rank
        for k in range(5):
            values = [chi_sym_power(s, n, k, L, A) for n in range(max(k, 1), 9)]
            assert len(set(values)) == 1, (s.name, k, values)


def test_k0_counts_points_configurations():
    # S^0 is the structure sheaf, so only the twist by A contributes
    for s in MODELS:
        for n in range(1, 6):
            A = (1,) * s.rank
            assert chi_sym_power(s, n, 0, (0,) * s.rank, A) == binom_int(
                chi_line(s, A) + n - 1, n
            )


def test_unsupported_domain_raises():
    with pytest.raises(ValueError, match="unsupported"):
        chi_sym_power(P2, 3, 5, (1,), (0,))
    with pytest.raises(ValueError, match="unsupported"):
        chi_sym_power(P2, 1, 6, (1,), (0,))
    with pytest.raises(ValueError):
        chi_sym_power(P2, 0, 2, (1,), (0,))
    with pytest.raises(ValueError, match="k <= 4"):
        chi_sym_power_smallk(P2, 3, 5, (1,), (0,))


def test_graded_pieces_sum_to_total():
    for s in MODELS:
        L = (2,) * s.rank
        for A in ((0,) * s.rank, (1,) * s.rank):
            for k in range(61):
                total = sum(chi_graded_pieces_n2(s, k, L, A))
                assert total == chi_sym_power_n2_telescoped(s, k, L, A), (s.name, k, A)


def test_graded_pieces_match_one_piece_at_a_time():
    rng = random.Random(42)
    for s in MODELS:
        for _ in range(3):
            L, A = (tuple(rng.randint(-9, 9) for _ in range(s.rank)) for _ in "LA")
            for k in range(61):
                want = [chi_graded_piece_n2(s, k, j, L, A) for j in range(k // 2 + 1)]
                assert chi_graded_pieces_n2(s, k, L, A) == want, (s.name, L, A, k)


def test_graded_pieces_one_per_partition_into_two_parts():
    for k in range(9):
        assert len(chi_graded_pieces_n2(P2, k, (1,), (0,))) == k // 2 + 1, k
    for f in (chi_graded_pieces_n2, chi_sym_power_n2):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            f(P2, -1, (1,), (0,))


def test_graded_pieces_take_two_evaluations_per_step_of_k(monkeypatch):
    # one pass: a piece reads its product's factors, and each piece after
    # the first adds one term to the even sum and, if its parts differ, one
    # to the odd; none is read past the last piece, so k = 2 and k = 3 take
    # the 4 and 6 evaluations that summing each piece on its own takes
    calls = []

    def counted(s, L, A):
        om = chi_twists(s, L, A)
        return lambda *args: calls.append(args) or om(*args)

    monkeypatch.setattr(rroch, "chi_twists", counted)
    for k in range(41):
        calls.clear()
        chi_graded_pieces_n2(P1P1, k, (2, 1), (1, -1))
        assert len(calls) == max(2 * k, 1), k


def test_graded_piece_top_is_product():
    assert chi_graded_pieces_n2(P2, 3, (1,), (0,))[0] == chi_line(
        P2, (3,)
    ) * chi_line(P2, (0,))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(BUILTIN_SURFACES)),
    st.integers(0, 4),
    st.integers(-2, 4),
    st.integers(-2, 3),
)
def test_routes_agree_randomized(name, k, l, a):
    s = get_surface(name)
    L = (l,) * s.rank
    A = (a,) * s.rank
    assert chi_sym_power_smallk(s, 2, k, L, A) == chi_sym_power_n2(s, k, L, A)
