"""Hand-checkable cases for the benchmark's oracles.

    python3 perfbench/test_oracles.py        (or: python3 -m pytest perfbench)
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as O  # noqa: E402

F2, F3 = O.Field(2), O.Field(3)
F4 = O.Field(2, [1, 1, 1])          # u^2 = u + 1; u is 2, u + 1 is 3
T = [0, 1]


def test_extension_field_tables():
    assert F4.mul(2, 2) == 3                     # u^2 = u + 1
    assert F4.mul(2, 3) == 1                     # u (u + 1) = u^2 + u = 1
    assert F4.inv(2) == 3 and F4.add(2, 3) == 1
    assert F4.sqrt(3) == 2
    try:
        O.Field(2, [1, 0, 1]).mul(2, 3)          # u^2 + 1 = (u + 1)^2
    except ValueError:
        pass
    else:
        raise AssertionError("reducible modulus accepted")


def test_division_and_inverse():
    quo, rem = O.pdivmod(F3, [1, 0, 1], [1, 1])  # T^2 + 1 = (T + 1)(T - 1) + 2
    assert quo == [2, 1] and rem == [2]
    assert O.pinvmod(F3, T, [1, 0, 1]) == [0, 2]  # T * (-T) = -T^2 = 1
    assert O.valuation(F2, [0, 0, 1, 1], T) == 2  # T^2 (T + 1)


def test_irreducibility():
    assert O.is_irreducible(F2, [1, 1, 1])
    assert not O.is_irreducible(F2, [1, 0, 1])          # (T + 1)^2
    assert O.is_irreducible(F2, [1, 1, 0, 1])
    assert not O.is_irreducible(F2, [1, 0, 1, 0, 1])    # (T^2 + T + 1)^2
    assert O.is_irreducible(F2, [1, 1, 0, 0, 1])
    f = O.random_irreducible(F3, 5, random.Random(0))
    assert O.deg(f) == 5 and O.is_irreducible(F3, f)


def test_polynomial_square_roots():
    assert O.poly_sqrt(F2, [1, 0, 1]) == [1, 1]         # (T + 1)^2
    assert O.poly_sqrt(F2, [1, 1]) is None              # odd coefficient
    assert O.poly_sqrt(F4, [3, 0, 2]) == [2, 3]         # (u + (u + 1) T)^2
    assert O.poly_sqrt(F3, [1, 2, 1]) in ([1, 1], [2, 2])
    assert O.poly_sqrt(F3, [1, 0, 1]) is None           # T^2 + 1


def test_box_counts():
    # y^2 = x^3 + 1 over GF(2), deg x, y <= 0: (0, 1) and (1, 0)
    assert O.weierstrass_box_count(F2, [], [1], [], [], 0) == 2
    # y = x^2 with deg y <= 2 needs deg x <= 1: four points
    assert O.graph_box_count(F2, [1], 2, [], [], [], 2) == 4
    assert O.monomial_box_count(2, 2, 2) == 4
    # shifting both boxes by a point of the curve keeps that point
    assert O.graph_box_count(F3, [1], 2, [1], [0, 0, 1], [1, 0, 0, 0, 1],
                             0) == 1


def test_counts_mod_f():
    curve = {(0, 2): [1], (3, 0): [1], (0, 0): [1]}     # y^2 + x^3 + 1
    assert O.count_mod_bruteforce(F2, curve, T) == 2
    assert O.hasse_weil_ok(5, 4) and not O.hasse_weil_ok(20, 4)


def test_determinant_recount():
    assert O.det3_linear(F3, ([], []), ([1], []), ([], [1])) == [1]
    assert O.det3_linear(F3, ([], []), ([1], [1]), ([2], [2])) == []
    # (0, 0), (T, 0), (0, T): det = T^2, and all three reduce to (0, 0)
    # mod T, so every ordered triple has ord 2 and kappa 2
    pts = [([], []), (T, []), ([], T)]
    assert O.ord_recount_linear(F2, pts, T) == {
        "admissible": 6, "sum_ord": 12, "sum_kappa": 12}


def test_mean_identity_and_collinearity():
    lhs, rhs = O.mean_distinct(F2, [([], []), ([1], [])], T, 2)
    assert lhs == rhs == Fraction(3, 2)
    lhs, rhs = O.mean_distinct(F2, [([], []), (T, [])], T, 2)
    assert lhs == rhs == 1
    pts = [([], []), ([1], [1]), ([2], [2]), ([1], [2])]
    assert O.max_collinear(F3, pts) == 3


def test_censuses():
    # f = T, box {0, 1}: N_0 = 2 (a = 0), N_1 = 2 (a^3 = b^2)
    assert O.class_sum(F2, [[], [1]], T, 2) == 4
    assert O.ninth_window_rows(F2, [[], [1]], [1, 1, 1]) == {(): 2, (1,): 2}


def test_multiplier_helpers():
    f = [1, 1, 1]
    assert O.remainder_degrees(F2, [T], T, f) == [1]    # T^2 = T + 1
    assert O.is_witness(F2, [1], [1], [1], [1], [1], f)
    assert not O.is_witness(F2, [1], [1], [1], [1], [], f)


def test_text_round_trip():
    import workloads as W
    for F, a in ((F3, [2, 0, 1, 1]), (F3, []), (F4, [3, 0, 2])):
        assert W.parse_text(F, W.poly_text(F, a)) == a
    assert W.poly_text(F3, [1, 2, 0, 1]) == "T^3+2*T+1"


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
