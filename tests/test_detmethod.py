"""W-set determinants, divisibility, expectation identity, interpolation."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from polybox import (BudgetExceededError, FullRankError, Poly, bivar,
                     collision_count, interpolate_form, max_points_on_wcurve,
                     mean_distinct_identity, monomials_up_to, one,
                     proportional, random_irreducible, valuation,
                     verify_ord_inequality, wset_determinant, wset_grid,
                     wset_linear, zero)
from polybox.linalg import det_bareiss, det_cofactor
from polybox.poly import T as T_of, random_poly


def _pts(field, *coeff_pairs):
    return [(Poly(field, a), Poly(field, b)) for a, b in coeff_pairs]


def _rand_points(field, count, max_deg, rng):
    pts = set()
    while len(pts) < count:
        pts.add((random_poly(field, max_deg, rng),
                 random_poly(field, max_deg, rng)))
    return sorted(pts, key=lambda p: (p[0].coeffs, p[1].coeffs))


# -- W-sets --

def test_wset_grid_formulas(F2):
    W = wset_grid(F2, 2, 1)
    assert W.omega == 6
    assert W.total_degree == 9
    W0 = wset_grid(F2, 0, 0)
    assert W0.omega == 1 and W0.total_degree == 0
    assert W0.forms[0] == bivar(F2, {(0, 0): 1})


def test_wset_grid_matches_direct_summation(F3):
    for d in range(7):
        for M in range(7):
            W = wset_grid(F3, d, M)
            assert W.omega == (d + 1) * (M + 1)
            direct = sum(i + j for i in range(d + 1) for j in range(M + 1))
            assert W.total_degree == direct
            assert W.total_degree * 2 == (d + 1) * (M + 1) * (d + M)


def test_wset_requires_constant(F2):
    with pytest.raises(ValueError):
        from polybox.detmethod import WSet
        WSet(forms=(bivar(F2, {(1, 0): 1}),))


def test_wset_grid_separates_when_nontrivial(F2):
    # the d, M >= 1 grid contains X and Y, so distinct points separate
    W = wset_grid(F2, 1, 1)
    rng = random.Random(2)
    for _ in range(30):
        p = (random_poly(F2, 2, rng), random_poly(F2, 2, rng))
        q = (random_poly(F2, 2, rng), random_poly(F2, 2, rng))
        if p == q:
            continue
        assert any(Fm.evaluate(*p) != Fm.evaluate(*q) for Fm in W.forms)


# -- determinants --

def test_wdet_unit_pattern(F2):
    W = wset_linear(F2)
    pts = _pts(F2, ((), ()), ((1,), ()), ((), (1,)))
    assert wset_determinant(W, pts) == one(F2)


def test_wdet_repeated_point_vanishes(F3):
    W = wset_linear(F3)
    p = (Poly(F3, [1, 2]), Poly(F3, [2]))
    assert not wset_determinant(W, [p, p, (zero(F3), one(F3))])


def test_wdet_diagonal_dependence_vanishes(F2):
    W = wset_linear(F2)
    pts = _pts(F2, ((), ()), ((1,), (1,)), ((0, 1), (0, 1)))
    assert not wset_determinant(W, pts)


def test_wdet_alternating_sign(F3):
    W = wset_grid(F3, 1, 1)
    rng = random.Random(8)
    pts = _rand_points(F3, 4, 2, rng)
    base = wset_determinant(W, pts)
    for perm in permutations(range(4)):
        sign = 1
        seen = list(perm)
        # count inversions for the permutation sign
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if seen[i] > seen[j])
        expected = base if inv % 2 == 0 else -base
        assert wset_determinant(W, [pts[i] for i in perm]) == expected


def test_bareiss_matches_cofactor(F2, F3):
    rng = random.Random(12)
    for F in (F2, F3):
        for n in (2, 3, 4, 5):
            for _ in range(8):
                rows = [[random_poly(F, 2, rng) for _ in range(n)]
                        for _ in range(n)]
                assert det_bareiss(rows) == det_cofactor(rows)


# -- collision counts --

def test_collision_count_examples(F2):
    f = T_of(F2)
    pts = _pts(F2, ((), ()), ((1,), ()), ((), (1,)))
    assert collision_count(pts, f) == 0
    shifted = [(x + f, y) for (x, y) in pts[:1]] * 3
    assert collision_count(shifted, f) == 2
    one_pair = _pts(F2, ((), ()), ((0, 1), ()), ((1,), ()))
    assert collision_count(one_pair, f) == 1


# -- ord inequality --

def test_ord_inequality_distinct_constants(F2):
    W = wset_linear(F2)
    S = _pts(F2, ((), ()), ((1,), ()), ((), (1,)))
    rep = verify_ord_inequality(W, S, T_of(F2))
    assert rep.passed and rep.sum_kappa == 0
    assert rep.tuples_total == 27
    assert rep.omega == 3 and rep.d_w == 2


def test_ord_inequality_with_collision(F2):
    W = wset_linear(F2)
    S = _pts(F2, ((), ()), ((0, 1), ()), ((), (1,)))
    rep = verify_ord_inequality(W, S, T_of(F2))
    assert rep.passed
    assert rep.sum_kappa > 0
    assert rep.sum_ord >= rep.sum_kappa
    # the admissible count excludes repeated-entry tuples
    assert rep.tuples_admissible <= 3 * 2 * 1


def test_ord_inequality_budget(F2):
    W = wset_linear(F2)
    S = _pts(F2, ((), ()), ((1,), ()), ((), (1,)))
    with pytest.raises(BudgetExceededError):
        verify_ord_inequality(W, S, T_of(F2), budget=10)


def test_divisibility_spot_example(F2):
    # S with one congruent pair mod T: the mixed tuple determinant is
    # divisible by T exactly once
    W = wset_linear(F2)
    z, o, t = zero(F2), one(F2), T_of(F2)
    det = wset_determinant(W, [(z, z), (t, z), (z, o)])
    assert valuation(det, t) == 1
    assert collision_count([(z, z), (t, z), (z, o)], t) == 1


def test_tuple_report(F2):
    from polybox import tuple_report
    W = wset_linear(F2)
    z, o, t = zero(F2), one(F2), T_of(F2)
    rep = tuple_report(W, [(z, z), (t, z), (z, o)], t)
    assert rep.admissible and rep.kappa == 1 and rep.ord == 1
    degenerate = tuple_report(W, [(z, z), (z, z), (z, o)], t)
    assert not degenerate.admissible and degenerate.ord is None
    assert degenerate.kappa == 1  # two equal points, two distinct residues


# -- expectation identity --

def test_mean_identity_singleton(F2):
    S = _pts(F2, ((1,), (0, 1)))
    for om in (1, 2, 3, 5):
        rep = mean_distinct_identity(S, T_of(F2), om)
        assert rep.passed and rep.lhs == 1


def test_mean_identity_distinct(F3):
    f = random_irreducible(F3, 2, 0)
    S = _pts(F3, ((), ()), ((1,), ()), ((2,), ()), ((), (1,)))
    rep = mean_distinct_identity(S, f, 2)
    assert rep.passed
    assert rep.rhs == 2 - Fraction(1, len(S))


def test_mean_identity_collision_pair(F2):
    f = T_of(F2)
    S = [(zero(F2), zero(F2)), (T_of(F2), zero(F2))]
    rep = mean_distinct_identity(S, f, 2)
    assert rep.passed and rep.lhs == 1


def test_mean_identity_exhaustive_small(F2, F3):
    rng = random.Random(15)
    for F in (F2, F3):
        for size in (2, 3, 4, 5):
            for om in (2, 3, 4):
                S = _rand_points(F, size, 2, rng)
                f = random_irreducible(F, rng.randrange(1, 4),
                                       rng.randrange(4))
                rep = mean_distinct_identity(S, f, om)
                assert rep.passed


# -- interpolation --

def test_monomial_order():
    assert monomials_up_to(2) == [(0, 0), (1, 0), (0, 1),
                                  (2, 0), (1, 1), (0, 2)]


def test_interpolate_line_char2(F2):
    G = interpolate_form(_pts(F2, ((), ()), ((1,), (1,))), 1)
    assert G == bivar(F2, {(1, 0): 1, (0, 1): 1})


def test_interpolate_conic(F3):
    rng = random.Random(44)
    conic = bivar(F3, {(0, 1): 1, (2, 0): -1 % 3})
    xs = rng.sample([Poly(F3, c) for c in product(range(3), repeat=3)], 5)
    pts = [(x, x * x) for x in xs]
    G = interpolate_form(pts, 2)
    assert proportional(G, conic)


def test_interpolate_general_position_raises(F2):
    pts = _pts(F2, ((), ()), ((1,), ()), ((), (1,)))  # not collinear
    with pytest.raises(FullRankError):
        interpolate_form(pts, 1)


def test_interpolate_duplicate_points_rejected(F2):
    p = (one(F2), one(F2))
    with pytest.raises(ValueError):
        interpolate_form([p, p], 1)


def test_interpolate_vanishes_always(F3):
    rng = random.Random(3)
    for _ in range(20):
        pts = _rand_points(F3, 4, 2, rng)
        G = interpolate_form(pts, 2)
        assert G
        assert all(not G.evaluate(x, y) for (x, y) in pts)


# -- W-curve incidence --

def test_wcurve_max_on_a_line(F3):
    W = wset_linear(F3)
    pts = [(Poly(F3, [i]), Poly(F3, [i])) for i in range(3)]  # on Y = X
    assert max_points_on_wcurve(W, pts) == 3


def test_wcurve_max_general_position(F3):
    W = wset_linear(F3)
    pts = _pts(F3, ((), ()), ((1,), ()), ((), (1,)))
    assert max_points_on_wcurve(W, pts) == 2


def test_wcurve_small_sets(F2):
    W = wset_linear(F2)
    pts = _pts(F2, ((), ()), ((1,), (1,)))
    assert max_points_on_wcurve(W, pts) == 2  # |S| <= omega - 1


def test_wcurve_budget(F3):
    W = wset_linear(F3)
    rng = random.Random(1)
    pts = _rand_points(F3, 30, 2, rng)
    with pytest.raises(BudgetExceededError):
        max_points_on_wcurve(W, pts, budget=10)
