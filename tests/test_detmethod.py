"""W-set determinants, divisibility, expectation identity, interpolation."""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from polybox import (BudgetExceededError, FullRankError, Poly, bivar,
                     collision_count, interpolate_form, max_points_on_wcurve,
                     mean_distinct_identity, monomials_up_to, one,
                     proportional, random_irreducible, valuation,
                     verify_ord_inequality, wset_determinant, wset_grid,
                     wset_linear, zero)
from polybox import detmethod
from polybox.detmethod import InterpolationProblem, OrdReport
from polybox.grammar import poly_text
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


def _ord_reference(W, S, f):
    """The ordered-tuple loop: one cofactor (omega <= 5) or Bareiss
    determinant per tuple of S^omega with distinct indices."""
    pts = list(S)
    om = W.omega
    evals = [[Fm.evaluate(x, y) for (x, y) in pts] for Fm in W.forms]
    admissible = sum_ord = sum_kappa = 0
    bad = []
    for idx in product(range(len(pts)), repeat=om):
        if len(set(idx)) < om:
            continue
        rows = [[evals[i][j] for j in idx] for i in range(om)]
        det = det_cofactor(rows) if om <= 5 else det_bareiss(rows)
        if not det:
            continue
        admissible += 1
        kap = collision_count([pts[j] for j in idx], f)
        o = detmethod.valuation(det, f)
        sum_ord += o
        sum_kappa += kap
        if o < kap:
            bad.append({"tuple": [[poly_text(pts[j][0]), poly_text(pts[j][1])]
                                  for j in idx],
                        "ord": o, "kappa": kap})
    return OrdReport(omega=om, d_w=W.total_degree,
                     tuples_total=len(pts) ** om,
                     tuples_admissible=admissible, sum_ord=sum_ord,
                     sum_kappa=sum_kappa, passed=not bad,
                     counterexamples=tuple(bad))


_WSETS = {3: wset_linear,
          4: lambda F: wset_grid(F, 1, 1),
          6: lambda F: wset_grid(F, 1, 2)}


def _shifted_points(field, count, rng):
    """count distinct points near a nonzero base of degree 3 in each
    coordinate, so that low-degree moduli see collisions."""
    bx = Poly(field, [rng.randrange(field.q) for _ in range(3)] + [1])
    by = Poly(field, [rng.randrange(field.q) for _ in range(3)] + [1])
    pts = set()
    while len(pts) < count:
        pts.add((bx + random_poly(field, 2, rng),
                 by + random_poly(field, 2, rng)))
    return sorted(pts, key=lambda p: (p[0].coeffs, p[1].coeffs))


def _differential_cases(F2, F3, F4):
    rng = random.Random(83)
    for F in (F2, F3, F4):
        for om, size in ((3, 7), (4, 6), (6, 6)):
            S = _shifted_points(F, size, rng)
            f = random_irreducible(F, 1 + (om == 4), rng.randrange(4))
            yield _WSETS[om](F), S, f
    # a duplicated point, and fewer points than omega
    S = _shifted_points(F3, 5, rng)
    yield _WSETS[4](F3), S + [S[2]], T_of(F3)
    yield _WSETS[4](F4), _shifted_points(F4, 3, rng), T_of(F4)
    yield _WSETS[6](F2), [], T_of(F2)


def test_ord_inequality_matches_tuple_loop(F2, F3, F4):
    for W, S, f in _differential_cases(F2, F3, F4):
        rep = verify_ord_inequality(W, S, f)
        assert rep.to_json() == _ord_reference(W, S, f).to_json()


def test_ord_inequality_forced_failures_match_tuple_loop(F2, F3,
                                                         monkeypatch):
    monkeypatch.setattr(detmethod, "valuation", lambda a, f: 0)
    rng = random.Random(9)
    for F, om in ((F2, 3), (F3, 4)):
        S = _shifted_points(F, 6, rng)
        f = T_of(F)
        rep = verify_ord_inequality(_WSETS[om](F), S, f)
        ref = _ord_reference(_WSETS[om](F), S, f)
        assert not rep.passed and rep.to_json()["pass"] is False
        assert rep.counterexamples
        assert list(rep.counterexamples) == list(ref.counterexamples)
        assert rep.to_json() == ref.to_json()


def test_ord_inequality_omega6_nine_points(F3):
    # 9^6 = 531441 tuples; the reference takes one Bareiss determinant
    # per 6-subset, times its 720 orderings
    rng = random.Random(6)
    W = wset_grid(F3, 1, 2)
    S = _shifted_points(F3, 9, rng)
    f = Poly(F3, [1, 1])
    start = time.perf_counter()
    rep = verify_ord_inequality(W, S, f)
    elapsed = time.perf_counter() - start
    admissible = sum_ord = sum_kappa = 0
    for sub in combinations(S, 6):
        det = det_bareiss([[Fm.evaluate(x, y) for (x, y) in sub]
                           for Fm in W.forms])
        if det:
            admissible += 720
            sum_ord += 720 * valuation(det, f)
            sum_kappa += 720 * collision_count(sub, f)
    assert rep.passed and rep.tuples_total == 531441
    assert (rep.tuples_admissible, rep.sum_ord, rep.sum_kappa) == \
        (admissible, sum_ord, sum_kappa)
    assert sum_kappa > 0
    assert elapsed < 2.0


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


def test_distinct_count_sum_matches_tuple_loop():
    rng = random.Random(5)
    cases = [[0], [0] * 4, [0, 0, 1], [0, 1, 2, 3, 4, 5]]
    cases += [[rng.randrange(3) for _ in range(rng.randrange(2, 6))]
              for _ in range(4)]
    for ids in cases:
        for om in range(0, 7):
            want = sum(len({ids[j] for j in idx})
                       for idx in product(range(len(ids)), repeat=om))
            assert detmethod._distinct_count_sum(ids, om) == want
    with pytest.raises(ValueError):
        detmethod._distinct_count_sum([0, 1], -1)


def test_mean_identity_one_residue(F3):
    # every point congruent mod T: each tuple sees exactly one residue
    t = T_of(F3)
    S = [(t * Poly(F3, [a]), t * Poly(F3, [b])) for a in range(3)
         for b in range(2)]
    for om in range(1, 7):
        rep = mean_distinct_identity(S, t, om)
        assert rep.passed and rep.lhs == 1


# -- interpolation --

def test_monomial_order():
    assert monomials_up_to(2) == [(0, 0), (1, 0), (0, 1),
                                  (2, 0), (1, 1), (0, 2)]


def test_negative_form_degree_rejected(F3):
    pts = _pts(F3, ((), ()), ((1,), (1,)))
    with pytest.raises(ValueError):
        monomials_up_to(-1)
    with pytest.raises(ValueError):
        InterpolationProblem.build(pts, -1)
    with pytest.raises(ValueError):
        interpolate_form(pts, -1)


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
