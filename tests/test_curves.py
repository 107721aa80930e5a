"""Bivariate polynomials: evaluation, counting mod f, transforms."""

import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polybox import (GF, BivarPoly, Poly, ResidueRing, TransformMatrix,
                     apply_transform, bivar, count_points_mod, curve_text,
                     degree_stats, find_full_degree_transform,
                     is_smooth_weierstrass, one, parse_curve,
                     random_irreducible, weil_window_check, zero)
from polybox.curves import (_count_exhaustive, _count_separable,
                            _split_separable, count_points_by_rows,
                            is_separable_sum, root_sets, top_form_value,
                            weierstrass_parts)
from polybox.poly import T as T_of, horner, random_poly
from polybox.residues import ResidueBatch


def _rand_bivar(field, max_exp, max_tdeg, rng, nonzero=True):
    terms = {}
    for i in range(max_exp + 1):
        for j in range(max_exp + 1 - i):
            if rng.random() < 0.4:
                c = random_poly(field, max_tdeg, rng)
                if c:
                    terms[(i, j)] = c
    F = BivarPoly(field, terms)
    if nonzero and not F:
        return _rand_bivar(field, max_exp, max_tdeg, rng, nonzero)
    return F


# -- evaluation --

def test_evaluate_examples(F2):
    t = T_of(F2)
    parab = bivar(F2, {(0, 1): 1, (2, 0): -1 % 2})
    assert not parab.evaluate(t, t * t)
    const = bivar(F2, {(0, 0): 1})
    assert const.evaluate(t, t) == one(F2)
    F = bivar(F2, {(1, 0): t, (0, 2): 1})
    assert F.evaluate(one(F2), t) == t + t * t


def test_evaluate_is_ring_hom(F3):
    rng = random.Random(3)
    for _ in range(30):
        A = _rand_bivar(F3, 2, 2, rng)
        B = _rand_bivar(F3, 2, 2, rng)
        x, y = random_poly(F3, 2, rng), random_poly(F3, 2, rng)
        assert (A + B).evaluate(x, y) == A.evaluate(x, y) + B.evaluate(x, y)
        assert (A * B).evaluate(x, y) == A.evaluate(x, y) * B.evaluate(x, y)


# -- degree stats --

def test_degree_stats_examples(F5):
    t = T_of(F5)
    F = bivar(F5, {(1, 0): t * t, (0, 2): t + one(F5)})
    assert degree_stats(F) == (2, 1, 2, 2)
    assert degree_stats(bivar(F5, {(1, 1): 1})) == (2, 1, 1, 0)
    G = bivar(F5, {(3, 0): 1, (0, 1): 1, (0, 0): -1 % 5})
    assert degree_stats(G) == (3, 3, 1, 0)
    with pytest.raises(ValueError):
        degree_stats(BivarPoly(F5, {}))


# -- counting mod f --

# The pure-Python count loops, kept as references for the digit engine:
# a histogram of -A(x) read at every B(y), and every pair (x, y).

def _count_separable_reference(Fr, ring):
    A, B = _split_separable(Fr)
    hist = Counter((-horner(A, x, ring.f)).coeffs for x in ring.elements())
    return sum(hist[horner(B, y, ring.f).coeffs] for y in ring.elements())


def _count_exhaustive_reference(Fr, ring):
    rows = Fr.y_coefficients()
    specs = ([horner(row, x, ring.f) for row in rows] for x in ring.elements())
    ys = list(ring.elements())
    return sum(not horner(cs, y, ring.f) for cs in specs for y in ys)


def _root_sets_reference(Fr, ring):
    """Per residue x, in index order: the int64 indices of the y with
    Fr(x, y) = 0 mod f.  The one per-x root finder of point counts and crt
    root tables."""
    rows = Fr.y_coefficients()
    batch = ring.batch()
    for x in ring.elements():
        vals = batch.eval_univariate(
            [horner(row, x, ring.f) for row in rows], batch.digits)
        yield np.flatnonzero(~vals.any(axis=1))


def test_root_sets_match_per_x_reference(F2, F3, F4, F9, monkeypatch):
    # x by x against the per-x loop: a Weierstrass cubic (Y-row 1 empty),
    # X*Y + X (every y is a root at x = 0), X + 1 (no Y term) and a mixed
    # curve on a ring of several pair_products blocks
    blocks = []
    real = ResidueBatch.pair_products

    def spy(self, xs, ys):
        for start, P in real(self, xs, ys):
            blocks.append(start)
            yield start, P
    monkeypatch.setattr(ResidueBatch, "pair_products", spy)
    for F, small, big in ((F2, 3, 7), (F3, 2, 4), (F4, 2, 3), (F9, 1, 2)):
        t, m1 = T_of(F), -1 % F.p
        curves = [
            (bivar(F, {(0, 2): 1, (3, 0): m1, (1, 0): t, (0, 0): 1}), small),
            (bivar(F, {(1, 1): 1, (1, 0): 1}), small),
            (bivar(F, {(1, 0): 1, (0, 0): 1}), small),
            (bivar(F, {(0, 2): t, (1, 1): 1, (2, 1): m1, (2, 0): t + one(F),
                       (0, 0): 1}), big)]
        for C, deg in curves:
            ring = ResidueRing(random_irreducible(F, deg, 3), check=False)
            Fr = C.reduce_mod(ring)
            want = list(_root_sets_reference(Fr, ring))
            xs, ys = root_sets(Fr, ring)
            assert (np.diff(xs) >= 0).all()
            assert [ys[xs == x].tolist() for x in range(ring.size)] == \
                [r.tolist() for r in want]
            if C is curves[1][0]:
                assert len(want[0]) == ring.size
    assert max(blocks) > 0


def test_count_points_examples(F2):
    wcurve = bivar(F2, {(0, 2): 1, (3, 0): 1, (1, 0): 1})  # Y^2 - X^3 - X
    assert count_points_mod(wcurve, T_of(F2)) == 2
    assert count_points_mod(wcurve, Poly(F2, [1, 1, 1])) == 4
    assert count_points_mod(bivar(F2, {(0, 0): 1}), T_of(F2)) == 0
    with pytest.raises(ValueError):
        count_points_mod(bivar(F2, {(0, 0): 0, (1, 0): T_of(F2)}),
                         T_of(F2))  # vanishes identically mod T


def test_count_methods_agree(F2, F3, F4, F9):
    rng = random.Random(9)
    cases = [(F, d, 10) for F in (F2, F3) for d in (1, 2, 3)]
    cases += [(F4, 2, 10), (F9, 2, 10)]   # extension fields
    # 1024 and 729 residues: the vector path on extension fields, where
    # one count takes about a second, so two curves each
    cases += [(F4, 5, 2), (F9, 3, 2)]
    for F, deg_f, draws in cases:
        f = random_irreducible(F, deg_f, 5)
        for _ in range(draws):
            C = _rand_bivar(F, 2, 1, rng)
            ring = ResidueRing(f, check=False)
            Fr = C.reduce_mod(ring)
            if not Fr:
                continue
            counts = {_count_exhaustive(Fr, ring),
                      count_points_by_rows(C, f)}
            if all(i == 0 or j == 0 for i, j in C.terms):
                counts.add(_count_separable(Fr, ring))
            assert len(counts) == 1


def test_count_vector_path_matches_scalar(F2, F3, F4, F9):
    # the digit engine counts at every ring size; the pure loops are the
    # references: Weierstrass curves on GF(3)^6 and GF(4)^5 (729 and 1024
    # residues) against the separable one, and rings of 2 to 81 residues
    # against both (the exhaustive one takes over a second at 243)
    for F, deg_f in ((F3, 6), (F4, 5)):
        ring = ResidueRing(random_irreducible(F, deg_f, 1), check=False)
        wcurve = bivar(F, {(0, 2): 1, (3, 0): -1 % F.p, (0, 0): -1 % F.p})
        assert count_points_mod(wcurve, ring) == \
            _count_separable_reference(wcurve.reduce_mod(ring), ring)
    rng = random.Random(17)
    for F, deg_f in ((F2, 1), (F2, 2), (F4, 1), (F3, 2), (F9, 1), (F4, 3),
                     (F3, 4), (F9, 2)):
        ring = ResidueRing(random_irreducible(F, deg_f, 2), check=False)
        t = T_of(F)
        curves = [
            bivar(F, {(0, 2): 1, (3, 0): -1 % F.p, (1, 0): 1, (0, 0): t}),
            bivar(F, {(0, 2): 1, (1, 1): 1, (3, 0): -1 % F.p, (0, 0): 1}),
            _rand_bivar(F, 3, 1, rng)]
        for C in curves:
            Fr = C.reduce_mod(ring)
            if not Fr:
                continue
            want = _count_exhaustive_reference(Fr, ring)
            assert count_points_mod(C, ring) == want
            assert _count_exhaustive(Fr, ring) == want
            assert count_points_by_rows(C, ring) == want
            if is_separable_sum(Fr):
                assert _count_separable_reference(Fr, ring) == want
                assert _count_separable(Fr, ring) == want


@given(st.sampled_from([2, 3, 4, 5, 9]), st.data())
@settings(max_examples=20, deadline=None)
def test_count_paths_agree_property(q, data):
    # curves of X-degree <= 3 and Y-degree <= 2, coefficients of T-degree
    # <= 1, modulo f of degree 1 or 2: every count path and the references
    F = GF(q)
    ring = ResidueRing(random_irreducible(F, data.draw(st.integers(1, 2)),
                                          data.draw(st.integers(0, 5))),
                       check=False)
    separable = data.draw(st.booleans())
    coeffs = st.lists(st.integers(0, q - 1), max_size=2)
    C = BivarPoly(F, {(i, j): Poly(F, data.draw(coeffs))
                      for i in range(4) for j in range(3)
                      if not (separable and i and j)})
    Fr = C.reduce_mod(ring)
    assume(Fr)
    want = _count_exhaustive_reference(Fr, ring)
    assert count_points_mod(C, ring) == want
    assert _count_exhaustive(Fr, ring) == want
    assert count_points_by_rows(C, ring) == want
    if is_separable_sum(Fr):
        assert _count_separable(Fr, ring) == want
        assert _count_separable_reference(Fr, ring) == want


def test_count_invariant_under_transform(F3):
    rng = random.Random(21)
    f = random_irreducible(F3, 2, 0)
    for _ in range(10):
        C = _rand_bivar(F3, 2, 1, rng)
        ring = ResidueRing(f, check=False)
        if not C.reduce_mod(ring):
            continue
        while True:
            a, b = random_poly(F3, 1, rng), random_poly(F3, 1, rng)
            c, d = random_poly(F3, 1, rng), random_poly(F3, 1, rng)
            det = a * d - b * c
            if det and det % f:  # invertible mod f: substitution permutes the plane
                M = TransformMatrix(a, b, c, d)
                break
        C2 = apply_transform(C, M)
        assert count_points_mod(C, f) == count_points_mod(C2, f)


# -- Weil window --

def test_weil_window_smoke(F2, F4):
    wcurve = bivar(F2, {(0, 2): 1, (3, 0): 1, (1, 0): 1})
    rep = weil_window_check(wcurve, Poly(F2, [1, 1, 1]), C=2)
    assert rep.count == 4 and rep.size == 4 and rep.passed
    # reducible X*Y: count = 2|f| - 1 breaks the window for larger |f|
    xy = bivar(F2, {(1, 1): 1})
    f3 = Poly(F2, [1, 1, 0, 1])
    rep2 = weil_window_check(xy, f3, C=2)
    assert rep2.count == 2 * 8 - 1 and not rep2.passed


def test_weil_negative_constant_rejected(F2):
    # dev**2 <= C**2 * |f| would pass for any C = -c that c passes
    w = bivar(F2, {(0, 2): 1, (0, 1): 1, (3, 0): 1})
    with pytest.raises(ValueError):
        weil_window_check(w, Poly(F2, [1, 1, 1]), C=-2)
    assert weil_window_check(w, Poly(F2, [1, 1, 1]), C=0).constant == 0


def test_weil_default_constant(F5):
    w = bivar(F5, {(0, 2): 1, (3, 0): -1 % 5, (1, 0): -1 % 5})  # a=1, b=0
    assert is_smooth_weierstrass(w)
    rep = weil_window_check(w, T_of(F5))
    assert rep.constant == 2
    generic = bivar(F5, {(1, 1): 1, (0, 0): 1})
    rep2 = weil_window_check(generic, T_of(F5))
    assert rep2.constant == 2 * 2 ** 2


def test_weierstrass_char2_is_singular(F2, F4):
    # dF/dY = 2Y vanishes and X^2 = a has a root over the closure, so the
    # curve is singular even where the literal discriminant b^2 is nonzero
    for F in (F2, F4):
        t = T_of(F)
        for a, b in ((zero(F), one(F)), (t, one(F)), (one(F), t)):
            w = BivarPoly(F, {(0, 2): one(F), (3, 0): -one(F),
                              (1, 0): -a, (0, 0): -b})
            assert weierstrass_parts(w) == (a, b)
            assert not is_smooth_weierstrass(w)
            assert weil_window_check(w, t).constant == 2 * 3 ** 2


# -- transforms --

def test_apply_transform_examples(F2, F3):
    ident = TransformMatrix(one(F2), zero(F2), zero(F2), one(F2))
    F = bivar(F2, {(0, 2): 1, (1, 0): T_of(F2)})
    assert apply_transform(F, ident) == F
    # Y^2 under Y = X' + Y': square expands, middle term dies in char 2
    shear2 = TransformMatrix(one(F2), zero(F2), one(F2), one(F2))
    assert apply_transform(bivar(F2, {(0, 2): 1}), shear2) == \
        bivar(F2, {(2, 0): 1, (0, 2): 1})
    shear3 = TransformMatrix(one(F3), zero(F3), one(F3), one(F3))
    assert apply_transform(bivar(F3, {(0, 2): 1}), shear3) == \
        bivar(F3, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_apply_transform_evaluation_identity(F3):
    rng = random.Random(7)
    for _ in range(20):
        F = _rand_bivar(F3, 3, 1, rng)
        a, b, c, d = (random_poly(F3, 1, rng) for _ in range(4))
        if not (a * d - b * c):
            continue
        M = TransformMatrix(a, b, c, d)
        G = apply_transform(F, M)
        x, y = random_poly(F3, 2, rng), random_poly(F3, 2, rng)
        assert G.evaluate(x, y) == F.evaluate(a * x + b * y, c * x + d * y)


def test_apply_transform_rejects_singular(F2):
    with pytest.raises(ValueError):
        TransformMatrix(one(F2), one(F2), one(F2), one(F2))


def test_degree_preserved_randomized(F2, F3):
    rng = random.Random(13)
    for F in (F2, F3):
        for _ in range(50):
            C = _rand_bivar(F, 3, 1, rng)
            while True:
                a, b, c, d = (random_poly(F, 1, rng) for _ in range(4))
                if a * d - b * c:
                    break
            assert apply_transform(C, TransformMatrix(a, b, c, d)).deg == C.deg


def test_full_degree_transform_examples(F2):
    C = bivar(F2, {(2, 0): 1, (0, 1): 1})  # X^2 + Y: deg_X already full
    M, C2 = find_full_degree_transform(C)
    assert C2 == C and M.b == zero(F2) and M.c == zero(F2)
    M2, D = find_full_degree_transform(bivar(F2, {(0, 2): 1}))
    assert D.deg_x == 2
    M3, E = find_full_degree_transform(bivar(F2, {(1, 1): 1}))
    assert E.deg_x == 2


def test_full_degree_transform_exhaustive_top_forms(F2):
    # behavior depends only on the top form; enumerate all of degree <= 3
    # with coefficients of T-degree <= 1
    coeff_opts = [Poly(F2, c) for c in product(range(2), repeat=2)]
    for d in (1, 2, 3):
        for coeffs in product(coeff_opts, repeat=d + 1):
            terms = {(d - j, j): c for j, c in enumerate(coeffs) if c}
            if not terms:
                continue
            F = BivarPoly(F2, terms)
            M, G = find_full_degree_transform(F)
            assert G.deg == F.deg == d
            assert G.deg_x == d


def test_top_form_value(F2):
    F = bivar(F2, {(0, 2): 1})
    c = one(F2)
    assert top_form_value(F, c) == one(F2)  # F_d(1, 1) = 1^2


# -- grammar --

def test_parse_curve_weierstrass_q5(F5):
    C = parse_curve(F5, "Y^2-X^3-(T)*X")
    t = T_of(F5)
    assert C.terms == {(0, 2): one(F5), (3, 0): Poly(F5, [4]),
                       (1, 0): t.scaled(4)}
    assert parse_curve(F5, curve_text(C)) == C


def test_parse_curve_constant(F2):
    C = parse_curve(F2, "1")
    assert C.terms == {(0, 0): one(F2)}


def test_parse_curve_error_offset(F2):
    from polybox import ParseError
    with pytest.raises(ParseError) as exc:
        parse_curve(F2, "X^2+*Y")
    assert exc.value.offset == 4


def test_curve_roundtrip_corpus():
    rng = random.Random(23)
    for q in (2, 3, 5):
        F = GF(q)
        for _ in range(40):
            C = _rand_bivar(F, 3, 2, rng)
            assert parse_curve(F, curve_text(C)) == C
