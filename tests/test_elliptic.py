"""Isomorphism censuses, pigeonhole multipliers, small-coefficient models."""

import random
import warnings
from collections import Counter

import pytest

from polybox import (GF, ECPair, Interval, PigeonInstance, Poly,
                     PolyboxError, ResidueRing, count_invariant_pairs,
                     count_nlambda, extremal_count, extremal_witnesses,
                     frac_dist, invariant_congruent, iso_witness,
                     ninth_window_scan, ninth_window_tau_plan, one,
                     pigeonhole_multiplier, pigeonhole_oracle,
                     random_irreducible, small_coeff_model, zero,
                     zero_interval)
from polybox.elliptic import _ratio_classes
from polybox.poly import T as T_of, random_poly


# -- pairs --

def test_ecpair_validation(F5):
    a, b = one(F5), one(F5)
    ECPair(a, b)
    with pytest.raises(ValueError):
        ECPair(zero(F5), zero(F5))


def test_ecpair_small_characteristic_warns(F2):
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        ECPair(T_of(F2), one(F2))
        assert any("discriminant" in str(w.message) for w in log)
    with pytest.raises(ValueError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ECPair(T_of(F2), zero(F2))  # char 2: 4a^3+27b^2 = b^2 = 0


# -- invariant congruence --

def test_invariant_examples(F2):
    f = Poly(F2, [1, 1, 0, 0, 1])
    t = T_of(F2)
    a = b = one(F2)
    c, d = (t ** 4) % f, (t ** 6) % f
    assert invariant_congruent(a, b, c, d, f)
    f2 = Poly(F2, [1, 1, 1])
    assert not invariant_congruent(one(F2), one(F2), one(F2), t, f2)
    assert invariant_congruent(zero(F2), b, zero(F2), t, f2)


# -- witnesses --

def test_iso_witness_constructed(F2):
    f = Poly(F2, [1, 1, 0, 0, 1])
    ring = ResidueRing(f)
    t = T_of(F2)
    w = iso_witness(one(F2), one(F2), (t ** 4) % f, (t ** 6) % f, ring)
    assert w is not None
    t4 = ring.pow(w, 4)
    t6 = ring.pow(w, 6)
    assert t4 == (t ** 4) % f and t6 == (t ** 6) % f


def test_iso_witness_implies_invariant(F3):
    rng = random.Random(6)
    f = random_irreducible(F3, 2, 1)
    ring = ResidueRing(f)
    hits = 0
    for _ in range(60):
        a, b, c, d = (random_poly(F3, 1, rng) for _ in range(4))
        w = iso_witness(a, b, c, d, ring)
        if w is not None:
            hits += 1
            assert invariant_congruent(a, b, c, d, ring)
    assert hits > 0


def _twist_fixture(F3):
    """(a, b, c, d, ring): invariant holds but no witness exists."""
    f = Poly(F3, [1, 0, 1])  # T^2 + 1, irreducible over F_3
    ring = ResidueRing(f)
    squares = {ring.mul(t, t).coeffs for t in ring.elements() if t}
    for g in ring.elements():
        if g and g.coeffs not in squares:
            a = b = one(F3)
            c = ring.mul(g, g)
            d = ring.mul(c, g)
            return a, b, c, d, ring
    raise AssertionError("no non-square in F_9?")


def test_twist_has_invariant_but_no_witness(F3):
    a, b, c, d, ring = _twist_fixture(F3)
    assert invariant_congruent(a, b, c, d, ring)
    assert iso_witness(a, b, c, d, ring) is None
    # exhaustive oracle: genuinely no unit works
    for t in ring.elements():
        if t:
            t4, t6 = ring.pow(t, 4), ring.pow(t, 6)
            assert not (ring.mul(a, t4) == c and ring.mul(b, t6) == d)


# -- censuses --

def test_count_nlambda_examples(F2):
    fT = T_of(F2)
    I0 = zero_interval(F2, 0)
    assert count_nlambda(I0, one(F2), fT) == 2   # (0,0), (1,1)
    assert count_nlambda(I0, zero(F2), fT) == 2  # (0,0), (0,1)


def test_count_nlambda_matches_definition(F3):
    rng = random.Random(19)
    f = random_irreducible(F3, 2, 3)
    ring = ResidueRing(f)
    I = Interval(random_poly(F3, 1, rng), 1)
    lam = random_poly(F3, 1, rng)
    brute = sum(1 for a in I for b in I
                if not (a ** 3 - lam * b ** 2) % f)
    assert count_nlambda(I, lam, ring) == brute


def test_census_example_16_quadruples(F2):
    I0 = zero_interval(F2, 0)
    fT = T_of(F2)
    assert count_invariant_pairs(I0, fT, method="quad") == 10
    assert count_invariant_pairs(I0, fT, method="bucket") == 10


def _b_zero_boxes(fields):
    """Shifted n = 1 boxes modulo a degree-1 f, one per field: some
    nonzero members are 0 mod f, so pairs with b = 0 and a unit, and with
    a = b = 0, both occur."""
    rng = random.Random(19)
    return [(Interval(random_poly(F, 1, rng), 1), random_irreducible(F, 1, 4))
            for F in fields]


def test_census_methods_agree_and_dominate_diagonal(F2, F3, F4):
    rng = random.Random(8)
    cases = []
    for F in (F2, F3):
        f = random_irreducible(F, 2, 2)
        for n in (0, 1):
            cases.append((Interval(random_poly(F, 1, rng), n), f))
    cases += _b_zero_boxes((F3, F4))
    for I, f in cases:
        quad = count_invariant_pairs(I, f, method="quad")
        bucket = count_invariant_pairs(I, f, method="bucket")
        assert quad == bucket
        assert quad >= I.size ** 2  # diagonal pairs always match
    for I, f in cases[4:]:
        _, b_zero, both = _ratio_classes(I, ResidueRing(f))
        assert b_zero and both


def test_nlambda_sum_identity_exhaustive():
    # sum over residues lambda of N_lambda = #{f does not divide b}
    #                                        + |f| * #{f | a and f | b}
    for q in (2, 3):
        F = GF(q)
        for f in _all_irreducible_upto(F, 3):
            ring = ResidueRing(f, check=False)
            for n in (0, 1, 2):
                I = zero_interval(F, n)
                total = sum(count_nlambda(I, lam, ring)
                            for lam in ring.elements())
                unit_b = sum(1 for a in I for b in I if b % f)
                both = sum(1 for a in I for b in I
                           if not a % f and not b % f)
                assert total == unit_b + ring.size * both


def _all_irreducible_upto(F, max_deg):
    from polybox import monic_irreducibles
    return list(monic_irreducibles(F, max_deg))


# -- digit census kernels against the Poly reference loops --

def _nlambda_reference(I, lam, f):
    """count_nlambda as a per-member Poly loop."""
    ring = ResidueRing.of(f)
    hist: dict = {}
    for a in I:
        key = ring.pow(a, 3).coeffs
        hist[key] = hist.get(key, 0) + 1
    lam = lam % ring.f
    total = 0
    for b in I:
        target = ring.mul(lam, ring.mul(b % ring.f, b % ring.f))
        total += hist.get(target.coeffs, 0)
    return total


def _quad_reference(I, ring):
    """count_invariant_pairs(method="quad") as a per-quadruple Poly loop."""
    cubes = [ring.pow(a, 3) for a in I]
    squares = [ring.pow(b, 2) for b in I]
    pairs = [(a3, b2) for a3 in cubes for b2 in squares]
    total = 0
    for a3, b2 in pairs:
        for c3, d2 in pairs:
            if ring.mul(a3, d2) == ring.mul(c3, b2):
                total += 1
    return total


def _ratio_classes_reference(I, ring):
    """_ratio_classes with a Counter keyed by coefficient tuples."""
    cubes = [ring.pow(a, 3) for a in I]
    inv_squares = [ring.inv(ring.mul(b, b)) for b in I if b % ring.f]
    hist = Counter(ring.mul(a3, s).coeffs
                   for a3 in cubes for s in inv_squares)
    zeros = len(cubes) - len(inv_squares)   # members b = 0 mod f
    units = sum(map(bool, cubes))
    return hist, zeros * units, zeros * (len(cubes) - units)


def _assert_ratio_classes_match(I, ring):
    (keys, counts), b_zero, both = _ratio_classes(I, ring)
    hist = {ring.from_index(k).coeffs: v
            for k, v in zip(keys.tolist(), counts.tolist())}
    assert (hist, b_zero, both) == _ratio_classes_reference(I, ring)


def test_census_kernels_match_reference(F2, F3, F4, F9):
    # shifted boxes whose base degree exceeds deg f, lambda = 0, a lambda
    # of degree >= deg f, and the degree-1 b = 0 boxes
    rng = random.Random(31)
    cases = []
    for F, fdeg, n in ((F2, 3, 2), (F3, 2, 1), (F4, 2, 1), (F9, 2, 0)):
        f = random_irreducible(F, fdeg, 5)
        cases.append((zero_interval(F, n), f))
        cases.append((Interval(random_poly(F, fdeg + 2, rng), n), f))
    cases += _b_zero_boxes((F2, F3, F4, F9))
    for I, f in cases:
        ring = ResidueRing(f)
        F = ring.field
        m = ring.deg
        lams = [zero(F), one(F), random_poly(F, m - 1, rng),
                random_poly(F, m + 1, rng)]
        for lam in lams:
            assert count_nlambda(I, lam, ring) == _nlambda_reference(I, lam,
                                                                     ring)
        quad = count_invariant_pairs(I, ring, method="quad")
        if I.size <= 16:    # the reference makes 2 |I|^4 products
            assert quad == _quad_reference(I, ring)
        assert count_invariant_pairs(I, ring, method="bucket") == quad
        _assert_ratio_classes_match(I, ring)


def test_census_kernels_match_reference_wide_ring(F2, F9):
    # |f| = 2**64 and 9**20 exceed int64, so residue indices are Python ints
    rng = random.Random(37)
    for F, fdeg, n in ((F2, 64, 1), (F9, 20, 0)):
        ring = ResidueRing(random_irreducible(F, fdeg, 0), check=False)
        I = Interval(random_poly(F, 3, rng), n)
        lam = random_poly(F, fdeg - 1, rng)
        assert count_nlambda(I, lam, ring) == _nlambda_reference(I, lam, ring)
        assert count_nlambda(I, one(F), ring) \
            == _nlambda_reference(I, one(F), ring)
        assert count_invariant_pairs(I, ring, method="quad") \
            == _quad_reference(I, ring)
        _assert_ratio_classes_match(I, ring)


def test_censuses_never_build_the_whole_field(F2):
    # criterion 10's largest modulus: 2**27 x 27 int64 digits would not fit
    f = random_irreducible(F2, 27, 3)
    ring = ResidueRing(f)
    I = zero_interval(F2, 2)
    for lam in (one(F2), T_of(F2), zero(F2)):
        assert count_nlambda(I, lam, ring) == _nlambda_reference(I, lam, ring)
    rep = ninth_window_scan(I, ring)
    hist, _, both = _ratio_classes_reference(I, ring)
    assert {lam.coeffs: c for lam, c in rep.rows} \
        == {key: v + both for key, v in hist.items()}
    assert "digits" not in ring.batch().__dict__


def test_census_kernels_reject_another_field(F2, F3):
    # a GF(3) box modulo a GF(2) ring
    ring = ResidueRing(Poly(F2, [1, 1, 1]))
    I = zero_interval(F3, 1)
    with pytest.raises(ValueError, match="mismatched field parameters"):
        count_nlambda(I, one(F2), ring)
    for method in ("quad", "bucket"):
        with pytest.raises(ValueError, match="mismatched field parameters"):
            count_invariant_pairs(I, ring, method=method)
    with pytest.raises(ValueError, match="mismatched field parameters"):
        ninth_window_scan(I, ring, force=True)


def _slot_boxes(F, n, fdeg, rng):
    """Boxes A, B, then A again as a separate Interval equal in value;
    A's base has degree above the bound, B's is shifted within it."""
    A = Interval(random_poly(F, fdeg + 2, rng), n)
    B = Interval(random_poly(F, n, rng), n)
    while B == A or not B.base:
        B = Interval(random_poly(F, n, rng), n)
    again = Interval(Poly(F, A.base.coeffs), n)
    assert again == A and again is not A
    return A, B, again


def test_census_box_slot_matches_reference(F2, F3, F4, F9):
    # one ring per field; each census on the ring reads or replaces its
    # stored box, and must agree with the per-member Poly loops
    rng = random.Random(41)
    for F, fdeg, n in ((F2, 3, 2), (F3, 2, 1), (F4, 2, 1), (F9, 2, 0)):
        ring = ResidueRing(random_irreducible(F, fdeg, 5))
        A, B, again = _slot_boxes(F, n, fdeg, rng)
        for I in (A, B, again):
            for lam in ring.elements():
                assert count_nlambda(I, lam, ring) \
                    == _nlambda_reference(I, lam, ring)
            assert ring.batch().census.box == I
        for I in (again, B):
            quad = _quad_reference(I, ring)
            assert count_invariant_pairs(I, ring, method="quad") == quad
            assert count_invariant_pairs(I, ring, method="bucket") == quad
            rep = ninth_window_scan(I, ring, force=True)
            hist, _, both = _ratio_classes_reference(I, ring)
            assert {lam.coeffs: c for lam, c in rep.rows} \
                == {key: v + both for key, v in hist.items()}
        box = ring.batch().census
        for arr in (box.cubes, box.squares):
            with pytest.raises(ValueError):
                arr[0, 0] = 1


def test_nlambda_sum_reads_the_box_once(F3, monkeypatch):
    from polybox import elliptic
    reads = []

    def counted(*args):
        reads.append(args[0])
        return box_digit_rows(*args)

    box_digit_rows = elliptic.box_digit_rows
    monkeypatch.setattr(elliptic, "box_digit_rows", counted)
    rng = random.Random(43)
    ring = ResidueRing(random_irreducible(F3, 2, 7))
    A, B, again = _slot_boxes(F3, 1, 2, rng)

    def lambda_sum(I):
        total = sum(count_nlambda(I, lam, ring) for lam in ring.elements())
        unit_b = sum(1 for a in I for b in I if b % ring.f)
        both = sum(1 for a in I for b in I
                   if not a % ring.f and not b % ring.f)
        assert total == unit_b + ring.size * both
        return total

    total_a = lambda_sum(A)
    assert reads == [A]
    lambda_sum(B)
    assert reads == [A, B]
    assert lambda_sum(again) == total_a
    assert reads == [A, B, A]


# -- pigeonhole --

def test_pigeonhole_spec_instance(F2):
    f = Poly(F2, [1, 1, 1])
    t_poly = T_of(F2)
    inst = PigeonInstance(f=f, x_list=(t_poly, t_poly), tau_list=(2, 1))
    t = pigeonhole_multiplier(inst)
    assert inst.verify(t)
    assert t == t_poly + one(F2)
    assert frac_dist(t_poly * t, f) == 1


def test_pigeonhole_trivial_cases(F2):
    f = Poly(F2, [1, 1, 0, 1])
    zero_inputs = PigeonInstance(f=f, x_list=(f, f + f), tau_list=(0, 0))
    with pytest.raises(PolyboxError):
        pigeonhole_multiplier(zero_inputs)  # slack = -3: not guaranteed
    multiples = PigeonInstance(f=f, x_list=(f, f * f), tau_list=(2, 2))
    t = pigeonhole_multiplier(multiples)
    assert inst_all_zero_distances(multiples, t)
    single = PigeonInstance(f=f, x_list=(T_of(F2),), tau_list=(3,))
    t2 = pigeonhole_multiplier(single)
    assert single.verify(t2)


def inst_all_zero_distances(inst, t):
    return all(frac_dist(x * t, inst.f) == 0 for x in inst.x_list)


def test_pigeonhole_matches_oracle_small(F2, F3):
    rng = random.Random(42)
    for F in (F2, F3):
        for _ in range(25):
            m = rng.randrange(2, 6)
            f = random_irreducible(F, m, rng.randrange(10))
            s = rng.randrange(1, 4)
            taus = [rng.randrange(0, m + 1) for _ in range(s)]
            xs = tuple(random_poly(F, m + 1, rng) for _ in range(s))
            inst = PigeonInstance(f=f, x_list=xs, tau_list=tuple(taus))
            if inst.slack > 0:
                t = pigeonhole_multiplier(inst)
                assert inst.verify(t)
                assert pigeonhole_oracle(inst) is not None
            else:
                with pytest.raises(PolyboxError):
                    pigeonhole_multiplier(inst)


def test_pigeonhole_rejects_bad_tau(F2):
    f = Poly(F2, [1, 1, 1])
    with pytest.raises(ValueError):
        PigeonInstance(f=f, x_list=(one(F2),), tau_list=(3,))


# -- small-coefficient model --

def test_small_model_zero_base_collapses(F2):
    f = Poly(F2, [1, 0, 1, 0, 0, 1])  # T^5 + T^2 + 1
    taus = (5, 5, 5, 5, 5)
    model = small_coeff_model(one(F2), zero(F2), f, taus)
    assert model.t == one(F2)
    xs = model.x_inputs()
    assert [x.coeffs for x in xs] == [(1,), (), (), (1,), ()]
    assert model.fs[:5] == tuple(x % f for x in xs)
    # reduces to X^3 = Y^2 mod f
    rng = random.Random(5)
    for _ in range(30):
        X = random_poly(F2, 4, rng)
        Y = random_poly(F2, 4, rng)
        assert model.model_holds(X, Y) == (not (X ** 3 - Y ** 2) % f)


def test_small_model_equivalence_random(F2, F3):
    rng = random.Random(23)
    for F in (F2, F3):
        f = random_irreducible(F, 10, 3)
        I = zero_interval(F, 0)
        taus = ninth_window_tau_plan(I, f)
        lam = random_poly(F, 3, rng)
        x0 = random_poly(F, 2, rng)
        model = small_coeff_model(lam, x0, f, taus, box=I)
        assert model.z_bound is not None
        for _ in range(50):
            X = random_poly(F, 5, rng)
            Y = random_poly(F, 5, rng)
            assert model.model_holds(X, Y) == model.original_holds(X, Y)
        # construction invariant: f_i = X_i * t mod f via remainder distance
        for x_in, f_i in zip(model.x_inputs(), model.fs[:5]):
            assert frac_dist(x_in * model.t - f_i, f) == 0


def test_small_model_equivalence_exhaustive_small_box(F2):
    f = random_irreducible(F2, 19, 0)
    I = zero_interval(F2, 1)
    taus = ninth_window_tau_plan(I, f)
    model = small_coeff_model(one(F2), T_of(F2), f, taus, box=I)
    for X in I:
        for Y in I:
            assert model.model_holds(X, Y) == model.original_holds(X, Y)


def test_small_model_tau_bounds_hold(F2):
    f = random_irreducible(F2, 20, 1)
    I = zero_interval(F2, 1)
    taus = ninth_window_tau_plan(I, f)
    assert sum(taus) > 4 * 20
    rng = random.Random(11)
    lam = random_poly(F2, 4, rng)
    x0 = random_poly(F2, 3, rng)
    model = small_coeff_model(lam, x0, f, taus, box=I)
    for f_i, tau in zip(model.fs[:5], taus):
        assert f_i.norm < 2 ** tau
    assert model.fs[5].norm < f.norm


def test_tau_plan_rejects_oversized_box(F2):
    f = random_irreducible(F2, 10, 0)
    with pytest.raises(PolyboxError):
        ninth_window_tau_plan(zero_interval(F2, 3), f)  # 9*(3+1) > 10


# -- ninth-root window scan --

def test_scan_window_guard(F2):
    f = random_irreducible(F2, 5, 0)
    with pytest.raises(PolyboxError):
        ninth_window_scan(zero_interval(F2, 0), f)
    ninth_window_scan(zero_interval(F2, 0), f, force=True)


def test_scan_rows_are_unit_realized(F2, F3, F4, F9):
    # the ninth-root window over GF(2), and forced scans on boxes where
    # b = 0 mod f for nonzero b, on prime and extension fields
    cases = [(zero_interval(F2, 1), random_irreducible(F2, 18, 2), False)]
    cases += [(I, f, True) for I, f in _b_zero_boxes((F3, F4, F9))]
    for I, f, force in cases:
        rep = ninth_window_scan(I, f, force=force)
        ring = ResidueRing(f, check=False)
        realized = set()
        for a in I:
            for b in I:
                if b % f:
                    key = ring.mul(ring.pow(a, 3),
                                   ring.inv(ring.pow(b, 2)))
                    realized.add(key.coeffs)
        assert {lam.coeffs for lam, _ in rep.rows} == realized
        for lam, count in rep.rows:
            assert count == count_nlambda(I, lam, ring)


def test_scan_includes_extremal_class(F2):
    f = random_irreducible(F2, 27, 3)
    I = zero_interval(F2, 2)
    rep = ninth_window_scan(I, f)
    by_lambda = {lam.coeffs: c for lam, c in rep.rows}
    assert by_lambda.get((1,), 0) >= extremal_count(I)


# -- extremal family --

def test_extremal_examples(F2, F3):
    assert extremal_count(zero_interval(F2, 6)) == 8
    assert extremal_count(zero_interval(F2, 0)) == 2
    assert extremal_count(zero_interval(F3, 0)) == 3
    assert extremal_count(zero_interval(F2, 2)) == 2
    assert extremal_count(zero_interval(F3, 2)) == 3


def test_extremal_rejects_nonzero_base(F2):
    with pytest.raises(ValueError):
        extremal_count(Interval(one(F2), 2))


def test_extremal_witnesses_brute_force(F2, F3):
    for F in (F2, F3):
        for n in range(7):
            I = zero_interval(F, n)
            wits = list(extremal_witnesses(I))
            assert len(wits) == extremal_count(I) == len(set(wits))
            for (a, b) in wits:
                assert a ** 3 == b ** 2
                assert I.contains(a) and I.contains(b)
            # brute force: every box pair with a^3 = b^2 and a = x^2, b = x^3
            brute = {(x ** 2, x ** 3) for x in zero_interval(F, n)
                     if I.contains(x ** 2) and I.contains(x ** 3)}
            assert set(wits) == brute


def test_nlambda_one_dominates_extremal(F2, F3):
    for F in (F2, F3):
        for n in (0, 1, 2):
            f = random_irreducible(F, 3 * n + 1, n)
            I = zero_interval(F, n)
            assert count_nlambda(I, one(F), f) >= extremal_count(I)
