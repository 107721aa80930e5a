"""Field, polynomial, interval, and distance arithmetic."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybox import (GF, Interval, NEG_INF, Poly, constant, frac_dist,
                     is_irreducible, monic_irreducibles, one, parse_poly,
                     poly_gcd, poly_text, random_irreducible, zero,
                     zero_interval)
from polybox.ffield import FiniteField, prime_factors
from polybox.poly import horner, powmod, random_poly, T as T_of
from polybox import residues
from polybox.residues import (ResidueRing, box_digit_rows, coeff_rows,
                              convolve, digit_rows)


def _schoolbook(a, b):
    """Independent convolution oracle for polynomial products."""
    field = a.field
    if not a.coeffs or not b.coeffs:
        return zero(field)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return Poly(field, out)


# -- fields --

def test_field_construction_rejects_bad_params():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # (u+1)^2 is reducible


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27])
def test_field_axioms_spotcheck(q):
    F = GF(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (F.random_element(rng) for _ in range(3))
        assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_extension_modulus_recorded():
    F = GF(9)
    assert F.describe()["modulus"] == [2, 2, 1]
    assert GF(9) == GF(9)


# -- extension-field tables against schoolbook F_p[u]/(m) --

def _school_mul(a, b, p, m):
    """a*b in F_p[u]/(m) on base-p digit lists; no polybox arithmetic."""
    k = len(m) - 1
    da = [a // p ** i % p for i in range(k)]
    db = [b // p ** i % p for i in range(k)]
    out = [0] * (2 * k - 1)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            out[i + j] += ai * bj
    for top in range(2 * k - 2, k - 1, -1):  # m is monic: clear out[top]
        c = out[top]
        for j, mj in enumerate(m):
            out[top - k + j] -= c * mj
    return sum(c % p * p ** i for i, c in enumerate(out[:k]))


def _school_pow(a, e, p, m):
    result = 1
    while e:
        if e & 1:
            result = _school_mul(result, a, p, m)
        a = _school_mul(a, a, p, m)
        e >>= 1
    return result


def _school_add(a, b, p, sign=1):
    out, shift = 0, 1
    while a or b:
        out += (a % p + sign * (b % p)) % p * shift
        a, b, shift = a // p, b // p, shift * p
    return out


def _check_against_schoolbook(F, pairs, exponents):
    p, m = F.p, F.modulus
    for a, b in pairs:
        assert F.add(a, b) == _school_add(a, b, p)
        assert F.sub(a, b) == _school_add(a, b, p, -1)
        assert F.neg(b) == _school_add(0, b, p, -1)
        assert F.mul(a, b) == _school_mul(a, b, p, m)
        if a:
            assert _school_mul(a, F.inv(a), p, m) == 1
    for a in {a for a, _ in pairs}:
        for e in exponents:
            want = _school_pow(a, abs(e), p, m)
            if e >= 0:
                assert F.pow(a, e) == want
            elif a:
                assert _school_mul(F.pow(a, e), want, p, m) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_extension_tables_all_pairs(q):
    F = GF(q)
    pairs = list(product(range(q), repeat=2))
    _check_against_schoolbook(F, pairs, (0, 1, 2, 3, q - 2, q - 1, q + 5, -1,
                                         -2))
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q", [256, 1024, 4096])
def test_extension_tables_seeded_pairs(q):
    F = GF(q)
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    _check_against_schoolbook(F, pairs, ())
    _check_against_schoolbook(F, pairs[:100] + [(0, 1)],
                              (0, 1, q - 1, rng.randrange(2 * q), -3))


@pytest.mark.parametrize("p,k,seed,modulus", [
    (2, 5, 0, (1, 1, 0, 1, 1, 1)),
    (2, 8, 0, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
    (2, 12, 7, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1)),
    (3, 5, 0, (2, 2, 0, 2, 1, 1)),
    (5, 5, 1, (3, 0, 4, 1, 3, 1)),
    (13, 2, 9, (5, 8, 1)),
])
def test_seeded_moduli_pinned(p, k, seed, modulus):
    assert FiniteField._pick_modulus(p, k, seed) == modulus
    assert FiniteField(p, k, seed=seed).modulus == modulus


def test_extension_field_size_guard(monkeypatch):
    def no_search(*args):
        raise AssertionError("modulus search ran before the size guard")
    monkeypatch.setattr(FiniteField, "_pick_modulus", staticmethod(no_search))
    with pytest.raises(ValueError, match="too large"):
        FiniteField(2, 17)
    with pytest.raises(ValueError, match="too large"):
        GF(3 ** 11)


# -- ring ops --

def test_divrem_example_q2(F2):
    t = T_of(F2)
    q, r = divmod(t * t + t, t + one(F2))
    assert (q * (t + one(F2)) + r) == t * t + t  # multiply-back oracle
    assert q == t and not r


def test_mul_identity_random(F2, F3, F9):
    for F in (F2, F3, F9):
        rng = random.Random(17)
        for _ in range(20):
            a = random_poly(F, 6, rng)
            assert a * one(F) == a


def test_mul_example_q3(F3):
    a = Poly(F3, [1, 1])
    b = Poly(F3, [2, 1])
    assert a * b == Poly(F3, [2, 0, 1])        # (T+1)(T+2) = T^2 + 2
    assert a * b == _schoolbook(a, b)


def test_divrem_errors(F2, F3):
    with pytest.raises(ZeroDivisionError):
        divmod(one(F2), zero(F2))
    with pytest.raises(ValueError):
        Poly(F2, [1]) + Poly(F3, [1])


def test_divrem_roundtrip_exhaustive_q2(F2):
    polys = [Poly(F2, c) for c in product(range(2), repeat=5)]
    for a in polys:
        for b in polys:
            if not b:
                continue
            s, r = divmod(a, b)
            assert s * b + r == a
            assert r.degree < b.degree


# -- norm --

def test_norm_examples(F2):
    assert Poly(F2, [1, 0, 0, 1]).norm == 8
    assert zero(F2).norm == 0
    assert zero(F2).degree == NEG_INF
    F7 = GF(7)
    assert constant(F7, 5).norm == 1


@given(st.sampled_from([2, 3, 5, 4, 9]), st.data())
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative_and_ultrametric(q, data):
    F = GF(q)
    coeffs = st.lists(st.integers(0, q - 1), max_size=7)
    a = Poly(F, data.draw(coeffs))
    b = Poly(F, data.draw(coeffs))
    if a and b:
        assert (a * b).norm == a.norm * b.norm
    assert (a + b).norm <= max(a.norm, b.norm)
    if a.norm != b.norm:
        assert (a + b).norm == max(a.norm, b.norm)


def _assert_normalised(r, F):
    assert type(r) is Poly and r.field is F and type(r.coeffs) is tuple
    assert not r.coeffs or r.coeffs[-1] != 0
    assert r == Poly(F, list(r.coeffs))


@given(st.sampled_from([2, 3, 4, 5, 9]), st.data())
@settings(max_examples=200, deadline=None)
def test_results_are_normalised(q, data):
    # the ring operations wrap their results without trimming again, so
    # each must come out with no trailing zero; zero and constants included
    F = GF(q)
    coeffs = st.lists(st.integers(0, q - 1), max_size=7)
    a = Poly(F, data.draw(coeffs))
    c = data.draw(st.integers(0, q - 1))
    for b in (Poly(F, data.draw(coeffs)), zero(F), Poly(F, [c]), a):
        results = [a + b, b + a, a - b, a * b, -a, -b, a.scaled(c),
                   b.scaled(c), b.shifted(2)]
        if b:
            s, r = divmod(a, b)
            assert s * b + r == a and r.degree < b.degree
            results += [s, r]
        if b.degree >= 1:
            results.append(powmod(a, data.draw(st.integers(0, 9)), b))
        if a or b:
            results.append(poly_gcd(a, b))
        for r in results:
            _assert_normalised(r, F)


# -- gcd --

def test_gcd_examples(F2):
    t = T_of(F2)
    assert poly_gcd(t * t + t, t + one(F2)) == t + one(F2)
    a = Poly(F2, [1, 1, 0, 1])
    assert poly_gcd(a, zero(F2)) == a.monic()
    assert poly_gcd(Poly(F2, [1, 1, 1]), t) == one(F2)
    with pytest.raises(ValueError):
        poly_gcd(zero(F2), zero(F2))


def test_gcd_divides_both(F3):
    rng = random.Random(5)
    for _ in range(50):
        a, b = random_poly(F3, 5, rng), random_poly(F3, 5, rng)
        if not a and not b:
            continue
        g = poly_gcd(a, b)
        if a:
            assert not a % g
        if b:
            assert not b % g


# -- irreducibility --

def test_irreducible_examples(F2, F5):
    assert is_irreducible(Poly(F2, [1, 1, 1]))
    assert not is_irreducible(Poly(F2, [1, 0, 1]))  # (T+1)^2
    assert is_irreducible(T_of(F2))
    assert is_irreducible(T_of(F5))
    with pytest.raises(ValueError):
        is_irreducible(one(F2))


def test_irreducible_matches_trial_division(F2, F3):
    # oracle: no factorization g*h with positive degrees
    for F in (F2, F3):
        polys_by_deg = {
            d: [Poly(F, c + (1,)) for c in product(range(F.q), repeat=d)]
            for d in range(1, 5)
        }
        for d in range(2, 5):
            for f in polys_by_deg[d]:
                has_factor = any(
                    not f % g
                    for dg in range(1, d // 2 + 1)
                    for g in polys_by_deg[dg]
                )
                assert is_irreducible(f) == (not has_factor)


def test_random_irreducible(F2):
    g = random_irreducible(F2, 1, 3)
    assert g.degree == 1 and g.lead == 1 and is_irreducible(g)
    assert random_irreducible(F2, 5, 0) == random_irreducible(F2, 5, 0)
    # finite-field membership oracle: deg-4 irreducible divides T^16 - T
    # and no T^(2^j) - T for j < 4
    f = random_irreducible(F2, 4, 7)
    t = T_of(F2)
    for j in range(1, 5):
        divides = not (powmod(t, 2 ** j, f) - t % f)
        assert divides == (j == 4)


def _mobius(n):
    out, m = 1, n
    for r in prime_factors(n):
        m //= r
        if m % r == 0:
            return 0
        out = -out
    return out


def test_monic_irreducible_counts(F2, F3, F4, F5, F9):
    # Gauss counts: number of monic irreducibles of degree d over F_q
    expected = {(2, 1): 2, (2, 2): 1, (2, 3): 2, (2, 4): 3,
                (3, 1): 3, (3, 2): 3, (3, 3): 8}
    # and Gauss's formula (1/d) sum_{e | d} mu(e) q^(d/e) for q = 4, 5, 9
    for q, top in ((4, 3), (5, 3), (9, 2)):
        for d in range(1, top + 1):
            total = sum(_mobius(e) * q ** (d // e)
                        for e in range(1, d + 1) if d % e == 0)
            expected[q, d] = total // d
    fields = {2: F2, 3: F3, 4: F4, 5: F5, 9: F9}
    for (q, d), count in expected.items():
        got = sum(1 for f in monic_irreducibles(fields[q], d)
                  if f.degree == d)
        assert got == count


def _is_irreducible_reference(f: Poly) -> bool:
    """Deterministic irreducibility test over F_q.

    f of degree n is irreducible iff T**(q**n) == T mod f and, for every
    prime r dividing n, gcd(f, T**(q**(n/r)) - T) = 1.
    """
    if f.is_constant():
        raise ValueError("irreducibility is undefined for constants")
    n = len(f.coeffs) - 1
    if n == 1:
        return True
    F = f.field
    t = T_of(F)
    # iterate the q-power Frobenius on T rather than exponentiating to q**n
    frob = [t % f]
    for _ in range(n):
        frob.append(powmod(frob[-1], F.q, f))
    if frob[n] != t % f:
        return False
    for r in prime_factors(n):
        g = poly_gcd(f, frob[n // r] - t)
        if g.degree != 0:
            return False
    return True


def test_irreducible_matches_reference_exhaustive(F2, F3, F4, F5, F9):
    # every polynomial, monic or not, of each listed degree
    for F, top in ((F2, 6), (F3, 5), (F4, 4), (F5, 4), (F9, 3)):
        for d in range(1, top + 1):
            for lead in range(1, F.q):
                for tail in product(range(F.q), repeat=d):
                    f = Poly(F, tail + (lead,))
                    assert is_irreducible(f) == _is_irreducible_reference(f)


def test_irreducible_matches_reference_on_products(F2, F3, F4):
    # g*h of distinct irreducibles of equal degree: the only factors have
    # degree exactly n/2, the last step of the test; and squares g^2
    for F, top in ((F2, 5), (F3, 3), (F4, 2)):
        for d in range(1, top + 1):
            irr = [g for g in monic_irreducibles(F, d) if g.degree == d]
            for i, g in enumerate(irr[:6]):
                for h in irr[i + 1:i + 4]:
                    assert not is_irreducible(g * h)
                    assert not _is_irreducible_reference(g * h)
                assert not is_irreducible(g * g)
                assert not _is_irreducible_reference(g * g)


def test_irreducible_matches_reference_planted(F2, F3):
    # random degree 18..40 with a planted small irreducible factor, the
    # unplanted polynomial, and a seeded irreducible of the same degree
    rng = random.Random(20)
    for F in (F2, F3):
        small = list(monic_irreducibles(F, 3))
        for _ in range(3):
            n = rng.randrange(18, 41)
            g = rng.choice(small)
            h = Poly(F, [rng.randrange(F.q) for _ in range(n - g.degree)]
                     + [rng.randrange(1, F.q)])
            irr = random_irreducible(F, n, rng.randrange(100))
            for f in (g * h, h, irr, g * irr):
                assert is_irreducible(f) == _is_irreducible_reference(f)
            assert not is_irreducible(g * h)
            assert is_irreducible(irr)


# -- frac_dist --

def test_frac_dist_examples(F2):
    t = T_of(F2)
    f = Poly(F2, [1, 1, 1])
    assert frac_dist(t ** 3, f) == 1          # T^3 = 1 mod T^2+T+1
    assert frac_dist(f, f) == 0
    assert frac_dist(t, f) == 2


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_frac_dist_invariance(data):
    F = GF(data.draw(st.sampled_from([2, 3, 5])))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    f = random_irreducible(F, rng.randrange(1, 5), rng.randrange(100))
    X = random_poly(F, 8, rng)
    Y = random_poly(F, 4, rng)
    assert frac_dist(X + f * Y, f) == frac_dist(X, f)
    assert (frac_dist(X, f) == 0) == (not X % f)
    assert frac_dist(X, f) < f.norm


# -- intervals --

def test_interval_enumeration_q2(F2):
    I = zero_interval(F2, 1)
    members = list(I)
    assert len(members) == 4 == I.size
    assert set(members) == {zero(F2), one(F2), T_of(F2),
                            T_of(F2) + one(F2)}
    assert not I.contains(Poly(F2, [0, 0, 1]))


def test_interval_base_shift(F2):
    base = Poly(F2, [0, 0, 0, 1])
    I = Interval(base, 1)
    assert all(I.contains(x) for x in I)
    assert not I.contains(base + Poly(F2, [0, 0, 1]))
    assert len(set(I)) == I.size


def test_interval_cardinality_cross_check():
    for q in (2, 3):
        F = GF(q)
        for n in range(4):
            I = zero_interval(F, n)
            members = list(I)
            assert len(members) == len(set(members)) == q ** (n + 1)
            universe = [Poly(F, c) for c in product(range(q), repeat=n + 2)]
            inside = [x for x in universe if I.contains(x)]
            assert set(inside) == set(members)


def test_interval_rejects_negative_bound(F2):
    with pytest.raises(ValueError):
        zero_interval(F2, -1)


# -- grammar round-trips --

def test_poly_grammar_examples(F5, F2):
    assert poly_text(parse_poly(F5, "T^3+2*T+1")) == "T^3+2*T+1"
    assert parse_poly(F5, "7*T") == Poly(F5, [0, 2])
    assert parse_poly(F2, "0") == zero(F2)
    assert poly_text(zero(F2)) == "0"


def test_poly_grammar_roundtrip_corpus():
    rng = random.Random(11)
    for q in (2, 3, 5):
        F = GF(q)
        for _ in range(60):
            a = random_poly(F, rng.randrange(0, 7), rng)
            assert parse_poly(F, poly_text(a)) == a


def test_poly_grammar_extension_json(F4):
    a = Poly(F4, (1, 2))
    text = poly_text(a)
    assert parse_poly(F4, text) == a


def test_poly_grammar_errors(F2):
    from polybox import ParseError
    with pytest.raises(ParseError):
        parse_poly(F2, "T^")
    with pytest.raises(ParseError):
        parse_poly(F2, "1++T")


# -- residue fields --

def test_residue_sqrt_all_cases(F2, F3, F5):
    from polybox import ResidueRing
    rings = [
        ResidueRing(Poly(F2, [1, 1, 0, 1])),   # char 2, size 8
        ResidueRing(Poly(F3, [1, 1])),         # size 3 = 3 mod 4
        ResidueRing(Poly(F3, [1, 0, 1])),      # size 9 = 1 mod 4 (Tonelli)
        ResidueRing(T_of(F5)),                 # size 5 = 1 mod 4 (Tonelli)
    ]
    for ring in rings:
        squares = {ring.mul(x, x) for x in ring.elements()}
        rooted = 0
        for x in ring.elements():
            r = ring.sqrt(x)
            if r is not None:
                assert ring.mul(r, r) == ring.reduce(x)
                rooted += 1
            else:
                assert x not in squares
        assert rooted == len(squares)


def test_residue_ring_of(F2):
    from polybox import ResidueRing
    ring = ResidueRing(Poly(F2, [1, 1, 1]))
    assert ResidueRing.of(ring) is ring
    assert ResidueRing.of(Poly(F2, [1, 1, 1])).size == 4
    with pytest.raises(ValueError):
        ResidueRing.of(Poly(F2, [1, 0, 1]))   # (T+1)^2


def test_int64_dot_bound():
    # the stated bound terms*(p-1)**2, checked against 2**63 without
    # building any field
    from polybox.residues import int64_dot_bound
    assert int64_dot_bound(7, 2) == 7
    assert int64_dot_bound(25, 5) == 25 * 16
    p = 3037000499              # (p-1)**2 < 2**63 <= 2*(p-1)**2
    assert int64_dot_bound(1, p) == (p - 1) ** 2
    with pytest.raises(OverflowError):
        int64_dot_bound(2, p)
    with pytest.raises(OverflowError):
        int64_dot_bound(1 << 63, 2)


def test_residue_batch_overflow_refused():
    # m*k = 2 digit products of size (p-1)**2 reach 2**63 for this prime,
    # so the batch is refused before its p**2 digit rows are allocated
    F = GF(3037000493)
    ring = ResidueRing(Poly(F, [1, 0, 1]), check=False)
    with pytest.raises(OverflowError):
        ring.batch()


def test_residue_batch_matches_ring():
    # the digit engine on prime and extension fields against ResidueRing,
    # horner and the codec: all pairs up to 81 residues, a sample above
    rng = random.Random(72)
    for q, deg in ((2, 3), (2, 7), (3, 2), (3, 5), (4, 2), (4, 4), (8, 1),
                   (8, 2), (9, 2), (9, 3)):
        F = GF(q)
        ring = ResidueRing(random_irreducible(F, deg, 1), check=False)
        batch = ring.batch()
        elems = list(ring.elements())
        assert (batch.digits == digit_rows(F, elems, deg)).all()
        assert (batch.encode(batch.digits) == np.arange(ring.size)).all()
        for _ in range(10):
            g = random_poly(F, 2 * deg, rng)
            assert (batch.poly_rows(g)
                    == batch.digits[ring.index(g % ring.f)]).all()
        if ring.size <= 81:
            pairs = list(product(range(ring.size), repeat=2))
        else:
            pairs = [(rng.randrange(ring.size), rng.randrange(ring.size))
                     for _ in range(400)]
        ia, ib = map(list, zip(*pairs))
        want = [ring.mul(elems[i], elems[j]) for i, j in pairs]
        got = batch.mul(batch.digits[ia], batch.digits[ib])
        assert (got == digit_rows(F, want, deg)).all()
        coeffs = [random_poly(F, deg + 1, rng) for _ in range(4)]
        xs = sorted(set(ia))
        want = [horner(coeffs, elems[i], ring.f) for i in xs]
        got = batch.eval_univariate(coeffs, batch.digits[xs])
        assert (got == digit_rows(F, want, deg)).all()


def test_pair_products_match_mul(F2, F3, F4, F9):
    # every block of x * y against mul on the repeated and tiled rows, and
    # the side-by-side form (J residues a row) against the sum of J muls;
    # 128 residues of GF(2)^7 take several blocks, and empty xs or ys
    # yield no block or empty ones
    rng = np.random.default_rng(31)
    split = False
    for F, deg in ((F2, 3), (F2, 7), (F3, 2), (F3, 4), (F4, 2), (F9, 2)):
        batch = ResidueRing(random_irreducible(F, deg, 4), check=False).batch()
        mk = batch.m * batch.k
        for J, nx, ny in ((1, batch.n, batch.n), (1, 5, 3), (3, 40, 17),
                          (1, 0, 4), (2, 6, 0)):
            xs = rng.integers(0, F.p, (nx, J * mk))
            ys = rng.integers(0, F.p, (ny, J * mk))
            blocks = list(batch.pair_products(xs, ys))
            starts = [start for start, _ in blocks]
            assert starts == sorted(starts) and (not nx or starts[0] == 0)
            split |= len(blocks) > 1
            got = np.concatenate([P for _, P in blocks]) if blocks else \
                np.zeros((0, ny, mk), dtype=np.int64)
            assert got.shape == (nx, ny, mk)
            want = np.zeros((nx * ny, mk), dtype=np.int64)
            for j in range(J):
                part = slice(j * mk, (j + 1) * mk)
                want += batch.mul(np.repeat(xs[:, part], ny, axis=0),
                                  np.tile(ys[:, part], (nx, 1)))
            assert (got.reshape(-1, mk) == want % F.p).all()
    assert split


def test_pair_products_overflow_refused():
    # one digit product of size (p-1)**2 fits int64 for this prime, two do
    # not: a degree-1 ring gets a batch, but two residues side by side are
    # refused before the structure constants or any block is built
    F = GF(3037000493)
    batch = ResidueRing(Poly(F, [1, 1]), check=False).batch()
    rows = np.ones((3, 2), dtype=np.int64)
    with pytest.raises(OverflowError):
        next(batch.pair_products(rows, rows))
    assert "_structure" not in batch.__dict__


def test_convolve_matches_poly_mul(F2, F3, F4, F9):
    # row by row against Poly.__mul__: equal and unequal lengths, length 1,
    # one row of b against N rows of a (and of a against b), zero
    # polynomials among the rows, and no rows at all
    rng = random.Random(17)
    for F in (F2, F3, F4, F9):
        for na, nb, N, Nb in ((1, 1, 6, 6), (1, 5, 6, 6), (5, 1, 6, 6),
                              (3, 7, 9, 9), (7, 3, 9, 1), (4, 4, 9, 1),
                              (2, 6, 1, 9), (3, 2, 0, 1), (3, 2, 0, 0)):
            a = [random_poly(F, na - 1, rng) for _ in range(N)]
            b = [random_poly(F, nb - 1, rng) for _ in range(Nb)]
            if N > 1:
                a[0] = zero(F)
            got = convolve(F, digit_rows(F, a, na), digit_rows(F, b, nb))
            rows = max(N, Nb) if min(N, Nb) == 1 else N
            assert got.shape == (rows, (na + nb - 1) * F.k)
            want = [x * y for x, y in zip(a * (rows if N == 1 else 1),
                                          b * (rows if Nb == 1 else 1))]
            assert [Poly(F, c) for c in coeff_rows(F, got).tolist()] == want


def test_convolve_overflow_refused(monkeypatch):
    # one digit product of size (p-1)**2 fits int64 for this prime, two do
    # not: the bound is min(na, nb)*k, checked before the product array
    F = GF(3037000493)
    long = digit_rows(F, [Poly(F, [F.p - 1] * 3)], 3)
    short = digit_rows(F, [Poly(F, [F.p - 1])], 1)
    assert (convolve(F, long, short) == 1).all()   # (-1)*(-1) = 1
    monkeypatch.setattr(residues.np, "zeros", None)
    with pytest.raises(OverflowError):
        convolve(F, long, long[:, :2])


def test_box_digit_rows_match_members(F2, F3, F4, F9):
    # shifted boxes, whole and partial ranges, widths below, at and above
    # the members' width
    rng = random.Random(12)
    for F in (F2, F3, F4, F9):
        for bound, base_deg in ((0, 3), (1, 0), (2, 4), (3, 1)):
            I = Interval(random_poly(F, base_deg, rng), bound)
            members = list(I)
            width = I.max_degree() + 1
            for n in (1, width, width + 2):
                for start, stop in ((0, I.size), (1, I.size - 1),
                                    (I.size // 3, I.size // 2 + 1),
                                    (2, I.size + 5), (I.size, I.size)):
                    got = box_digit_rows(I, start, stop, n)
                    assert got.shape == (len(members[start:stop]), n * F.k)
                    assert (got == digit_rows(F, members[start:stop], n)).all()


def test_reduce_matches_poly_remainder(F2, F3, F4, F9):
    # ResidueBatch.reduce, the one map from digit rows to residues mod f,
    # against Poly % f: random rows narrower than, as wide as and wider
    # than deg f, zero rows among them; the members of shifted boxes,
    # including bases of degree above the box bound; and poly_rows(g) for
    # deg g >= deg f against the whole-field table
    rng = random.Random(46)
    for F, deg in ((F2, 5), (F3, 3), (F4, 2), (F9, 2)):
        ring = ResidueRing(random_irreducible(F, deg, 3), check=False)
        batch = ring.batch()
        mk = deg * F.k
        for n in (1, deg - 1, deg, deg + 1, 2 * deg - 1, 3 * deg + 2):
            polys = [zero(F)] + [random_poly(F, n - 1, rng) for _ in range(15)]
            got = batch.reduce(digit_rows(F, polys, n))
            assert got.shape == (16, mk)
            assert (got == digit_rows(F, [g % ring.f for g in polys],
                                      deg)).all()
        t = T_of(F)
        for base, bound in ((random_poly(F, 1, rng), 1),
                            (random_poly(F, deg - 1, rng), deg),
                            (t ** (deg + 2) + random_poly(F, 2, rng), 1),
                            (t ** (2 * deg) + random_poly(F, deg, rng), 0)):
            I = Interval(base, bound)
            got = batch.reduce(box_digit_rows(I, 0, I.size,
                                              I.max_degree() + 1))
            assert (got == digit_rows(F, [x % ring.f for x in I],
                                      deg)).all()
        for e in range(4):
            g = t ** (deg + e) + random_poly(F, deg + e - 1, rng)
            want = batch.digits[ring.index(g % ring.f), None]
            assert (batch.poly_rows(g) == want).all()
            assert (batch.reduce(digit_rows(F, [g], deg + e + 1))
                    == want).all()


def test_reduce_overflow_refused():
    # one digit product of size (p-1)**2 fits int64 for this prime, one
    # more digit does not: rows as wide as deg f = 1 are copied, a wider
    # row is refused before its reduction matrix is built
    F = GF(3037000493)
    batch = ResidueRing(Poly(F, [1, 1]), check=False).batch()
    rows = np.full((3, 2), F.p - 1, dtype=np.int64)
    assert (batch.reduce(rows[:, :1]) == F.p - 1).all()
    with pytest.raises(OverflowError):
        batch.reduce(rows)


def test_residue_inverse_roundtrip(F3):
    from polybox import ResidueRing
    ring = ResidueRing(Poly(F3, [1, 0, 1]))
    for x in ring.elements():
        if x:
            assert ring.mul(x, ring.inv(x)) == one(F3)
