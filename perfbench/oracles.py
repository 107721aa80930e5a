"""Reference arithmetic for checking polybox results, written from scratch.

Nothing here imports polybox.  The only things shared with the program are
its documented encodings: an element of F_q, q = p^k, is the integer
sum c_i * p^i of its u-coefficients (c_0 lowest), and a polynomial of
F_q[T] is the list of its coefficients, lowest power first, with no
trailing zeros.  Every check the benchmark makes on a program result goes
through the functions below or through an exact property of the method
(an identity, a bound, a replay), never through a stored copy of an
earlier output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


# -- the coefficient field --

class Field:
    """F_p, or F_p[u]/(m(u)) for a monic irreducible m given lowest first.

    For an extension the first product checks that every nonzero element
    has a^(q-1) = 1, i.e. that m is irreducible; the check is deferred so
    that building inputs costs no field arithmetic.
    """

    def __init__(self, p: int, modulus=None):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.m = None if modulus is None else [c % p for c in modulus]
        self.k = 1 if self.m is None else len(self.m) - 1
        if self.m is not None and (self.k < 2 or self.m[-1] != 1):
            raise ValueError("extension modulus must be monic of degree >= 2")
        self.q = p ** self.k
        self._products: dict = {}
        self._roots = None
        self._checked = self.k == 1

    def digits(self, e: int) -> list:
        out = []
        for _ in range(self.k):
            out.append(e % self.p)
            e //= self.p
        return out

    def undigits(self, ds) -> int:
        e = 0
        for c in reversed(ds):
            e = e * self.p + c % self.p
        return e

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self.undigits([x + y for x, y in zip(self.digits(a),
                                                    self.digits(b))])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        return self.undigits([-x for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        if not self._checked:
            self._checked = True
            if any(self.pow(x, self.q - 1) != 1 for x in range(1, self.q)):
                raise ValueError("modulus is reducible: zero divisors")
        key = (a, b) if a <= b else (b, a)
        got = self._products.get(key)
        if got is None:
            k, p, m = self.k, self.p, self.m
            da, db = self.digits(a), self.digits(b)
            conv = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    conv[i + j] += x * y
            for d in range(2 * k - 2, k - 1, -1):   # u^d = u^(d-k) * (u^k)
                c = conv[d] % p
                conv[d] = 0
                for j in range(k):
                    conv[d - k + j] -= c * m[j]
            got = self.undigits(conv[:k])
            self._products[key] = got
        return got

    def pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def sqrt(self, a: int):
        """Some square root of a, or None (by a table of all squares)."""
        if self._roots is None:
            self._roots = {}
            for r in range(self.q):
                self._roots.setdefault(self.mul(r, r), r)
        return self._roots.get(a)


# -- polynomials over a Field (lists, lowest power first) --

def trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def deg(a: list) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(a) - 1


def padd(F: Field, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return trim(out)


def pneg(F: Field, a: list) -> list:
    return [F.neg(c) for c in a]


def psub(F: Field, a: list, b: list) -> list:
    return padd(F, a, pneg(F, b))


def pscale(F: Field, a: list, c: int) -> list:
    return trim([F.mul(x, c) for x in a])


def pmul(F: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(out)


def pdivmod(F: Field, a: list, b: list):
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(a)
    inv_lead = F.inv(b[-1])
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        c = F.mul(r[-1], inv_lead)
        off = len(r) - len(b)
        quot[off] = c
        for j, y in enumerate(b):
            r[off + j] = F.sub(r[off + j], F.mul(c, y))
        r.pop()
        trim(r)
    return trim(quot), r


def pmod(F: Field, a: list, b: list) -> list:
    return pdivmod(F, a, b)[1]


def ppowmod(F: Field, a: list, e: int, f: list) -> list:
    out = [1]
    a = pmod(F, a, f)
    while e:
        if e & 1:
            out = pmod(F, pmul(F, out, a), f)
        a = pmod(F, pmul(F, a, a), f)
        e >>= 1
    return pmod(F, out, f)


def pgcd(F: Field, a: list, b: list) -> list:
    while b:
        a, b = b, pmod(F, a, b)
    return pscale(F, a, F.inv(a[-1])) if a else a


def pinvmod(F: Field, a: list, f: list) -> list:
    """Inverse of a modulo f by the extended Euclidean algorithm."""
    r0, r1 = list(f), pmod(F, a, f)
    s0, s1 = [], [1]
    while r1:
        quo, rem = pdivmod(F, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, psub(F, s0, pmul(F, quo, s1))
    if deg(r0) != 0:
        raise ZeroDivisionError("residue is not a unit")
    return pmod(F, pscale(F, s0, F.inv(r0[0])), f)


def valuation(F: Field, g: list, f: list) -> int:
    e = 0
    while True:
        quo, rem = pdivmod(F, g, f)
        if rem:
            return e
        g, e = quo, e + 1


def is_irreducible(F: Field, f: list) -> bool:
    """f irreducible of degree n iff T^(q^n) = T mod f and, for every prime
    r dividing n, gcd(T^(q^(n/r)) - T, f) = 1."""
    n = deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    # most candidates have a small factor: trial division rejects them fast
    for d in range(1, min(3, n // 2) + 1):
        for tail in product(range(F.q), repeat=d):
            if not pmod(F, f, list(tail) + [1]):
                return False
    t = [0, 1]
    frob = [t]
    for _ in range(n):
        frob.append(ppowmod(F, frob[-1], F.q, f))
    if frob[n] != pmod(F, t, f):
        return False
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and all(r % s for s in range(2, r))]
    return all(deg(pgcd(F, f, psub(F, frob[n // r], t))) == 0
               for r in primes)


def random_irreducible(F: Field, n: int, rng) -> list:
    """A monic irreducible of degree n drawn with the caller's rng."""
    while True:
        cand = [rng.randrange(F.q) for _ in range(n)] + [1]
        if is_irreducible(F, cand):
            return cand


def box(F: Field, base: list, n: int):
    """All members of base + {deg <= n}."""
    for tail in product(range(F.q), repeat=n + 1):
        yield padd(F, base, trim(list(tail)))


def in_box(F: Field, y: list, base: list, n: int) -> bool:
    return deg(psub(F, y, base)) <= n


def residues(F: Field, f: list):
    """All canonical remainders modulo f."""
    for tail in product(range(F.q), repeat=deg(f)):
        yield trim(list(tail))


# -- bivariate curves: {(i, j): coefficient list} --

def curve_eval(F: Field, curve: dict, x: list, y: list, f=None) -> list:
    """Value of the curve at (x, y), reduced mod f when f is given."""
    red = (lambda v: pmod(F, v, f)) if f is not None else (lambda v: v)
    total = []
    for (i, j), c in curve.items():
        term = c
        for _ in range(i):
            term = red(pmul(F, term, x))
        for _ in range(j):
            term = red(pmul(F, term, y))
        total = padd(F, total, term)
    return red(total)


def count_mod_bruteforce(F: Field, curve: dict, f: list) -> int:
    """Zeros of the curve in (F_q[T]/f)^2, by trying every pair."""
    res = list(residues(F, f))
    return sum(1 for x in res for y in res
               if not curve_eval(F, curve, x, y, f))


def hasse_weil_ok(count: int, size: int) -> bool:
    """|affine count - Q| <= 2 sqrt(Q), as the integer test (c-Q)^2 <= 4Q."""
    return (count - size) ** 2 <= 4 * size


# -- box point sets --

def poly_sqrt(F: Field, g: list):
    """A y in F_q[T] with y^2 = g, or None.

    Characteristic 2: squaring is additive and bijective on F_q, so g is a
    square iff all its odd coefficients vanish; then y has coefficients
    sqrt(g_{2i}) = g_{2i}^(q/2).  Odd characteristic: fix the top
    coefficient as a square root of the leading one and solve the
    coefficients of y^2 = g downwards, then confirm.
    """
    if not g:
        return []
    if F.p == 2:
        if any(g[i] for i in range(1, len(g), 2)):
            return None
        return trim([F.pow(g[i], F.q // 2) for i in range(0, len(g), 2)])
    if deg(g) % 2:
        return None
    d = deg(g) // 2
    top = F.sqrt(g[-1])
    if top is None:
        return None
    y = [0] * (d + 1)
    y[d] = top
    inv2 = F.inv(F.add(top, top))
    for m in range(d - 1, -1, -1):
        t = d + m
        acc = 0
        for j in range(m + 1, d + 1):
            if m + 1 <= t - j <= d:
                acc = F.add(acc, F.mul(y[j], y[t - j]))
        y[m] = F.mul(F.sub(g[t], acc), inv2)
    return y if pmul(F, y, y) == trim(list(g)) else None


def weierstrass_box_count(F: Field, a: list, b: list, base_x: list,
                          base_y: list, n: int) -> int:
    """|{(x, y) in box^2 : y^2 = x^3 + a x + b}| by solving for y per x."""
    count = 0
    for x in box(F, base_x, n):
        g = padd(F, padd(F, pmul(F, pmul(F, x, x), x), pmul(F, a, x)), b)
        y = poly_sqrt(F, g)
        if y is None:
            continue
        roots = {tuple(y), tuple(pneg(F, y))}
        count += sum(1 for r in roots if in_box(F, list(r), base_y, n))
    return count


def graph_box_count(F: Field, c: list, d: int, h: list, base_x: list,
                    base_y: list, n: int) -> int:
    """|{(x, y) in box^2 : y = c x^d + h}|, evaluating the curve per x."""
    count = 0
    for x in box(F, base_x, n):
        xd = [1]
        for _ in range(d):
            xd = pmul(F, xd, x)
        if in_box(F, padd(F, pmul(F, c, xd), h), base_y, n):
            count += 1
    return count


def monomial_box_count(q: int, d: int, n: int) -> int:
    """Closed form for Y = X^d on a base-0 box: q^(floor(n/d) + 1)."""
    return q ** (n // d + 1)


# -- determinant diagnostics --

def det3_linear(F: Field, p1, p2, p3) -> list:
    """det of the {1, X, Y} matrix of three points:
    (x2 - x1)(y3 - y1) - (x3 - x1)(y2 - y1)."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    return psub(F, pmul(F, psub(F, x2, x1), psub(F, y3, y1)),
                pmul(F, psub(F, x3, x1), psub(F, y2, y1)))


def ord_recount_linear(F: Field, pts: list, f: list) -> dict:
    """Admissible ordered triples of distinct points for W = {1, X, Y},
    with their summed ord_f(det) and summed collision counts kappa."""
    ids = residue_ids(F, pts, f)
    admissible = sum_ord = sum_kappa = 0
    n = len(pts)
    for i, j, k in product(range(n), repeat=3):
        if len({i, j, k}) < 3:
            continue
        det = det3_linear(F, pts[i], pts[j], pts[k])
        if not det:
            continue
        admissible += 1
        sum_ord += valuation(F, det, f)
        sum_kappa += 3 - len({ids[i], ids[j], ids[k]})
    return {"admissible": admissible, "sum_ord": sum_ord,
            "sum_kappa": sum_kappa}


def residue_ids(F: Field, pts: list, f: list) -> list:
    seen: dict = {}
    out = []
    for x, y in pts:
        key = (tuple(pmod(F, x, f)), tuple(pmod(F, y, f)))
        out.append(seen.setdefault(key, len(seen)))
    return out


def mean_distinct(F: Field, pts: list, f: list, omega: int):
    """(mean distinct residues over all omega-tuples,
    sum over residues P of 1 - (1 - rho_P)^omega), both exact."""
    ids = residue_ids(F, pts, f)
    n = len(pts)
    total = sum(len(set(t)) for t in product(ids, repeat=omega))
    counts: dict = {}
    for i in ids:
        counts[i] = counts.get(i, 0) + 1
    rhs = sum((1 - (1 - Fraction(c, n)) ** omega for c in counts.values()),
              Fraction(0))
    return Fraction(total, n ** omega), rhs


def max_collinear(F: Field, pts: list) -> int:
    """Most points of pts on one line through two of them (W = {1, X, Y})."""
    best = min(len(pts), 1)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            on = sum(1 for k in range(len(pts))
                     if not det3_linear(F, pts[i], pts[j], pts[k]))
            best = max(best, on)
    return best


def proportional(F: Field, g: dict, h: dict) -> bool:
    """g = c h for a nonzero c in F_q(T): all 2x2 cross products agree."""
    keys = sorted(set(g) | set(h))
    if not any(g.values()) or not any(h.values()):
        return False
    return all(pmul(F, g.get(a, []), h.get(b, [])) ==
               pmul(F, g.get(b, []), h.get(a, []))
               for a in keys for b in keys)


# -- censuses --

def class_sum(F: Field, box_pts: list, f: list, size: int) -> int:
    """Sum over lambda of N_lambda: each pair with b a unit mod f lies in
    exactly one class, pairs with f | a and f | b lie in all |f| classes,
    and pairs with f | b but not f | a lie in none."""
    unit_b = both = 0
    for a in box_pts:
        a0 = not pmod(F, a, f)
        for b in box_pts:
            if pmod(F, b, f):
                unit_b += 1
            elif a0:
                both += 1
    return unit_b + size * both


def ninth_window_rows(F: Field, box_pts: list, f: list) -> dict:
    """lambda -> N_lambda for every lambda = a^3 / b^2 with b a unit."""
    buckets: dict = {}
    both = 0
    inv_b2 = [pinvmod(F, pmul(F, b, b), f) if pmod(F, b, f) else None
              for b in box_pts]
    for a in box_pts:
        a3 = pmod(F, pmul(F, pmul(F, a, a), a), f)
        for ib in inv_b2:
            if ib is not None:
                lam = tuple(pmod(F, pmul(F, a3, ib), f))
                buckets[lam] = buckets.get(lam, 0) + 1
            elif not a3:
                both += 1
    return {lam: c + both for lam, c in buckets.items()}


def remainder_degrees(F: Field, xs: list, t: list, f: list) -> list:
    """deg((x_i * t) mod f) for each x_i (-1 for a zero remainder)."""
    return [deg(pmod(F, pmul(F, x, t), f)) for x in xs]


def is_witness(F: Field, a, b, c, d, t, f) -> bool:
    """t is a unit mod f with a t^4 = c and b t^6 = d mod f."""
    t = pmod(F, t, f)
    if not t:
        return False
    t2 = pmod(F, pmul(F, t, t), f)
    t4 = pmod(F, pmul(F, t2, t2), f)
    t6 = pmod(F, pmul(F, t4, t2), f)
    return (pmod(F, pmul(F, a, t4), f) == pmod(F, c, f)
            and pmod(F, pmul(F, b, t6), f) == pmod(F, d, f))
