"""Exact arithmetic in F_q[T]: polynomials, norm, gcd, irreducibility.

A polynomial is an immutable coefficient tuple (ascending powers of T,
entries are field-element integers, no trailing zero).  The zero
polynomial has an empty tuple and degree NEG_INF; its norm is 0.  For a
nonzero polynomial the norm is q**degree, which makes the norm
multiplicative and ultrametric: |a*b| = |a|*|b| and |a+b| <= max(|a|,|b|).
"""

from __future__ import annotations

import random
from itertools import chain, product
from typing import Iterable, Sequence

from .ffield import FiniteField

NEG_INF = float("-inf")


class Poly:
    """Element of F_q[T].  Instances are immutable and hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- structure --

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def norm(self) -> int:
        """q**degree, with norm(0) = 0."""
        if not self.coeffs:
            return 0
        return self.field.q ** (len(self.coeffs) - 1)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        from .grammar import poly_text
        return f"Poly({poly_text(self)!r})"

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    # -- ring operations --

    def _check(self, other: "Poly"):
        if type(other) is Poly and other.field is self.field:
            return
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise ValueError("mismatched field parameters")

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if F.k == 1:
            p = F.p
            out = list(a)
            for i, c in enumerate(b):
                out[i] = (out[i] + c) % p
        else:
            out = list(a)
            for i, c in enumerate(b):
                out[i] = F.add(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return _poly(F, tuple(out))

    def __neg__(self):
        F = self.field
        if F.k == 1:
            p = F.p
            return _poly(F, tuple([-c % p for c in self.coeffs]))
        return _poly(F, tuple([F.neg(c) for c in self.coeffs]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly(F, ())
        out = [0] * (len(a) + len(b) - 1)
        if F.k == 1:
            # defer the reduction: convolution sums stay exact integers
            p = F.p
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            out = [v % p for v in out]
        else:
            mul, add = F.mul, F.add
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] = add(out[i + j], mul(ai, bj))
        # the lead is a product of units, so nothing trails
        return _poly(F, tuple(out))

    def scaled(self, c: int) -> "Poly":
        """Multiply by a field element."""
        F = self.field
        if c == 0:
            return _poly(F, ())
        if F.k == 1:
            p = F.p
            return _poly(F, tuple([a * c % p for a in self.coeffs]))
        return _poly(F, tuple([F.mul(a, c) for a in self.coeffs]))

    def shifted(self, k: int) -> "Poly":
        """Multiply by T**k."""
        if not self.coeffs or k == 0:
            return self if k >= 0 else Poly(self.field, ())
        return _poly(self.field, (0,) * k + self.coeffs)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        if result is None:
            return Poly(self.field, (self.field.one,))
        return result

    def __divmod__(self, other):
        self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("division by the zero polynomial")
        F = self.field
        b = other.coeffs
        if len(b) == 1:
            inv = F.inv(b[0])
            return self.scaled(inv), _poly(F, ())
        a = list(self.coeffs)
        db = len(b) - 1
        inv_lead = F.inv(b[-1])
        quot = [0] * max(0, len(a) - db)
        if F.k == 1:
            p = F.p
            while len(a) > db:
                top = a[-1]
                if top:
                    qc = top * inv_lead % p
                    off = len(a) - len(b)
                    quot[off] = qc
                    for j in range(len(b) - 1):
                        a[off + j] = (a[off + j] - qc * b[j]) % p
                a.pop()
        else:
            while len(a) > db:
                top = a[-1]
                if top:
                    qc = F.mul(top, inv_lead)
                    off = len(a) - len(b)
                    quot[off] = qc
                    for j in range(len(b) - 1):
                        a[off + j] = F.sub(a[off + j], F.mul(qc, b[j]))
                a.pop()
        while a and a[-1] == 0:
            a.pop()
        # quot's top entry comes from self's nonzero lead
        return _poly(F, tuple(quot)), _poly(F, tuple(a))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ValueError("zero polynomial cannot be made monic")
        if self.coeffs[-1] == 1:
            return self
        return self.scaled(self.field.inv(self.coeffs[-1]))

    def __call__(self, x: "Poly") -> "Poly":
        """Evaluate at a polynomial argument (Horner)."""
        self._check(x)
        F = self.field
        acc = Poly(F, ())
        for c in reversed(self.coeffs):
            acc = acc * x
            if c:
                acc = acc + Poly(F, (c,))
        return acc


_new = object.__new__
_set_field = Poly.field.__set__
_set_coeffs = Poly.coeffs.__set__


def _poly(field: FiniteField, coeffs: tuple) -> Poly:
    """Internal constructor: wrap a tuple with no trailing zero, unchecked.

    For results already known to be normalised; Poly() trims and copies.
    """
    self = _new(Poly)
    _set_field(self, field)
    _set_coeffs(self, coeffs)
    return self


# -- constructors --

def constant(field: FiniteField, c: int) -> Poly:
    return Poly(field, (c % field.q if field.k == 1 else c,))


def zero(field: FiniteField) -> Poly:
    return Poly(field, ())


def one(field: FiniteField) -> Poly:
    return Poly(field, (field.one,))


def T(field: FiniteField) -> Poly:
    return Poly(field, (0, field.one))


def random_poly(field: FiniteField, max_deg: int, rng) -> Poly:
    """Uniform polynomial of degree <= max_deg (trailing zeros trimmed)."""
    return Poly(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])


# -- module-level operations --

def horner(coeffs: Sequence[Poly], v: Poly, mod: Poly | None = None) -> Poly:
    """sum coeffs[i] * v**i by Horner's rule, exactly.

    With `mod`, every step is reduced modulo it, so the value is the
    canonical remainder (a step already below deg mod is left as it is).
    The one substitution kernel of the package: curve evaluation, box
    scans, root tables and point counts all call it.
    """
    acc = Poly(v.field, ())
    for c in reversed(coeffs):
        acc = acc * v + c if acc else c
        if mod is not None and len(acc.coeffs) >= len(mod.coeffs):
            acc = acc % mod
    return acc


def sort_key(a: Poly):
    """Total order: by degree, then coefficient tuple (canonical order)."""
    return (len(a.coeffs), a.coeffs)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; error when both inputs are zero."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a: Poly, b: Poly):
    """(g, s, t) with g = gcd monic and s*a + t*b = g."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = one(F), zero(F)
    t0, t1 = zero(F), one(F)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        raise ValueError("gcd(0, 0) is undefined")
    c = F.inv(r0.lead)
    return r0.scaled(c), s0.scaled(c), t0.scaled(c)


def powmod(base: Poly, e: int, f: Poly) -> Poly:
    """base**e mod f by square-and-multiply."""
    if len(base.coeffs) >= len(f.coeffs):
        base = base % f
    if not e:
        return one(base.field)
    result = None
    while True:
        if e & 1:
            result = base if result is None else (result * base) % f
        e >>= 1
        if not e:
            return result
        base = (base * base) % f


def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test over F_q (Ben-Or).

    f of degree n is irreducible iff gcd(f, T**(q**i) - T) = 1 for every
    i <= n/2: T**(q**i) - T is the product of the monic irreducibles of
    degree dividing i, and a reducible f has a factor of degree <= n/2.
    The Frobenius h = T**(q**i) mod f is raised one step at a time, so
    the test stops at the first i that a factor's degree divides.
    """
    if f.is_constant():
        raise ValueError("irreducibility is undefined for constants")
    F = f.field
    t = h = T(F)
    for _ in range((len(f.coeffs) - 1) // 2):
        h = powmod(h, F.q, f)
        if poly_gcd(f, h - t).degree != 0:
            return False
    return True


def random_irreducible(field: FiniteField, deg: int, seed: int) -> Poly:
    """Monic irreducible of exact degree deg; deterministic for a seed."""
    if deg < 1:
        raise ValueError("degree must be >= 1")
    rng = random.Random(f"irr-{field.q}-{deg}-{seed}")
    while True:
        cand = Poly(field, [rng.randrange(field.q) for _ in range(deg)]
                    + [field.one])
        if is_irreducible(cand):
            return cand


def monic_irreducibles_of_degree(field: FiniteField, deg: int):
    """Yield the monic irreducibles of exact degree deg, canonical order."""
    for tail in product(field.elements(), repeat=deg):
        cand = Poly(field, tail + (field.one,))
        if is_irreducible(cand):
            yield cand


def monic_irreducibles(field: FiniteField, max_deg: int):
    """Yield all monic irreducibles of degree 1..max_deg, canonical order."""
    return chain.from_iterable(monic_irreducibles_of_degree(field, d)
                               for d in range(1, max_deg + 1))


def frac_dist(X: Poly, f: Poly) -> int:
    """Minimal norm in the coset X + f*F_q[T]; equals |X mod f|.

    Any other coset element is (X mod f) + f*Z with Z nonzero, and then its
    degree is deg f + deg Z >= deg f > deg(X mod f), so the canonical
    remainder is the unique minimal-norm representative.  Zero exactly when
    f divides X.
    """
    if not f:
        raise ZeroDivisionError("distance to a zero modulus")
    return (X % f).norm


def valuation(g: Poly, f: Poly) -> int:
    """Largest e with f**e dividing g; g must be nonzero, deg f >= 1."""
    if not g:
        raise ValueError("valuation of the zero polynomial")
    if f.is_constant():
        raise ValueError("valuation needs a non-constant modulus")
    e = 0
    while True:
        q, r = divmod(g, f)
        if r:
            return e
        g = q
        e += 1
