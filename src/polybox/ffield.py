"""Arithmetic in the coefficient field F_q, q = p^k.

Elements are plain integers 0..q-1.  For a prime field the integer is the
usual representative mod p.  For an extension field F_p[u]/(m(u)) the
integer encodes the u-coefficient vector as e = sum c_i * p^i, so the
element written c_0 + c_1*u + ... has c_0 as its least significant digit.
Ascending integers give the canonical element order used everywhere
(interval enumeration, deterministic searches, report sorting); on a prime
field this is the integer order on representatives.

Extension moduli come from a fixed built-in table for small (p, k) and
from a seeded deterministic search otherwise; the modulus is always
recorded on the field object so runs are reproducible.

An extension field does its arithmetic with three tables of size O(q),
built from a primitive element g (Lidl & Niederreiter, *Finite Fields*,
ch. 2): the powers g^i, the discrete log of every element, and the Zech
log Z(d) with 1 + g^d = g^Z(d).  The bootstrap (the modulus check and the
search for g) runs in `Poly` arithmetic over F_p.  The tables hold about
6q list entries, so q is bounded by `_TABLE_LIMIT` = 2^16; a larger
extension raises ValueError before any modulus search.
"""

from __future__ import annotations

import math
from typing import Sequence

# Fixed moduli (coefficients of m(u), ascending powers, monic) for common
# small extensions.  Validated by the irreducibility check at construction.
_BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
}

_TABLE_LIMIT = 1 << 16  # largest extension q: its tables hold ~6q entries


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FiniteField:
    """The field F_q with q = p^k, elements encoded as integers 0..q-1.

    For k > 1 each operation is a lookup in three tables built from a
    primitive element g, with S = 2(q-1):

    - `_exp[i]` = g^i for 0 <= i < S, then S + 1 zeros;
    - `_log[a]` = log_g a for a != 0, and `_log[0]` = S, so any index sum
      that involves a zero lands in the zero tail of `_exp`;
    - `_zech[d]` = Z(d) with 1 + g^d = g^Z(d) (S when 1 + g^d = 0) for
      0 <= d < q-1; a negative d reads Z(d mod (q-1)) by list indexing.

    mul, inv and neg are single lookups with no test for zero; add returns
    the other operand when one is zero, and pow treats a zero base apart.
    Together the tables hold about 6q entries, hence the bound q <= 2^16.
    """

    __slots__ = ("p", "k", "q", "modulus", "_exp", "_log", "_zech",
                 "_neg_shift", "_hash")

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None,
                 seed: int = 0):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p ** k
        if k == 1:
            if modulus is not None:
                raise ValueError("prime field takes no modulus")
            self.modulus = None
        else:
            if self.q > _TABLE_LIMIT:
                raise ValueError(f"extension field too large for its tables "
                                 f"(q={self.q} > {_TABLE_LIMIT})")
            from .poly import Poly, is_irreducible
            if modulus is None:
                modulus = self._pick_modulus(p, k, seed)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            m = Poly(FiniteField(p), modulus)
            if not is_irreducible(m):
                raise ValueError("modulus is not irreducible over F_p")
            self.modulus = modulus
            self._build_tables(m)
        self._hash = hash((self.p, self.k, self.modulus))

    @staticmethod
    def _pick_modulus(p, k, seed):
        if (p, k) in _BUILTIN_MODULI:
            return _BUILTIN_MODULI[(p, k)]
        import random
        from .poly import Poly, is_irreducible
        Fp = FiniteField(p)
        rng = random.Random(seed)
        while True:
            cand = [rng.randrange(p) for _ in range(k)] + [1]
            if is_irreducible(Poly(Fp, cand)):
                return tuple(cand)

    # -- integer <-> u-coefficient vector (ascending powers, little-endian) --

    def element_coeffs(self, e: int) -> tuple:
        digits = []
        for _ in range(self.k):
            digits.append(e % self.p)
            e //= self.p
        return tuple(digits)

    def element_from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.k:
            raise ValueError("too many u-coefficients")
        e = 0
        for c in reversed(list(coeffs)):
            e = e * self.p + c % self.p
        return e

    def _build_tables(self, m):
        """Find the first primitive g in canonical order, then tabulate.

        m is the modulus as a `Poly` over F_p; the powers of g are walked
        in F_p[u]/(m).
        """
        from .poly import Poly
        p, q, Fp = self.p, self.q, m.field
        one = Poly(Fp, (1,))
        # the constants 1..p-1 have order dividing p-1, so start at g = u
        for g in range(p, q):
            gu = Poly(Fp, self.element_coeffs(g))
            x, powers = one, [1]
            for _ in range(q - 2):
                x = x * gu % m
                if x == one:
                    break
                powers.append(self.element_from_coeffs(x.coeffs))
            else:
                break
        S = 2 * (q - 1)
        self._exp = powers * 2 + [0] * (S + 1)
        self._log = log = [S] * q
        for i, e in enumerate(powers):
            log[e] = i
        # 1 + e raises the low u-digit of e by one, mod p
        self._zech = [log[e + 1 if e % p != p - 1 else e + 1 - p]
                      for e in powers]
        # -1 = g^((q-1)/2) for odd p; -a = a in characteristic 2
        self._neg_shift = (q - 1) // 2 if p != 2 else 0

    # -- arithmetic --

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        return self._exp[self._log[a] + self._neg_shift]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if not a:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def elements(self) -> range:
        """All elements in canonical order."""
        return range(self.q)

    def random_element(self, rng) -> int:
        return rng.randrange(self.q)

    # -- identity --

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.k == other.k
                and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k}; m={list(self.modulus)})"

    def describe(self) -> dict:
        """JSON-friendly field parameters (modulus always recorded)."""
        d = {"p": self.p, "k": self.k, "q": self.q}
        if self.modulus is not None:
            d["modulus"] = list(self.modulus)
        return d


def GF(q: int, seed: int = 0) -> FiniteField:
    """Build F_q from a prime power q."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    p = min(prime_factors(q))
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return FiniteField(p, k, seed=seed)
