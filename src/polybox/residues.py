"""Residue fields F_q[T]/(f) for irreducible f, plus vectorized kernels.

Elements are canonical remainders (Poly of degree < deg f).  The ring is a
field of size |f| = q**deg(f).  `ResidueBatch` holds every residue of a
prime-base-field ring as a numpy digit matrix and provides whole-field
maps (multiplication, polynomial evaluation, histograms); the exhaustive
point-counting paths use it to stay inside the runtime budgets.
`int64_dot_bound` states, and checks, the overflow bound of every int64
digit product in the package.
"""

from __future__ import annotations

import numpy as np

from .poly import Poly, is_irreducible, one, poly_xgcd, powmod, zero


def int64_dot_bound(terms: int, p: int) -> int:
    """Largest entry of a sum of `terms` products of digits in [0, p).

    That is terms * (p - 1)**2; OverflowError when it does not fit int64,
    so every numpy digit product is exact or refused at construction.
    """
    bound = terms * (p - 1) ** 2
    if bound >= 1 << 63:
        raise OverflowError(f"{terms} digit products mod {p} overflow int64")
    return bound


class ResidueRing:
    """F_q[T]/(f) with f irreducible; elements are canonical remainders."""

    def __init__(self, f: Poly, check: bool = True):
        if check and not is_irreducible(f):
            raise ValueError("modulus must be irreducible")
        self.f = f
        self.field = f.field
        self.deg = len(f.coeffs) - 1
        self.size = self.field.q ** self.deg  # |f|

    @classmethod
    def of(cls, f) -> "ResidueRing":
        """f when it is already a ring, else the checked ResidueRing(f)."""
        return f if isinstance(f, cls) else cls(f)

    def reduce(self, X: Poly) -> Poly:
        return X % self.f

    def mul(self, a: Poly, b: Poly) -> Poly:
        return (a * b) % self.f

    def inv(self, a: Poly) -> Poly:
        a = a % self.f
        if not a:
            raise ZeroDivisionError("inverse of zero residue")
        g, s, _ = poly_xgcd(a, self.f)
        if g.degree != 0:
            raise ZeroDivisionError("non-invertible residue (modulus reducible?)")
        return s % self.f

    def pow(self, a: Poly, e: int) -> Poly:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return powmod(a, e, self.f)

    def elements(self):
        """All residues in counting order: element i is from_index(i)."""
        for e in range(self.size):
            yield self.from_index(e)

    def index(self, a: Poly) -> int:
        """Counting index sum coeff_i * q**i of a canonical remainder."""
        e = 0
        for i in reversed(range(self.deg)):
            e = e * self.field.q + a.coefficient(i)
        return e

    def from_index(self, e: int) -> Poly:
        q = self.field.q
        coeffs = []
        for _ in range(self.deg):
            coeffs.append(e % q)
            e //= q
        return Poly(self.field, coeffs)

    def sqrt(self, a: Poly):
        """A square root of a in the residue field, or None.

        Characteristic 2: squaring is the Frobenius, hence bijective and
        the root is a**(size/2).  Odd characteristic: Euler criterion then
        Tonelli-Shanks with a deterministic non-residue search.
        """
        a = a % self.f
        if not a:
            return zero(self.field)
        Q = self.size
        if self.field.p == 2:
            return self.pow(a, Q // 2)
        if self.pow(a, (Q - 1) // 2) != one(self.field):
            return None
        if Q % 4 == 3:
            return self.pow(a, (Q + 1) // 4)
        # Tonelli-Shanks
        s, m = Q - 1, 0
        while s % 2 == 0:
            s //= 2
            m += 1
        z = None
        for cand in self.elements():
            if cand and self.pow(cand, (Q - 1) // 2) != one(self.field):
                z = cand
                break
        c = self.pow(z, s)
        t = self.pow(a, s)
        r = self.pow(a, (s + 1) // 2)
        while t != one(self.field):
            t2, i = self.mul(t, t), 1
            while t2 != one(self.field):
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (m - i - 1))
            m = i
            c = self.mul(b, b)
            t = self.mul(t, c)
            r = self.mul(r, b)
        return r

    def batch(self):
        """Vectorized whole-field view; prime base fields only."""
        if self.field.k != 1:
            raise ValueError("vectorized residues need a prime base field")
        return ResidueBatch(self)

    def __repr__(self):
        return f"ResidueRing(f={self.f!r}, size={self.size})"


class ResidueBatch:
    """All residues of a prime-field ring as an (N, m) digit matrix.

    Row order matches ResidueRing.elements()/index().  Digit arrays use
    int64; a convolution entry of two digit rows is a sum of at most m
    digit products, so it stays below m*(p-1)**2, checked at construction.
    """

    def __init__(self, ring: ResidueRing):
        self.ring = ring
        self.p = ring.field.p
        self.m = ring.deg
        int64_dot_bound(self.m, self.p)
        self.n = ring.size
        base = np.arange(self.n, dtype=np.int64)
        digits = np.empty((self.n, self.m), dtype=np.int64)
        for i in range(self.m):
            digits[:, i] = base % self.p
            base //= self.p
        self.digits = digits
        # rows: T**j mod f for j = m .. 2m-2 (reduction of product overflow)
        red = np.zeros((max(self.m - 1, 0), self.m), dtype=np.int64)
        t_pow = Poly(ring.field, (0,) * self.m + (1,)) % ring.f
        for j in range(self.m - 1):
            red[j, :] = [t_pow.coefficient(i) for i in range(self.m)]
            t_pow = (t_pow.shifted(1)) % ring.f
        self.reduction = red
        self._powers = self.p ** np.arange(self.m, dtype=np.int64)

    def encode(self, digits: np.ndarray) -> np.ndarray:
        """(N, m) digit rows -> residue indices."""
        return digits @ self._powers

    def all_indices(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise product of residue digit matrices, reduced mod f."""
        m, p = self.m, self.p
        if m == 1:
            return (a * b) % p
        rows = max(a.shape[0], b.shape[0])
        conv = np.zeros((rows, 2 * m - 1), dtype=np.int64)
        for i in range(m):
            ai = a[:, i: i + 1]
            conv[:, i: i + m] += ai * b
        conv %= p
        low = conv[:, :m]
        high = conv[:, m:]
        return (low + high @ self.reduction) % p

    def poly_rows(self, g: Poly) -> np.ndarray:
        """Constant residue g broadcast to one digit row (1, m)."""
        r = (g % self.ring.f)
        return np.array([[r.coefficient(i) for i in range(self.m)]],
                        dtype=np.int64)

    def eval_univariate(self, coeffs: list[Poly], x: np.ndarray) -> np.ndarray:
        """Evaluate sum coeffs[i] * x**i row-wise (Horner); coeffs are Poly."""
        if not coeffs:
            raise ValueError("empty coefficient list")
        acc = np.broadcast_to(self.poly_rows(coeffs[-1]), x.shape).copy()
        for g in reversed(coeffs[:-1]):
            acc = self.mul(acc, x)
            acc = (acc + self.poly_rows(g)) % self.p
        return acc

    def histogram(self, digits: np.ndarray) -> np.ndarray:
        """Counts of each residue index among the rows."""
        return np.bincount(self.encode(digits), minlength=self.n)
