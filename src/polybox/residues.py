"""Residue fields F_q[T]/(f) for irreducible f, plus vectorized kernels.

Elements are canonical remainders (Poly of degree < deg f).  The ring is a
field of size |f| = q**deg(f), and an F_p-space of dimension k*deg(f) for
q = p**k: `digit_rows` writes a residue as its F_p digits, whose base-p
value is `ResidueRing.index`, and `box_digit_rows` writes the members of a
box the same way without building them.  `convolve` multiplies digit rows
as polynomials, the one product kernel.  `ResidueBatch.reduce` takes
digit rows of any width to their remainders mod f, the one reduction:
box members and products (`mul`, a `convolve` then `reduce`) reach the
ring through it.  A batch is built from (p, k, f) alone, so box-sized
work modulo a large f allocates only box-sized arrays; its whole-field
matrix `digits` (every residue, for point counts and crt root tables) is
built on first use.  `int64_dot_bound` states, and checks, the overflow
bound of every int64 digit product in the package, and `_BLOCK` bounds
the entries of every transient block of products.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .poly import Poly, is_irreducible, one, poly_xgcd, powmod, zero

# entries per transient block array: block rows times their width (product
# digits), or compared pairs in the quad census
_BLOCK = 1 << 14


def int64_dot_bound(terms: int, p: int) -> int:
    """Largest entry of a sum of `terms` products of digits in [0, p).

    That is terms * (p - 1)**2; OverflowError when it does not fit int64,
    so every numpy digit product is exact or refused at construction.
    """
    bound = terms * (p - 1) ** 2
    if bound >= 1 << 63:
        raise OverflowError(f"{terms} digit products mod {p} overflow int64")
    return bound


def digit_rows(field, polys, n: int) -> np.ndarray:
    """(len(polys), n*k) int64 F_p digits of the coefficients below T**n.

    Each T-coefficient, an element of F_q with q = p**k, gives its k
    u-coefficients, low first (FiniteField.element_coeffs), so the base-p
    value of a row is sum c_i q**i: ResidueRing.index for a remainder.
    """
    coeffs = np.array([(g.coeffs + (0,) * n)[:n] for g in polys],
                      dtype=np.int64).reshape(len(polys), n)
    p, k = field.p, field.k
    return (coeffs[:, :, None] // p ** np.arange(k) % p).reshape(
        len(polys), n * k)


def box_digit_rows(I, start: int, stop: int, n: int) -> np.ndarray:
    """digit_rows(I.field, list(I)[start:stop], n), without building a Poly.

    Member i adds to I.base the tail whose T**j coefficient is the base-q
    digit bound - j of i (c_bound fastest, Interval's order), and F_q
    addition is digit-wise addition mod p.  Requires 0 <= start.
    """
    fld = I.field
    p, k, q = fld.p, fld.k, fld.q
    stop = min(stop, I.size)
    idx = np.arange(start, max(start, stop), dtype=np.int64)
    tail = np.zeros((len(idx), n), dtype=np.int64)
    for j in range(min(n, I.bound + 1)):
        step = q ** (I.bound - j)
        if step < stop:
            tail[:, j] = idx // step % q
    digits = (tail[:, :, None] // p ** np.arange(k) % p).reshape(
        len(idx), n * k)
    return (digits + digit_rows(fld, [I.base], n)) % p


def coeff_rows(field, digits: np.ndarray) -> np.ndarray:
    """The T-coefficient rows (N, n) of digit rows (N, n*k); see digit_rows."""
    k = field.k
    rows = digits.reshape(len(digits), digits.shape[1] // k, k)
    return rows @ field.p ** np.arange(k)


def mul_matrix(g: Poly, n: int, f: Poly) -> np.ndarray:
    """The F_p-linear map a -> a*g mod f on digit rows, for deg a < n.

    Row j*k + l holds the digits of u**l * T**j * g mod f, u being the
    generator of F_q over F_p (encoded p), so digit_rows(field, [a], n) @
    mul_matrix(g, n, f) % p are the digits of a*g mod f.
    """
    fld = g.field
    rows = []
    t = g % f
    for _ in range(n):
        rows.extend(t.scaled(fld.p ** l) for l in range(fld.k))
        t = t.shifted(1) % f
    return digit_rows(fld, rows, len(f.coeffs) - 1)


@lru_cache(maxsize=None)
def _u_powers(field) -> tuple:
    """u**l for l = 1 .. k-1 on one T-coefficient's k digits: k x k
    matrices (mul_matrix mod T), none for k = 1."""
    t = Poly(field, (0, 1))
    return tuple(mul_matrix(Poly(field, (field.p ** l,)), 1, t)
                 for l in range(1, field.k))


def convolve(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Digit rows of the products a_i * b_i in F_q[T], not reduced.

    a holds (N, na*k) and b (N or 1, nb*k) digit rows (digit_rows) of
    polynomials below T**na and T**nb; the result is (N, (na+nb-1)*k).
    The product is F_p-bilinear: each digit of the shorter operand scales
    the other multiplied by the power u**l of the field generator that the
    digit stands for (_u_powers), shifted to its T-coefficient.  Each entry
    sums min(na, nb)*k digit products, checked before any array is built.
    """
    p, k = field.p, field.k
    na, nb = a.shape[1] // k, b.shape[1] // k
    int64_dot_bound(min(na, nb) * k, p)
    if na > nb:
        a, b, na, nb = b, a, nb, na
    bs = [b] + [(b.reshape(len(b), nb, k) @ A).reshape(b.shape) % p
                for A in _u_powers(field)]
    conv = np.zeros((len(b) if len(a) == 1 else len(a), (na + nb - 1) * k),
                    dtype=np.int64)
    for i in range(na):
        for l, bl in enumerate(bs):
            conv[:, i * k: (i + nb) * k] += a[:, i * k + l, None] * bl
    return conv % p


class ResidueRing:
    """F_q[T]/(f) with f irreducible; elements are canonical remainders."""

    def __init__(self, f: Poly, check: bool = True):
        if check and not is_irreducible(f):
            raise ValueError("modulus must be irreducible")
        self.f = f
        self.field = f.field
        self.deg = len(f.coeffs) - 1
        self.size = self.field.q ** self.deg  # |f|
        self._batch = None

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
        e, q = 0, self.field.q
        for c in reversed(a.coeffs[:self.deg]):
            e = e * q + c
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

    def batch(self) -> "ResidueBatch":
        """The ring's digit engine (ResidueBatch), built once per ring."""
        if self._batch is None:
            self._batch = ResidueBatch(self)
        return self._batch

    def __repr__(self):
        return f"ResidueRing(f={self.f!r}, size={self.size})"


def residue_classes(points, ring: ResidueRing):
    """The classes (x mod f, y mod f) of the points (x, y): (keys, ids),
    keys in first-appearance order and ids[i] the class of point i."""
    index: dict = {}
    ids = [index.setdefault((x % ring.f, y % ring.f), len(index))
           for (x, y) in points]
    return list(index), ids


class ResidueBatch:
    """Residues of a ring as (N, m*k) F_p digit rows (digit_rows).

    The arithmetic (`reduce`, `mul`, `encode`) is built from (p, k, f)
    alone.  `digits`, every residue as one row in ResidueRing.elements()
    order (the base-p value of row i is i), is built on first use, so a
    batch over a large f holds only the arrays it is given.

    `reduce` is the F_p-linear map from digit rows of any width to their
    remainders mod f, and `mul` is F_p-bilinear: the T-convolution
    `convolve`, then `reduce`.  Digit arrays use int64, and each entry sums
    digit products: m*k for a product's convolution, checked at
    construction, and (n-m)*k plus one digit for the reduction of width n,
    checked before its matrix is built.  Indices (`encode`) are int64
    below |f| = 2**63 and Python ints from there on, so they are exact at
    every size.

    `census` is one slot for the box censuses of polybox.elliptic: the
    cubes, squares and cube classes of the last census box, replaced when
    a census runs on another box, so the batch holds at most one box.
    """

    def __init__(self, ring: ResidueRing):
        fld = ring.field
        p, k, m = fld.p, fld.k, ring.deg
        int64_dot_bound(m * k, p)
        self.ring = ring
        self.p, self.k, self.m, self.n = p, k, m, ring.size
        self._powers = p ** np.arange(m * k, dtype=np.int64) \
            if self.n <= 1 << 63 else np.array([p ** i for i in range(m * k)],
                                               dtype=object)
        self._reductions = {}   # width n -> mul_matrix(T**m, n - m, f)
        self.census = None      # elliptic._CensusBox of the last box

    @cached_property
    def digits(self) -> np.ndarray:
        """Every residue as one digit row, (|f|, m*k), in index order."""
        return np.arange(self.n, dtype=np.int64)[:, None] \
            // self._powers % self.p

    def encode(self, digits: np.ndarray) -> np.ndarray:
        """(N, m*k) digit rows -> residue indices."""
        return digits @ self._powers

    def reduce(self, rows: np.ndarray) -> np.ndarray:
        """(N, n*k) digit rows below T**n, any n -> (N, m*k) digit rows of
        their remainders mod f: copied into zeros when n <= m, else the
        digits of T**m .. T**(n-1) through mul_matrix(T**m, n - m, f), one
        per width, added to the low digits."""
        mk, n = self.m * self.k, rows.shape[1] // self.k
        if n <= self.m:
            out = np.zeros((len(rows), mk), dtype=np.int64)
            out[:, :rows.shape[1]] = rows
            return out
        red = self._reductions.get(n)
        if red is None:
            int64_dot_bound((n - self.m) * self.k + 1, self.p)
            f = self.ring.f
            red = self._reductions[n] = mul_matrix(
                Poly(f.field, (0,) * self.m + (1,)), n - self.m, f)
        return (rows[:, :mk] + rows[:, mk:] @ red) % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise product of residue digit matrices, reduced mod f: the
        T-convolution `convolve`, then `reduce`."""
        return self.reduce(convolve(self.ring.field, a, b))

    @cached_property
    def _structure(self) -> np.ndarray:
        """(m*k, m*k*m*k): row a holds the digits of e_a * e_b for every
        basis digit b, b major, so x @ _structure is x's multiplication
        matrix, flat."""
        eye = np.eye(self.m * self.k, dtype=np.int64)
        return self.mul(np.repeat(eye, len(eye), axis=0),
                        np.tile(eye, (len(eye), 1))).reshape(len(eye), -1)

    def pair_products(self, xs: np.ndarray, ys: np.ndarray):
        """Every product x * y, in blocks of x: yields (start, P) with P[i, j]
        the digit row of xs[start + i] * ys[j], P of shape (b, len(ys), m*k).

        A row may also hold J residues side by side, (N, J*m*k); the product
        is then the sum of the J products x_j * y_j.  Each block takes the
        multiplication matrices of its x (xs @ _structure) and one product
        ys @ them; both hold at most _BLOCK entries unless the block is a
        single x.
        """
        mk, p = self.m * self.k, self.p
        # ys @ right sums xs.shape[1] >= m*k digit products, each of the
        # reduced multiplication matrices block @ _structure m*k
        int64_dot_bound(xs.shape[1], p)
        step = max(1, _BLOCK // (mk * max(len(ys), xs.shape[1])))
        for start in range(0, len(xs), step):
            block = xs[start:start + step]
            b = len(block)
            right = (block.reshape(-1, mk) @ self._structure % p).reshape(
                b, -1, mk, mk).transpose(1, 2, 0, 3).reshape(-1, b * mk)
            yield start, (ys @ right % p).reshape(
                len(ys), b, mk).transpose(1, 0, 2)

    def poly_rows(self, g: Poly) -> np.ndarray:
        """Constant residue g mod f as one digit row (1, m*k)."""
        return digit_rows(self.ring.field, [g % self.ring.f], self.m)

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
