"""Bivariate polynomials over F_q[T] and their curves.

A BivarPoly maps exponent pairs (i, j) to nonzero Poly coefficients.
Operations: exact evaluation, degree statistics, reduction and exhaustive
point counting modulo an irreducible f (on the residue ring's digit
engine: a histogram for A(X) + B(Y), else `root_sets`, every zero of the
ring plane from blocked int64 products with no loop over residues),
point-count windows around |f|, and invertible linear changes of
variables including the search for a transform that realizes the full
total degree in X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import NEG_INF, Poly, constant, horner, one, zero
from .residues import ResidueRing


class BivarPoly:
    """Element of (F_q[T])[X, Y] as a sparse exponent-to-coefficient map."""

    __slots__ = ("field", "terms", "_rows")

    def __init__(self, field, terms: dict):
        clean = {}
        for (i, j), c in terms.items():
            if not isinstance(c, Poly):
                raise TypeError("coefficients must be Poly")
            if c.field != field:
                raise ValueError("mismatched field parameters")
            if c:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, *a):
        raise AttributeError("BivarPoly is immutable")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, BivarPoly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items(),
                                              key=lambda kv: kv[0]))))

    def __repr__(self):
        from .grammar import curve_text
        return f"BivarPoly({curve_text(self)!r})"

    # -- degree statistics --

    @property
    def deg(self):
        return max((i + j for i, j in self.terms), default=NEG_INF)

    @property
    def deg_x(self):
        return max((i for i, _ in self.terms), default=NEG_INF)

    @property
    def deg_y(self):
        return max((j for _, j in self.terms), default=NEG_INF)

    @property
    def deg_t(self):
        return max((c.degree for c in self.terms.values()), default=NEG_INF)

    # -- ring structure --

    def __add__(self, other):
        if other.field != self.field:
            raise ValueError("mismatched field parameters")
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            s = c if acc is None else acc + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return BivarPoly(self.field, out)

    def __neg__(self):
        return BivarPoly(self.field, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.field != self.field:
            raise ValueError("mismatched field parameters")
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                prod = c1 * c2
                acc = out.get(key)
                s = prod if acc is None else acc + prod
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return BivarPoly(self.field, out)

    def scaled(self, g: Poly) -> "BivarPoly":
        if not g:
            return BivarPoly(self.field, {})
        return BivarPoly(self.field, {k: c * g for k, c in self.terms.items()})

    def __pow__(self, e: int):
        result = BivarPoly(self.field, {(0, 0): one(self.field)})
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- evaluation --

    def evaluate(self, X: Poly, Y: Poly) -> Poly:
        """Exact value in F_q[T] (ring homomorphism in each argument)."""
        return horner([horner(row, X) for row in self.y_coefficients()], Y)

    def reduce_mod(self, ring: ResidueRing) -> "BivarPoly":
        """Coefficient-wise canonical remainders mod the ring modulus."""
        return BivarPoly(self.field,
                         {k: c % ring.f for k, c in self.terms.items()})

    def y_coefficients(self) -> tuple:
        """Dense rows of F in Y, built once per polynomial.

        Row j, for j = 0 .. deg_Y, is the ascending X-coefficient tuple of
        Y**j (empty when no term has Y**j), so F(x, Y) has the coefficients
        horner(row, x) and F(x, y) = horner([horner(row, x) ...], y).
        """
        if self._rows is None:
            rows = [[] for _ in range(max((j for _, j in self.terms),
                                          default=-1) + 1)]
            for (i, j), c in self.terms.items():
                row = rows[j]
                row.extend([zero(self.field)] * (i + 1 - len(row)))
                row[i] = c
            object.__setattr__(self, "_rows", tuple(map(tuple, rows)))
        return self._rows


def bivar(field, entries: dict) -> BivarPoly:
    """BivarPoly from {(i, j): Poly-or-int} with ints lifted to constants."""
    terms = {}
    for key, c in entries.items():
        if isinstance(c, int):
            c = constant(field, c)
        terms[key] = c
    return BivarPoly(field, terms)


def degree_stats(F: BivarPoly):
    """(deg, deg_X, deg_Y, deg_T); error for the zero polynomial."""
    if not F:
        raise ValueError("degree statistics of the zero polynomial")
    return (F.deg, F.deg_x, F.deg_y, F.deg_t)


# -- point counting mod f --

def is_separable_sum(F: BivarPoly) -> bool:
    """True when no term mixes X and Y (F = A(X) + B(Y) shape)."""
    return all(i == 0 or j == 0 for i, j in F.terms)


def count_points_mod(F: BivarPoly, f) -> int:
    """|{(x, y) in (F_q[T]/f)^2 : F(x, y) = 0 mod f}| by exhaustion.

    A histogram of A(x) against B(y) for additively separable F
    (_count_separable), the whole-ring zeros of root_sets otherwise
    (_count_exhaustive).  Both paths run on the ring's digit engine at
    every ring size and agree on separable F.
    """
    ring = ResidueRing.of(f)
    Fr = F.reduce_mod(ring)
    if not Fr:
        raise ValueError("curve vanishes identically mod f")
    if is_separable_sum(Fr):
        return _count_separable(Fr, ring)
    return _count_exhaustive(Fr, ring)


def _split_separable(Fr: BivarPoly):
    """Coefficient lists of A(X) and B(Y) with F = A + B, constant in A."""
    a_terms: dict[int, Poly] = {}
    b_terms: dict[int, Poly] = {}
    for (i, j), c in Fr.terms.items():
        if j == 0:
            a_terms[i] = c
        else:
            b_terms[j] = c
    da = max(a_terms, default=0)
    db = max(b_terms, default=0)
    A = [a_terms.get(i, zero(Fr.field)) for i in range(da + 1)]
    B = [b_terms.get(j, zero(Fr.field)) for j in range(db + 1)]
    return A, B


def _count_separable(Fr: BivarPoly, ring: ResidueRing) -> int:
    A, B = _split_separable(Fr)
    batch = ring.batch()
    a_vals = batch.eval_univariate(A, batch.digits)
    b_vals = batch.eval_univariate(B, batch.digits)
    hist = batch.histogram((-a_vals) % ring.field.p)
    return int(hist[batch.encode(b_vals)].sum())


def root_sets(Fr: BivarPoly, ring: ResidueRing):
    """The zeros of Fr mod f as int64 residue indices (xs, ys), x major:
    the one root finder of point counts and crt root tables.

    With A_j(x) the value of Y-row j at x (one eval_univariate per power
    of Y over the whole ring), Fr(x, y) = sum_j A_j(x) * y**j is one
    pair_products dot product per block of x, and its all-zero digit rows
    are the zeros.
    """
    batch = ring.batch()
    digits = batch.digits
    y_pow = np.broadcast_to(batch.poly_rows(one(ring.field)), digits.shape)
    a_vals, y_pows = [], []
    for j, row in enumerate(Fr.y_coefficients()):
        if j:
            y_pow = digits if j == 1 else batch.mul(y_pow, digits)
        if row:
            a_vals.append(batch.eval_univariate(row, digits))
            y_pows.append(y_pow)
    xs, ys = [], []
    for start, P in batch.pair_products(np.hstack(a_vals), np.hstack(y_pows)):
        x, y = np.nonzero(~P.any(axis=2))
        xs.append(x + start)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def _count_exhaustive(Fr: BivarPoly, ring: ResidueRing) -> int:
    """Pairs (x, y) of residues with Fr(x, y) = 0 mod f (root_sets)."""
    return len(root_sets(Fr, ring)[0])


def count_points_by_rows(F: BivarPoly, f) -> int:
    """Same count, summed the other way: per y, roots in x."""
    ring = ResidueRing.of(f)
    Fr = F.reduce_mod(ring)
    if not Fr:
        raise ValueError("curve vanishes identically mod f")
    swapped = BivarPoly(Fr.field,
                        {(j, i): c for (i, j), c in Fr.terms.items()})
    return _count_exhaustive(swapped, ring)


# -- Weil-type window --

def weierstrass_parts(F: BivarPoly):
    """(a, b) when F equals Y^2 - X^3 - a*X - b, else None."""
    field = F.field
    allowed = {(0, 2), (3, 0), (1, 0), (0, 0)}
    if set(F.terms) - allowed:
        return None
    if F.terms.get((0, 2)) != one(field):
        return None
    if F.terms.get((3, 0)) != -one(field):
        return None
    a = -F.terms.get((1, 0), zero(field))
    b = -F.terms.get((0, 0), zero(field))
    return a, b


def weierstrass_discriminant(a: Poly, b: Poly) -> Poly:
    """The literal discriminant 4a^3 + 27b^2 of Y^2 = X^3 + aX + b, its
    integers read mod p (so b^2 in characteristic 2, a^3 in 3)."""
    field = a.field
    return (constant(field, 4 % field.p) * a ** 3
            + constant(field, 27 % field.p) * b ** 2)


def is_smooth_weierstrass(F: BivarPoly) -> bool:
    """Literal discriminant test 4a^3 + 27b^2 != 0 on Weierstrass shape.

    Always False in characteristic 2: there dF/dY = 2Y vanishes and
    dF/dX = X^2 + a has a root x0 over the algebraic closure, which also
    holds a y0 with y0^2 = x0^3 + a*x0 + b, so (x0, y0) is singular.
    """
    parts = weierstrass_parts(F)
    if parts is None or F.field.p == 2:
        return False
    return bool(weierstrass_discriminant(*parts))


@dataclass(frozen=True)
class WeilWindowReport:
    count: int
    size: int          # |f|
    constant: Fraction
    bound: float       # constant * sqrt(|f|)
    passed: bool


def weil_window_check(F: BivarPoly, f, C=None) -> WeilWindowReport:
    """Check |count - |f|| <= C * sqrt(|f|); exact rational comparison.

    Default C: 2 for a smooth Weierstrass curve, else 2 * deg(F)^2.  A
    negative C is a ValueError: the check compares squares.
    """
    ring = ResidueRing.of(f)
    if C is None:
        C = Fraction(2) if is_smooth_weierstrass(F) \
            else Fraction(2 * int(F.deg) ** 2)
    else:
        C = Fraction(C)
        if C < 0:
            raise ValueError("window constant C must be >= 0")
    count = count_points_mod(F, ring)
    size = ring.size
    dev = count - size
    passed = dev * dev <= C * C * size
    return WeilWindowReport(count=count, size=size, constant=C,
                            bound=float(C) * math.sqrt(size), passed=passed)


# -- linear transforms --

@dataclass(frozen=True)
class TransformMatrix:
    """Substitution (X, Y) = (A X' + B Y', C X' + D Y'); AD - BC != 0."""

    a: Poly
    b: Poly
    c: Poly
    d: Poly

    def __post_init__(self):
        if not (self.a * self.d - self.b * self.c):
            raise ValueError("transform must have AD - BC != 0")


def identity_transform(field) -> TransformMatrix:
    return TransformMatrix(one(field), zero(field), zero(field), one(field))


def apply_transform(F: BivarPoly, M: TransformMatrix) -> BivarPoly:
    """F'(X', Y') = F(A X' + B Y', C X' + D Y'), expanded exactly."""
    field = F.field
    U = BivarPoly(field, {(1, 0): M.a, (0, 1): M.b})
    V = BivarPoly(field, {(1, 0): M.c, (0, 1): M.d})
    dx = int(F.deg_x) if F else 0
    dy = int(F.deg_y) if F else 0
    upow = [bivar(field, {(0, 0): 1})]
    for _ in range(dx):
        upow.append(upow[-1] * U)
    vpow = [bivar(field, {(0, 0): 1})]
    for _ in range(dy):
        vpow.append(vpow[-1] * V)
    out = BivarPoly(field, {})
    for (i, j), c in F.terms.items():
        out = out + (upow[i] * vpow[j]).scaled(c)
    if F and out.deg != F.deg:
        raise AssertionError("invertible substitution must preserve degree")
    return out


def top_form_value(F: BivarPoly, c: Poly) -> Poly:
    """Value of the top form at (1, c): sum of F_ij c^j over i+j = deg F."""
    d = int(F.deg)
    acc = zero(F.field)
    cpow = [one(F.field)]
    for _ in range(d):
        cpow.append(cpow[-1] * c)
    for (i, j), coeff in F.terms.items():
        if i + j == d:
            acc = acc + coeff * cpow[j]
    return acc


def _shear_candidates(field):
    """c = 0, 1, ... in canonical order, then degree 1, 2, ... polynomials."""
    from itertools import count, product
    for e in field.elements():
        yield Poly(field, (e,))
    for deg in count(1):
        for lead in range(1, field.q):
            for tail in product(field.elements(), repeat=deg):
                yield Poly(field, tuple(tail) + (lead,))


def find_full_degree_transform(F: BivarPoly):
    """(M, F') with deg_X' F' = deg F; tries the shear Y = c X' + Y'.

    The X'^d coefficient after the shear is the top form at (1, c), a
    nonzero polynomial in c of degree <= d, so at most d candidates fail.
    """
    if not F:
        raise ValueError("zero polynomial has no degree transform")
    field = F.field
    d = F.deg
    if F.deg_x == d:
        return identity_transform(field), F
    for c in _shear_candidates(field):
        if top_form_value(F, c):
            M = TransformMatrix(one(field), zero(field), c, one(field))
            out = apply_transform(F, M)
            if out.deg_x != d:
                raise AssertionError("shear failed to realize full X degree")
            return M, out
    raise AssertionError("unreachable: some shear always works")
