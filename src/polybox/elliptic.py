"""Isomorphism-class censuses for curves Y^2 = X^3 + aX + b over F_q[T].

Two coefficient pairs (a, b), (c, d) are isomorphic mod f when some unit t
satisfies a*t^4 = c and b*t^6 = d mod f; any witness forces the invariant
congruence a^3 d^2 = c^3 b^2.  The module counts such pairs inside boxes,
builds the simultaneous-approximation multiplier (a nonzero t mod f making
prescribed X_i*t all small in the remainder norm, found as a kernel vector
of an F_q-linear system), reduces the box congruence a^3 = lambda*b^2 to
an equivalent small-coefficient model, and provides the exact count of the
extremal family (x^2, x^3) whose members satisfy a^3 = b^2 identically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .curves import weierstrass_discriminant
from .errors import PolyboxError
from .intervals import Interval
from .linalg import gf_kernel_vector
from .poly import Poly, constant, frac_dist, one, sort_key
from .residues import (_BLOCK, ResidueRing, box_digit_rows, coeff_rows,
                       digit_rows)


@dataclass(frozen=True)
class ECPair:
    """Coefficient pair of Y^2 = X^3 + aX + b with 4a^3 + 27b^2 != 0.

    The discriminant test is applied literally; in characteristic 2 it
    collapses to b^2 != 0 and in characteristic 3 to a^3 != 0, which is
    flagged with a warning rather than rejected.
    """

    a: Poly
    b: Poly

    def __post_init__(self):
        fld = self.a.field
        if self.b.field != fld:
            raise ValueError("mismatched field parameters")
        if fld.p in (2, 3):
            warnings.warn("characteristic 2/3: literal discriminant "
                          "degenerates", stacklevel=2)
        if not weierstrass_discriminant(self.a, self.b):
            raise ValueError("degenerate pair: 4a^3 + 27b^2 = 0")


def invariant_congruent(a: Poly, b: Poly, c: Poly, d: Poly, f) -> bool:
    """a^3 d^2 = c^3 b^2 mod f (necessary for an isomorphism witness)."""
    ring = ResidueRing.of(f)
    lhs = (a ** 3 * d ** 2 - c ** 3 * b ** 2) % ring.f
    return not lhs


def iso_witness(a: Poly, b: Poly, c: Poly, d: Poly, f):
    """A unit t with a*t^4 = c and b*t^6 = d mod f, or None.

    When all four inputs are units the witness necessarily satisfies
    t^2 = (d*a)/(b*c), so only the square roots of that value need the
    final power checks; otherwise the nonzero residues are exhausted.
    """
    ring = ResidueRing.of(f)
    a, b, c, d = (v % ring.f for v in (a, b, c, d))
    if all((a, b, c, d)):
        s = ring.mul(ring.mul(d, a), ring.inv(ring.mul(b, c)))
        r = ring.sqrt(s)
        if r is None:
            return None
        for t in sorted({r, (-r) % ring.f}, key=sort_key):
            if _witness_ok(a, b, c, d, t, ring):
                return t
        return None
    for t in ring.elements():
        if t and _witness_ok(a, b, c, d, t, ring):
            return t
    return None


def _witness_ok(a, b, c, d, t, ring) -> bool:
    t2 = ring.mul(t, t)
    t4 = ring.mul(t2, t2)
    t6 = ring.mul(t4, t2)
    return ring.mul(a, t4) == c and ring.mul(b, t6) == d


# -- box censuses --
#
# Box members are digit rows mod f (ResidueBatch.reduce of their
# box_digit_rows); cubes, squares and products come from ResidueBatch.mul,
# and classes are counted on encoded residue indices, so no census holds
# an array of |f| rows.  A ring keeps the cubes, squares and cube classes
# of its last census box (_CensusBox, in the one slot ResidueBatch.census),
# so a sum of N_lambda over every lambda reads the box once.

class _CensusBox:
    """The lambda-independent half of a census on one box modulo f.

    `cubes` and `squares` are the read-only digit rows of a^3 and a^2 mod
    f for the members a of `box`, in box order; `cube_classes` are the
    sorted residue indices of the cubes with their member counts, built
    on first use.
    """

    def __init__(self, I: Interval, batch):
        a = batch.reduce(box_digit_rows(I, 0, I.size, I.max_degree() + 1))
        self.box, self._batch = I, batch
        self.squares = batch.mul(a, a)
        self.cubes = batch.mul(self.squares, a)
        self.cubes.flags.writeable = self.squares.flags.writeable = False

    @cached_property
    def cube_classes(self):
        keys, counts = np.unique(self._batch.encode(self.cubes),
                                 return_counts=True)
        keys.flags.writeable = counts.flags.writeable = False
        return keys, counts


def _box_powers(I: Interval, ring: ResidueRing) -> _CensusBox:
    """The census data of I mod f: the ring's stored box when it equals
    I, else a new _CensusBox that replaces it."""
    if I.field != ring.field:
        raise ValueError("mismatched field parameters")
    batch = ring.batch()
    if batch.census is None or batch.census.box != I:
        batch.census = _CensusBox(I, batch)
    return batch.census


def _pair_products(batch, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """encode(x * y) for x in xs, y in ys, flat with x major.

    Computed in blocks of x, about _BLOCK product digits a block.
    """
    width = (2 * batch.m - 1) * batch.k
    step = max(1, _BLOCK // max(1, len(ys) * width))
    return np.concatenate([
        batch.encode(batch.mul(np.repeat(xs[i:i + step], len(ys), axis=0),
                               np.tile(ys, (len(xs[i:i + step]), 1))))
        for i in range(0, len(xs), step)])


def count_nlambda(I: Interval, lam: Poly, f) -> int:
    """Pairs (a, b) in I^2 with a^3 = lambda * b^2 mod f, exhaustively.

    Each encode(lambda * b^2) is looked up among the sorted cube classes.
    A ring keeps the cubes, squares and cube classes of its last census
    box (_box_powers), so a further call on the same box and ring
    computes only the products lambda * b^2.
    """
    ring = ResidueRing.of(f)
    batch = ring.batch()
    box = _box_powers(I, ring)
    keys, counts = box.cube_classes
    targets = batch.encode(batch.mul(batch.poly_rows(lam), box.squares))
    pos = np.minimum(np.searchsorted(keys, targets), len(keys) - 1)
    return int(counts[pos[keys[pos] == targets]].sum())


def _ratio_classes(I: Interval, ring: ResidueRing):
    """The pairs (a, b) in I^2 classed by the ratio a^3 / b^2 mod f.

    Returns ((keys, counts), b_zero, both): the residue indices of the
    ratios with unit b, sorted, with their pair counts; b_zero counts the
    pairs with b = 0 and a a unit, both those with a = b = 0.  Each unit
    b's inverse square is computed once, and every product a^3 * b^-2 in
    one batched pass.
    """
    batch = ring.batch()
    fld = ring.field
    box = _box_powers(I, ring)
    cubes, squares = box.cubes, box.squares
    unit = squares.any(axis=1)
    inv_squares = digit_rows(fld, [
        ring.inv(Poly(fld, row))
        for row in coeff_rows(fld, squares[unit]).tolist()], ring.deg)
    classes = np.unique(_pair_products(batch, cubes, inv_squares),
                        return_counts=True)
    zeros = len(cubes) - len(inv_squares)   # members b = 0 mod f
    units = int(np.count_nonzero(cubes.any(axis=1)))
    return classes, zeros * units, zeros * (len(cubes) - units)


def count_invariant_pairs(I: Interval, f, method: str = "auto") -> int:
    """Solutions ((a,b),(c,d)) in I^4 of a^3 d^2 = c^3 b^2 mod f.

    'quad' is the literal four-fold product test: it encodes P[a, d] =
    a^3 d^2 and compares P[a, d] with P[c, b] on every quadruple, with no
    inverse.  'bucket' classifies each pair by the ratio a^3 / b^2 (unit
    b), by b = 0 with unit a, or by both zero (`_ratio_classes`), and
    combines the class sizes.  Both give the same count.
    """
    ring = ResidueRing.of(f)
    if method == "auto":
        method = "quad" if I.size ** 4 <= 2 ** 16 else "bucket"
    if method == "quad":
        box = _box_powers(I, ring)
        P = _pair_products(ring.batch(), box.cubes, box.squares)
        step = max(1, _BLOCK // len(P))
        return sum(int(np.count_nonzero(P[i:i + step, None] == P))
                   for i in range(0, len(P), step))
    if method != "bucket":
        raise ValueError(f"unknown census method {method!r}")
    (_, counts), b_zero, both = _ratio_classes(I, ring)
    counts = counts.tolist()
    return (sum(v * v for v in counts)
            + (b_zero + both) ** 2
            + 2 * sum(counts) * both)


# -- simultaneous approximation --

@dataclass(frozen=True)
class PigeonInstance:
    """Inputs of the multiplier problem: make all {X_i t}_f < q**tau_i."""

    f: Poly
    x_list: tuple
    tau_list: tuple

    def __post_init__(self):
        m = len(self.f.coeffs) - 1
        if len(self.x_list) != len(self.tau_list):
            raise ValueError("X and tau lists must have equal length")
        if any(t < 0 or t > m for t in self.tau_list):
            raise ValueError("tau exponents must lie in [0, deg f]")

    @property
    def slack(self) -> int:
        """sum tau_i - (s-1) deg f; solvable by elimination when > 0."""
        m = len(self.f.coeffs) - 1
        return sum(self.tau_list) - (len(self.tau_list) - 1) * m

    def verify(self, t: Poly) -> bool:
        if not t or not (t % self.f):
            return False
        return all(frac_dist(x * t, self.f) < self.f.field.q ** tau
                   for x, tau in zip(self.x_list, self.tau_list))


def pigeonhole_multiplier(inst: PigeonInstance) -> Poly:
    """A nonzero t mod f with {X_i t}_f < q**tau_i for every i.

    The coefficients of degree >= tau_i of (X_i * t mod f) are F_q-linear
    in the deg-f unknown coefficients of t; with sum(deg f - tau_i) <
    deg f homogeneous conditions the kernel is nontrivial, and any nonzero
    kernel vector works.  Raises when that precondition fails (existence
    is no longer guaranteed).
    """
    f = inst.f
    fld = f.field
    m = len(f.coeffs) - 1
    if inst.slack <= 0:
        raise PolyboxError(
            "pigeonhole precondition violated: sum(tau) must exceed (s-1)*deg f")
    rows = []
    for x, tau in zip(inst.x_list, inst.tau_list):
        shifted = x % f
        images = []
        for _ in range(m):
            images.append(shifted)
            shifted = shifted.shifted(1) % f
        for e in range(tau, m):
            rows.append([images[j].coefficient(e) for j in range(m)])
    if not rows:
        return one(fld)
    vec = gf_kernel_vector(rows, m, fld)
    if vec is None:
        raise AssertionError("kernel must be nontrivial under the precondition")
    t = Poly(fld, vec)
    if not inst.verify(t):
        raise AssertionError("multiplier failed its postcondition")
    return t


def pigeonhole_oracle(inst: PigeonInstance):
    """Exhaustive search over nonzero residues mod f; None when infeasible.

    Desk-scale only (|f| candidates); used to confirm the solver's
    feasibility classification.
    """
    ring = ResidueRing(inst.f, check=False)
    for t in ring.elements():
        if t and inst.verify(t):
            return t
    return None


# -- small-coefficient model --

@dataclass(frozen=True)
class SmallModel:
    """Equivalent form of (X+X0)^3 = lambda*(X0+Y)^2 mod f with small
    coefficients f_1..f_6 (f_i = X_i * t mod f for the multiplier t)."""

    lam: Poly
    x0: Poly
    f: Poly
    t: Poly
    fs: tuple          # f_1 .. f_6
    tau_list: tuple
    z_bound: int | None  # bound on |Z| in (model LHS) = f * Z, given a box

    def x_inputs(self) -> tuple:
        """The multiplier inputs (1, 3X0, 3X0^2, -lambda, -2lambda*X0)."""
        return _multiplier_inputs(self.lam, self.x0)

    def model_value(self, X: Poly, Y: Poly) -> Poly:
        f1, f2, f3, f4, f5, f6 = self.fs
        return (f1 * X ** 3 + f2 * X ** 2 + f3 * X
                + f4 * Y ** 2 + f5 * Y + f6)

    def model_holds(self, X: Poly, Y: Poly) -> bool:
        return not (self.model_value(X, Y) % self.f)

    def original_holds(self, X: Poly, Y: Poly) -> bool:
        v = (X + self.x0) ** 3 - self.lam * (self.x0 + Y) ** 2
        return not (v % self.f)


def _multiplier_inputs(lam: Poly, x0: Poly) -> tuple:
    """(1, 3X0, 3X0^2, -lambda, -2lambda*X0): the coefficients of X^3, X^2,
    X, Y^2 and Y in the expanded box congruence."""
    fld = lam.field
    three = constant(fld, 3 % fld.p)
    two = constant(fld, 2 % fld.p)
    return (one(fld), three * x0, three * x0 ** 2, -lam, -(two * lam * x0))


def small_coeff_model(lam: Poly, x0: Poly, f, tau_list,
                      box: Interval | None = None) -> SmallModel:
    """Multiply the box congruence by a pigeonhole multiplier.

    The congruence (X+X0)^3 = lambda*(X0+Y)^2 mod f expands to
    X^3 + 3X0*X^2 + 3X0^2*X - lambda*Y^2 - 2lambda*X0*Y + (X0^3 - lambda*X0^2)
    = 0 mod f; multiplying by a unit t and replacing each coefficient by
    its canonical remainder preserves the solution set exactly.
    """
    ring = ResidueRing.of(f)
    f = ring.f
    fld = f.field
    lam = lam % f
    tau_list = tuple(int(t) for t in tau_list)
    xs = _multiplier_inputs(lam, x0)
    inst = PigeonInstance(f=f, x_list=xs, tau_list=tau_list)
    t = pigeonhole_multiplier(inst)
    fs = tuple((x * t) % f for x in xs)
    f6 = (-(t * (lam * x0 ** 2 - x0 ** 3))) % f
    z_bound = _z_bound(fld.q, len(f.coeffs) - 1, tau_list, box.bound) \
        if box is not None else None
    return SmallModel(lam=lam, x0=x0, f=f, t=t, fs=fs + (f6,),
                      tau_list=tau_list, z_bound=z_bound)


def _z_bound(q: int, m: int, taus, n: int) -> int:
    """Norm bound on Z with (model LHS) = f*Z over a bound-n box, from the
    declared tau bounds and the ultrametric triangle inequality."""
    t1, t2, t3, t4, t5 = taus
    top = max(t1 - 1 + 3 * n, t2 - 1 + 2 * n, t3 - 1 + n,
              t4 - 1 + 2 * n, t5 - 1 + n, m - 1)
    e = top - m
    return q ** e if e >= 0 else 0


def ninth_window_tau_plan(I: Interval, f) -> tuple:
    """Remainder-norm exponents for the five multiplier inputs.

    Targets T_1 = T^4 |I|^2 (rounded down to a q-power) and
    T_2 = T_4 = |f|/(T|I|), T_3 = T_5 = |f|/T (rounded up), at the
    balance point T ~ (|f| / |I|^4)^(1/5); when everything lands on
    integers the first exponent is bumped by one so the strict
    solvability margin holds.
    """
    ring = ResidueRing.of(f)
    m = ring.deg
    ell = I.bound + 1
    theta = Fraction(m - 4 * ell, 5)
    t1 = math.floor(4 * theta + 2 * ell)
    t2 = math.ceil(m - theta - ell)
    t3 = math.ceil(m - theta)
    taus = [t1, t2, t3, t2, t3]
    if sum(taus) == 4 * m:
        taus[0] += 1
    taus = [min(max(t, 0), m) for t in taus]
    if sum(taus) <= 4 * m:
        raise PolyboxError("no admissible tau plan: box too large for |f|")
    return tuple(taus)


# -- the ninth-root window scan --

@dataclass(frozen=True)
class NinthWindowReport:
    size_i: int
    norm_f: int
    rows: tuple        # (lambda Poly, count) sorted canonically
    max_count: int
    ratio_to_cuberoot: float

    def to_json(self) -> dict:
        from .grammar import poly_text
        return {
            "size_I": self.size_i,
            "norm_f": self.norm_f,
            "max_count": self.max_count,
            "ratio_to_cuberoot": self.ratio_to_cuberoot,
            "rows": [{"lambda": poly_text(lam), "count": c}
                     for lam, c in self.rows],
        }


def ninth_window_scan(I: Interval, f, force: bool = False) -> NinthWindowReport:
    """Counts N_lambda for every lambda realized with a unit b in the box.

    Requires |I|**9 <= |f| (the window where the census is meaningful);
    pass force=True to explore outside it.  For each realized class,
    N_lambda adds the unit-b pairs of that ratio and the pairs with both
    coordinates divisible by f (those satisfy every class).
    """
    ring = ResidueRing.of(f)
    if not force and I.size ** 9 > ring.size:
        raise PolyboxError("box too large: need |I|^9 <= |f| (use force)")
    (keys, counts), _, both = _ratio_classes(I, ring)
    rows = sorted(((ring.from_index(k), v + both)
                   for k, v in zip(keys.tolist(), counts.tolist())),
                  key=lambda kv: sort_key(kv[0]))
    max_count = max((c for _, c in rows), default=0)
    ratio = (max_count / I.size ** (1.0 / 3.0)) if rows else 0.0
    return NinthWindowReport(size_i=I.size, norm_f=ring.size,
                             rows=tuple(rows), max_count=max_count,
                             ratio_to_cuberoot=ratio)


# -- extremal family --

def extremal_count(I: Interval) -> int:
    """|{x : (x^2, x^3) lands in I^2}| for a base-0 box: q**(floor(n/3)+1).

    Each witness pair satisfies a^3 = b^2 identically, hence lies in the
    lambda = 1 class modulo every f.
    """
    if I.base:
        raise ValueError("extremal closed form needs a base-0 box")
    return I.field.q ** (I.bound // 3 + 1)


def extremal_witnesses(I: Interval):
    """The witnesses (x^2, x^3) themselves, for cross-checks."""
    if I.base:
        raise ValueError("extremal closed form needs a base-0 box")
    from .intervals import zero_interval
    for x in zero_interval(I.field, I.bound // 3):
        yield (x ** 2, x ** 3)
