"""W-set determinants, divisibility diagnostics, and interpolation.

A W-set is an ordered family of bivariate forms containing the constant 1.
For a tuple of points the W-matrix is (F_i(P_j)); its determinant is a
polynomial in F_q[T].  When two tuple entries are congruent modulo an
irreducible f the corresponding matrix columns are congruent, so column
differences show f**kappa divides the determinant, where kappa counts
residue collisions.  The module verifies that divisibility exhaustively,
checks the exact expected-distinct-residues identity, interpolates a
degree-d form through given points from the minors of the monomial
matrix, and measures incidence maxima of W-curves on a point set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import numpy as np

from .curves import BivarPoly, bivar
from .errors import BudgetExceededError
from .linalg import det_bareiss, kernel_vector
from .poly import Poly, one, valuation, zero
from .residues import ResidueRing, residue_classes


# -- W-sets --

@dataclass(frozen=True)
class WSet:
    """Ordered family of bivariate forms; must contain the constant 1."""

    forms: tuple
    grid_params: tuple | None = None   # (d, M) when built by wset_grid

    def __post_init__(self):
        if not self.forms:
            raise ValueError("empty W-set")
        fld = self.forms[0].field
        const = bivar(fld, {(0, 0): 1})
        if const not in self.forms:
            raise ValueError("W-set must contain the constant form 1")
        if len(set(self.forms)) != len(self.forms):
            raise ValueError("W-set forms must be pairwise distinct")

    @property
    def field(self):
        return self.forms[0].field

    @property
    def omega(self) -> int:
        return len(self.forms)

    @property
    def total_degree(self) -> int:
        """Sum of the total degrees of all forms (the set's d_W)."""
        return sum(int(F.deg) for F in self.forms)


def wset_grid(field, d: int, M: int) -> WSet:
    """Monomials X^i Y^j with i <= d, j <= M, in (i, j) lexicographic order.

    Size (d+1)(M+1); total degree (d+1)(M+1)(d+M)/2.
    """
    if d < 0 or M < 0:
        raise ValueError("grid parameters must be >= 0")
    forms = tuple(bivar(field, {(i, j): 1})
                  for i in range(d + 1) for j in range(M + 1))
    return WSet(forms=forms, grid_params=(d, M))


def wset_linear(field) -> WSet:
    """The family {1, X, Y} (lines)."""
    return WSet(forms=(bivar(field, {(0, 0): 1}),
                       bivar(field, {(1, 0): 1}),
                       bivar(field, {(0, 1): 1})))


def _w_matrix(W: WSet, pts) -> list:
    """The W-matrix (F_i(P_j)): one row per form, one entry per point."""
    return [[F.evaluate(x, y) for (x, y) in pts] for F in W.forms]


def wset_determinant(W: WSet, points) -> Poly:
    """det(F_i(P_j)) over F_q[T], by fraction-free Bareiss elimination."""
    pts = list(points)
    if len(pts) != W.omega:
        raise ValueError("tuple length must equal the W-set size")
    rows = _w_matrix(W, pts)
    return det_bareiss(rows)


def collision_count(points, f) -> int:
    """Tuple length minus the number of distinct residues mod f (kappa)."""
    pts = list(points)
    return len(pts) - len(residue_classes(pts, ResidueRing.of(f))[0])


# -- exhaustive tuple diagnostics --

@dataclass(frozen=True)
class TupleReport:
    """One tuple's determinant data: admissible means detval != 0."""

    points: tuple
    detval: Poly
    admissible: bool
    kappa: int
    ord: int | None   # ord_f(detval) when admissible, else None


def tuple_report(W: WSet, points, f) -> TupleReport:
    """Determinant, admissibility, collision count and valuation of one
    omega-tuple."""
    ring = ResidueRing.of(f)
    pts = tuple(points)
    det = wset_determinant(W, pts)
    kap = collision_count(pts, ring)
    return TupleReport(points=pts, detval=det, admissible=bool(det),
                       kappa=kap,
                       ord=valuation(det, ring.f) if det else None)


@dataclass(frozen=True)
class OrdReport:
    omega: int
    d_w: int
    tuples_total: int
    tuples_admissible: int
    sum_ord: int
    sum_kappa: int
    passed: bool
    counterexamples: tuple

    def to_json(self) -> dict:
        return {
            "omega": self.omega,
            "d_W": self.d_w,
            "tuples_total": self.tuples_total,
            "tuples_admissible": self.tuples_admissible,
            "sum_ord": self.sum_ord,
            "sum_kappa": self.sum_kappa,
            "pass": self.passed,
            "counterexamples": list(self.counterexamples),
        }


def verify_ord_inequality(W: WSet, S, f, budget: int = 10 ** 6) -> OrdReport:
    """Check ord_f(det) >= kappa for every admissible tuple in S^omega.

    Admissible means a nonzero determinant.  Also accumulates the summed
    forms of both sides.  Mathematically the check cannot fail (congruent
    points give congruent columns); counterexamples would expose a bug.

    A tuple that repeats an index has equal columns and a zero
    determinant, and permuting a tuple only flips the determinant's sign,
    so admissibility, ord_f and kappa are those of the tuple's point-index
    subset: each omega-subset stands for its omega! orderings.
    `tuples_total` and the budget still count all of S^omega.
    """
    from .grammar import poly_text
    ring = ResidueRing.of(f)
    pts = list(S)
    om = W.omega
    total = len(pts) ** om
    if total > budget:
        raise BudgetExceededError("tuple enumeration too large", total, budget)
    res_ids = residue_classes(pts, ring)[1]
    sum_ord = 0
    sum_kappa = 0
    admissible = 0
    failing = {}
    for cols, det in _subset_minors(W, pts):
        if not det:
            continue
        admissible += 1
        kap = om - len({res_ids[j] for j in cols})
        o = valuation(det, ring.f)
        sum_ord += o
        sum_kappa += kap
        if o < kap:
            failing[cols] = (o, kap)
    perms = factorial(om)
    bad = []
    if failing:
        # list every ordering of a failing subset, in S^omega order
        for idx in product(range(len(pts)), repeat=om):
            hit = failing.get(tuple(sorted(idx)))
            if hit is not None:
                bad.append({
                    "tuple": [[poly_text(pts[j][0]), poly_text(pts[j][1])]
                              for j in idx],
                    "ord": hit[0],
                    "kappa": hit[1],
                })
    return OrdReport(omega=om, d_w=W.total_degree, tuples_total=total,
                     tuples_admissible=admissible * perms,
                     sum_ord=sum_ord * perms, sum_kappa=sum_kappa * perms,
                     passed=not bad, counterexamples=tuple(bad))


def _subset_minors(W: WSet, pts):
    """Yield (cols, det): the W-matrix determinant on every omega-subset
    cols of point indices, as an increasing index tuple.

    Layer k holds the minors of the first k W-rows on every k-subset of
    columns, each built from layer k - 1 by Laplace expansion along row k
    (layer 0 is the empty minor 1): about sum_k k * C(|S|, k) polynomial
    products in all.  The last layer is yielded, not stored, so memory
    stays at C(|S|, omega - 1) minors.
    """
    n = len(pts)
    last = W.omega - 1
    minors = {(): one(W.field)}
    for k, row in enumerate(_w_matrix(W, pts)):
        signed = (row, [-a for a in row])   # cofactor sign (-1)**(k + i)
        layer = {}
        for cols in combinations(range(n), k + 1):
            acc = None
            for i, c in enumerate(cols):
                a, m = signed[(k - i) % 2][c], minors[cols[:i] + cols[i + 1:]]
                if a and m:
                    acc = a * m if acc is None else acc + a * m
            if acc is None:
                acc = zero(W.field)
            if k == last:
                yield cols, acc
            else:
                layer[cols] = acc
        minors = layer


# tuples decoded per numpy block; 1 << 15 rows of omega = 6 (1.5 MiB
# blocks) left the process 3 MiB larger for no measurable speed
_TUPLE_CHUNK = 1 << 12


def _distinct_count_sum(ids, omega: int) -> int:
    """Sum over every tuple in range(len(ids))**omega of its number of
    distinct ids, counted exhaustively.

    Tuple t is decoded base len(ids) into a block row of ids; sorting the
    row makes its distinct count one plus its number of steps.  Blocks
    hold _TUPLE_CHUNK x omega int64 entries, so memory does not grow with
    the tuple count; tuple indices must fit int64.
    """
    if omega < 0:
        raise ValueError("omega must be >= 0")
    if omega == 0:
        return 0   # the one empty tuple has no entries
    n = len(ids)
    total = n ** omega
    if total >= 1 << 63:
        raise OverflowError(f"{n}**{omega} tuple indices overflow int64")
    id_arr = np.asarray(ids, dtype=np.int64)
    acc = 0
    for start in range(0, total, _TUPLE_CHUNK):
        t = np.arange(start, min(start + _TUPLE_CHUNK, total), dtype=np.int64)
        rows = np.empty((len(t), omega), dtype=np.int64)
        for d in range(omega - 1, -1, -1):
            t, digit = np.divmod(t, n)
            rows[:, d] = id_arr[digit]
        rows.sort(axis=1)
        acc += len(rows) + int(np.count_nonzero(rows[:, 1:] != rows[:, :-1]))
    return acc


@dataclass(frozen=True)
class IdentityReport:
    lhs: Fraction
    rhs: Fraction
    passed: bool


def mean_distinct_identity(S, f, omega: int,
                           budget: int = 10 ** 6) -> IdentityReport:
    """Exact identity: mean distinct residues over S^omega tuples equals
    sum over residues P of 1 - (1 - rho_P)**omega.

    Both sides are exact rationals; equality is an identity of uniform
    sampling with replacement, so `passed` is a self-test of the code.
    """
    ring = ResidueRing.of(f)
    pts = list(S)
    if not pts:
        raise ValueError("empty point set")
    total = len(pts) ** omega
    if total > budget:
        raise BudgetExceededError("tuple enumeration too large", total, budget)
    ids = residue_classes(pts, ring)[1]
    lhs = Fraction(_distinct_count_sum(ids, omega), total)
    n = len(pts)
    rhs = sum((1 - (1 - Fraction(c, n)) ** omega
               for c in Counter(ids).values()), Fraction(0))
    return IdentityReport(lhs=lhs, rhs=rhs, passed=lhs == rhs)


# -- interpolation --

def monomials_up_to(d: int):
    """Exponent pairs of total degree <= d: degree ascending, X-power
    descending inside a degree (1, X, Y, X^2, XY, Y^2, ...)."""
    if d < 0:
        raise ValueError("form degree d must be >= 0")
    return [(t - j, j) for t in range(d + 1) for j in range(t + 1)]


@dataclass(frozen=True)
class InterpolationProblem:
    points: tuple
    d: int
    monomials: tuple
    matrix: tuple    # rows of Poly, one per point

    @classmethod
    def build(cls, points, d: int) -> "InterpolationProblem":
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("interpolation points must be pairwise distinct")
        monos = tuple(monomials_up_to(d))
        rows = []
        for (x, y) in pts:
            xpow = [one(x.field)]
            for _ in range(d):
                xpow.append(xpow[-1] * x)
            ypow = [one(x.field)]
            for _ in range(d):
                ypow.append(ypow[-1] * y)
            rows.append(tuple(xpow[i] * ypow[j] for (i, j) in monos))
        return cls(points=pts, d=d, monomials=monos, matrix=tuple(rows))

    @property
    def r_d(self) -> int:
        """Point threshold d**2 + 1 of the degree-d interpolation step."""
        return self.d * self.d + 1

    @property
    def n_d(self) -> int:
        """Number of monomials of degree <= d: (d+1)(d+2)/2."""
        return (self.d + 1) * (self.d + 2) // 2

    def kernel(self) -> list:
        """A nonzero coefficient vector g with (matrix) . g = 0."""
        fld = self.points[0][0].field
        return kernel_vector([list(r) for r in self.matrix],
                             len(self.monomials), fld)

    def solve(self) -> BivarPoly:
        fld = self.points[0][0].field
        vec = self.kernel()
        G = BivarPoly(fld, {m: c for m, c in zip(self.monomials, vec) if c})
        for (x, y) in self.points:
            if G.evaluate(x, y):
                raise AssertionError("interpolated form misses a point")
        return G


def interpolate_form(points, d: int) -> BivarPoly:
    """Nonzero degree-<=d form vanishing on all points.

    The coefficient vector is a kernel vector of the monomial-evaluation
    matrix, built from its maximal minors after fraction-free elimination;
    raises FullRankError when no degree-d curve passes through the points.
    """
    return InterpolationProblem.build(points, d).solve()


def proportional(F: BivarPoly, G: BivarPoly) -> bool:
    """True when F and G agree up to a nonzero F_q(T) scalar
    (all 2x2 minors of the stacked coefficient vectors vanish)."""
    if not F or not G:
        return False
    keys = sorted(set(F.terms) | set(G.terms))
    z = zero(F.field)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            fa = F.terms.get(keys[a], z)
            fb = F.terms.get(keys[b], z)
            ga = G.terms.get(keys[a], z)
            gb = G.terms.get(keys[b], z)
            if fa * gb != fb * ga:
                return False
    return True


# -- incidence maxima --

def max_points_on_wcurve(W: WSet, S, budget: int = 10 ** 5) -> int:
    """Max |{P in S : G(P) = 0}| over W-combinations G from point subsets.

    Each (omega-1)-subset of S determines (a kernel of) a W-combination
    vanishing on it; the returned value is exact for that family.
    """
    pts = list(S)
    om = W.omega
    k = min(om - 1, len(pts))
    n_subsets = comb(len(pts), k)
    if n_subsets > budget:
        raise BudgetExceededError("subset enumeration too large",
                                  n_subsets, budget)
    fld = W.field
    values = list(zip(*_w_matrix(W, pts)))   # values[j][i] = F_i(P_j)
    best = 0
    for subset in combinations(values, k):
        vec = kernel_vector(subset, om, fld)
        G = BivarPoly(fld, {})
        for g, Fm in zip(vec, W.forms):
            if g:
                G = G + Fm.scaled(g)
        if not G:
            raise ValueError("W-set forms are linearly dependent over F_q[T]")
        hits = sum(1 for (x, y) in pts if not G.evaluate(x, y))
        best = max(best, hits)
    return best
