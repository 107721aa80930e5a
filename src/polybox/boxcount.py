"""Enumerate curve points inside boxes and measure growth exponents.

Three interchangeable enumeration strategies:

* ``naive``  -- double loop over the box, exact evaluation per pair.
* ``crt``    -- per-x root finding: reduce the curve modulo a set of
  auxiliary irreducibles whose norm product exceeds q**(2B) (B bounds the
  degree of any box value), look roots up in precomputed residue tables,
  lift candidates by CRT, then confirm membership and the exact equation.
  The tables, the x-residue sieve and the lift run on int64 F_p digit
  vectors, on every field.
* ``graph``  -- closed-form walk for c*Y + c'*X^e shapes on base-0 boxes,
  where the viable x-degrees are decided by degree arithmetic alone.

crt and graph read the box as digit rows (`residues.box_digit_rows`) and
build a Poly only for an x, or a pair, that they output.

All strategies return identical point sets; ``auto`` picks by shape and
size.  Residue statistics (the reduction-multiplicity profile of a point
set modulo f) live here too.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, product, repeat

import numpy as np

from .intervals import Interval, zero_interval
from .curves import BivarPoly, root_sets
from .poly import (Poly, horner, monic_irreducibles_of_degree, one, sort_key,
                   zero)
from .residues import (_BLOCK, ResidueRing, box_digit_rows, coeff_rows,
                       convolve, digit_rows, int64_dot_bound, mul_matrix,
                       residue_classes)

_NAIVE_LIMIT = 1 << 8    # pair count up to which the double loop wins (README)
_COMBO_CAP = 4096        # CRT candidate combinations per x before fallback
_MODULUS_SIZE_CAP = 128  # preferred residue-plane size for root tables
_ROWS_PER_PASS = 1 << 16  # x per sieve pass and lift rows per part


@dataclass(frozen=True)
class PointSet:
    """Deduplicated zeros of a curve inside a box, canonically sorted."""

    points: tuple
    curve: BivarPoly
    box: tuple

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _sorted_points(pts) -> tuple:
    return tuple(sorted(set(pts),
                        key=lambda p: (sort_key(p[0]), sort_key(p[1]))))


# -- strategy: naive --

def _naive_points(F: BivarPoly, box_x: Interval, box_y: Interval):
    rows = F.y_coefficients()
    ys = list(box_y)
    out = []
    for x in box_x:
        cs = [horner(row, x) for row in rows]
        out.extend((x, y) for y in ys if not horner(cs, y))
    return out


# -- strategy: graph --

def _graph_shape(F: BivarPoly):
    """(e, c_const, c_prime) for F = c*Y + c'*X^e with constant unit c."""
    keys = set(F.terms)
    if (0, 1) not in keys:
        return None
    cy = F.terms[(0, 1)]
    if cy.degree != 0:
        return None
    rest = keys - {(0, 1)}
    if len(rest) != 1:
        return None
    (e, j0), = rest
    if j0 != 0 or e < 1:
        return None
    return e, cy, F.terms[(e, 0)]


def _graph_applicable(F, box_x, box_y) -> bool:
    return (_graph_shape(F) is not None
            and not box_x.base and not box_y.base)


def _power_rows(fld, xs: np.ndarray, e: int) -> np.ndarray:
    """Digit rows of x**e, e >= 1, for the digit rows xs, by squaring."""
    out = None
    while True:
        if e & 1:
            out = xs if out is None else convolve(fld, out, xs)
        e >>= 1
        if not e:
            return out
        xs = convolve(fld, xs, xs)


def _graph_points(F: BivarPoly, box_x: Interval, box_y: Interval):
    """The pairs (x, ratio * x**e) of the box, x in box order.

    The x of degree <= dmax are read as digit rows of zero_interval(dmax),
    in slices of _BLOCK y digits, and their y come from `convolve`; a Poly
    is built only for a pair that is output."""
    e, cy, cx = _graph_shape(F)
    fld = F.field
    ratio = (-cx).scaled(fld.inv(cy.coeffs[0]))   # y = ratio * x**e
    # deg(ratio * x**e) = deg ratio + e*deg x exactly (single term), so the
    # viable x are those of degree <= dmax, and every constructed pair lies
    # in the box and on the curve; a prefix is re-verified as a tripwire
    # (full equivalence with naive/crt is covered by tests).
    dmax = min(box_x.bound, (box_y.bound - int(ratio.degree)) // e)
    if dmax < 0:
        slices = [np.zeros((1, fld.k), dtype=np.int64)]    # x = 0 alone
    else:
        grid = zero_interval(fld, dmax)
        step = max(1, _BLOCK // ((box_y.bound + 1) * fld.k))
        slices = (box_digit_rows(grid, start, start + step, dmax + 1)
                  for start in range(0, grid.size, step))
    ratio_row = digit_rows(fld, [ratio], len(ratio.coeffs))
    out = []
    for xs in slices:
        ys = convolve(fld, _power_rows(fld, xs, e), ratio_row)
        out.extend(zip(map(Poly, repeat(fld), coeff_rows(fld, xs).tolist()),
                       map(Poly, repeat(fld), coeff_rows(fld, ys).tolist())))
    for x, y in out[:64]:
        if (not box_x.contains(x) or not box_y.contains(y)
                or F.evaluate(x, y)):
            raise AssertionError("graph strategy produced an invalid point")
    return out


# -- strategy: crt --

@lru_cache(maxsize=None)
def _irreducibles(fld, deg) -> tuple:
    """The monic irreducibles of degree deg, in canonical order, listed once
    per (field, degree): polynomials, not rings, so no batch outlives its
    solver."""
    return tuple(monic_irreducibles_of_degree(fld, deg))


class CrtRootSolver:
    """Root tables of F modulo auxiliary irreducibles, with CRT lifting.

    The tables are int64 arrays (`lifts`), one (counts, roots, L) per
    modulus u, each from one `root_sets` call: blocked digit products
    over the whole plane mod u, with no loop over residues.
    `box_candidates` sieves and lifts the digit rows of a whole box;
    `candidates` lifts one x and is the per-x reference.  F_q[T]/(u)
    is an F_p-space of k*deg u digits (`digit_rows`), and the lift is
    F_p-linear on them, y = sum_u roots_u @ L_u mod p.
    """

    def __init__(self, F: BivarPoly, value_degree_bound: int):
        fld = F.field
        self.F = F
        needed = 2 * value_degree_bound + 1
        cap_deg = 1
        while fld.q ** (cap_deg + 1) <= _MODULUS_SIZE_CAP:
            cap_deg += 1
        unused = {}   # degree -> one lazy iterator over its untried moduli

        def pick(d):
            """The next untried modulus of degree d that F does not vanish
            modulo, as a ring, or None; a modulus passed over stays used."""
            if d not in unused:
                unused[d] = (ResidueRing(u, check=False)
                             for u in _irreducibles(fld, d))
            return next((r for r in unused[d] if F.reduce_mod(r)), None)

        moduli = []
        total = 0
        while total < needed:
            # prefer a degree that closes the gap, within the size cap,
            # then the degrees above the cap
            want = min(cap_deg, needed - total)
            degrees = chain(range(want, 0, -1), count(cap_deg + 1))
            ring = next(filter(None, map(pick, degrees)))
            moduli.append(ring)
            total += ring.deg
        self.rings = moduli
        M = one(fld)
        for r in moduli:
            M = M * r.f
        self.M = M
        self.basis = []
        for r in moduli:
            Mi = M // r.f
            inv = r.inv(Mi % r.f)
            self.basis.append((Mi * inv) % M)
        int64_dot_bound(fld.k * M.degree, fld.p)
        # per modulus u: (counts, roots, L), L = mul_matrix(e_u, deg u, M),
        # so the digit rows r of a root lift as r @ L
        self.lifts = [self._root_table(r) + (mul_matrix(e, r.deg, M),)
                      for r, e in zip(moduli, self.basis)]

    def _root_table(self, ring: ResidueRing):
        """The roots y of F(x, y) mod u as int64 arrays (counts, roots): the
        residue x of index i has the digit rows roots[i, :counts[i]].  The
        x-major zeros of root_sets are scattered in place, with no loop
        over residues."""
        xs, ys = root_sets(self.F.reduce_mod(ring), ring)
        counts = np.bincount(xs, minlength=ring.size)
        index = np.zeros((ring.size, max(1, counts.max())), dtype=np.int64)
        index[xs, np.arange(len(xs)) - (np.cumsum(counts) - counts)[xs]] = ys
        return counts, ring.batch().digits[index]

    def candidates(self, x: Poly):
        """Candidate y values for this x, read from the root arrays: () when
        some modulus has no root, None when the combinations exceed
        _COMBO_CAP."""
        fld = self.F.field
        root_lists = []
        for ring, (counts, roots, _) in zip(self.rings, self.lifts):
            i = ring.index(x % ring.f)
            root_lists.append([Poly(fld, y) for y in coeff_rows(
                fld, roots[i, :counts[i]]).tolist()])
        if not all(root_lists):
            return ()
        if math.prod(map(len, root_lists)) > _COMBO_CAP:
            return None
        out = []
        for combo in product(*root_lists):
            y = zero(fld)
            for r, e in zip(combo, self.basis):
                y = y + r * e
            out.append(y % self.M)
        return out

    def box_candidates(self, box_x: Interval, box_y: Interval):
        """(x, ys) for the x of box_x, in box order, with CRT candidates in
        box_y, or (x, None) where candidates() caps; x with no candidate in
        box_y are left out.

        The box is read as digit rows (box_digit_rows), _ROWS_PER_PASS x
        at a time: each modulus u's ResidueBatch reduces and encodes them
        to the indices of x mod u, the root arrays drop x without roots,
        multi-root x expand by np.repeat, and one product per modulus
        lifts every combination.
        Membership is read on the digits above the box bound, and a Poly
        is built only for an x that is yielded.
        """
        fld = self.F.field
        p, k, cap = fld.p, fld.k, _COMBO_CAP
        width = self.M.degree * k
        high = (box_y.bound + 1) * k   # digits of T**(bound+1) and above
        top = digit_rows(fld, [box_y.base], self.M.degree)[0, high:]
        d = box_x.max_degree() + 1
        batches = [ring.batch() for ring in self.rings]
        for start in range(0, box_x.size, _ROWS_PER_PASS):
            X = box_digit_rows(box_x, start, start + _ROWS_PER_PASS, d)
            idx = []
            combos = np.ones(len(X), dtype=np.int64)
            for batch, (counts, _, _) in zip(batches, self.lifts):
                i = batch.encode(batch.reduce(X))
                idx.append(i)
                combos = np.minimum(combos * counts[i], cap + 1)
            found = {int(i): None for i in np.flatnonzero(combos > cap)}
            sel = np.flatnonzero((combos > 0) & (combos <= cap))
            starts = np.cumsum(combos[sel]) - combos[sel]
            for part in np.split(sel, np.flatnonzero(
                    np.diff(starts // _ROWS_PER_PASS)) + 1):
                acc = np.zeros((len(part), width), dtype=np.int64)
                for i, (counts, roots, lift) in zip(idx, self.lifts):
                    res = i[part]
                    n = counts[res]
                    grow = np.repeat(np.arange(len(part)), n)
                    nth = np.arange(len(grow)) - np.repeat(np.cumsum(n) - n, n)
                    acc = acc[grow] + roots[res[grow], nth] @ lift
                    part = part[grow]
                acc %= p
                keep = (acc[:, high:] == top).all(axis=1)
                ys = coeff_rows(fld, acc[keep]).tolist()
                for j, y in zip(part[keep].tolist(), ys):
                    found.setdefault(j, []).append(Poly(fld, y))
            js = sorted(found)
            for j, x in zip(js, coeff_rows(fld, X[js]).tolist()):
                yield Poly(fld, x), found[j]


def _crt_points(F, box_x, box_y, solver):
    """Zeros (x, y) of the box: the solver's CRT candidates in box_y, read
    from the digit rows of box_x (box_candidates), or all of box_y when
    the solver caps the combinations, confirmed exactly."""
    out = []
    for x, cands in solver.box_candidates(box_x, box_y):
        ys = box_y if cands is None else filter(box_y.contains, cands)
        out.extend((x, y) for y in ys if not F.evaluate(x, y))
    return out


# -- public entry points --

def _resolve_strategy(F, box_x, box_y, strategy):
    if strategy != "auto":
        return strategy
    if _graph_applicable(F, box_x, box_y):
        return "graph"
    if box_x.size * box_y.size <= _NAIVE_LIMIT:
        return "naive"
    return "crt"


def enumerate_box_points(F: BivarPoly, box_x: Interval,
                         box_y: Interval | None = None,
                         strategy: str = "auto",
                         _solver: CrtRootSolver | None = None) -> PointSet:
    """All zeros of F in box_x x box_y (box_y defaults to box_x)."""
    if not F:
        raise ValueError("cannot enumerate zeros of the zero polynomial")
    if box_y is None:
        box_y = box_x
    strategy = _resolve_strategy(F, box_x, box_y, strategy)
    if strategy == "graph":
        if not _graph_applicable(F, box_x, box_y):
            raise ValueError("graph strategy needs c*Y + c'*X^e on base-0 boxes")
        pts = _graph_points(F, box_x, box_y)
    elif strategy == "naive":
        pts = _naive_points(F, box_x, box_y)
    elif strategy == "crt":
        solver = _solver
        if solver is None:
            bound = max(box_x.max_degree(), box_y.max_degree())
            solver = CrtRootSolver(F, bound)
        pts = _crt_points(F, box_x, box_y, solver)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return PointSet(points=_sorted_points(pts), curve=F, box=(box_x, box_y))


@dataclass(frozen=True)
class ScanRow:
    n: int
    size: int       # |I| = q**(n+1)
    count: int
    exponent: float  # log |S| / log |I|, 0 when |S| <= 1


@dataclass(frozen=True)
class ExponentScan:
    rows: tuple

    def fitted_exponent(self) -> float:
        """Least-squares slope of log|S| against log|I| (rows with |S|>=1)."""
        pts = [(math.log(r.size), math.log(r.count))
               for r in self.rows if r.count >= 1]
        if len(pts) < 2:
            return 0.0
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        if sxx == 0:
            return 0.0
        sxy = sum((x - mx) * (y - my) for x, y in pts)
        return sxy / sxx


def exponent_scan(F: BivarPoly, ns, base_x: Poly | None = None,
                  base_y: Poly | None = None,
                  strategy: str = "auto") -> ExponentScan:
    """One row per n: box size, point count, and the per-row exponent."""
    ns = sorted(set(int(n) for n in ns))
    if not ns:
        raise ValueError("empty n range")
    fld = F.field
    bx = base_x if base_x is not None else zero(fld)
    by = base_y if base_y is not None else zero(fld)
    solver = None
    rows = []
    for n in ns:
        box_x = Interval(bx, n)
        box_y = Interval(by, n)
        strat = _resolve_strategy(F, box_x, box_y, strategy)
        if strat == "crt" and solver is None:
            top = max(Interval(bx, ns[-1]).max_degree(),
                      Interval(by, ns[-1]).max_degree())
            solver = CrtRootSolver(F, top)
        S = enumerate_box_points(F, box_x, box_y, strategy=strat,
                                 _solver=solver if strat == "crt" else None)
        size = box_x.size
        count = len(S)
        expo = 0.0 if count <= 1 else math.log(count) / math.log(size)
        rows.append(ScanRow(n=n, size=size, count=count, exponent=expo))
    return ExponentScan(rows=tuple(rows))


# -- residue statistics --

@dataclass(frozen=True)
class ResidueProfile:
    """Reduction profile of a point set modulo f."""

    modulus: Poly
    size: int                      # |S|
    counts: dict = dc_field(compare=False)  # (x mod f, y mod f) -> multiplicity

    @property
    def distinct(self) -> int:
        return len(self.counts)

    @property
    def density(self) -> Fraction:
        """Distinct residues divided by |f| (the profile's alpha)."""
        return Fraction(self.distinct, self.modulus.norm)

    def weights(self) -> dict:
        """Residue -> fraction of S reducing to it (the rho values)."""
        return {k: Fraction(v, self.size) for k, v in self.counts.items()}

    def sum_squared_weights(self) -> Fraction:
        return sum((Fraction(v, self.size) ** 2 for v in self.counts.values()),
                   Fraction(0))

    def cauchy_lower_bound(self) -> Fraction:
        """1 / (density * |f|); sum of squared weights never drops below."""
        return 1 / (self.density * self.modulus.norm)

    def cauchy_ok(self) -> bool:
        return self.sum_squared_weights() >= self.cauchy_lower_bound()


def residue_stats(S, f) -> ResidueProfile:
    """Exact multiplicity profile of S modulo irreducible f."""
    points = list(S)
    if not points:
        raise ValueError("residue statistics need a nonempty point set")
    ring = ResidueRing.of(f)
    keys, ids = residue_classes(points, ring)
    counts = {keys[i]: c for i, c in Counter(ids).items()}
    return ResidueProfile(modulus=ring.f, size=len(points), counts=counts)
