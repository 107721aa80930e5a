"""Box enumeration strategies, exponent tables, residue profiles."""

import random
from fractions import Fraction
from itertools import product

import pytest

from polybox import (GF, BivarPoly, Interval, Poly, bivar, constant,
                     enumerate_box_points, exponent_scan, one,
                     random_irreducible, residue_stats, zero, zero_interval)
from polybox import boxcount
from polybox.boxcount import (CrtRootSolver, _crt_points, _graph_points,
                              _graph_shape)
from polybox.poly import T as T_of, random_poly
from polybox.residues import ResidueRing, coeff_rows, residue_classes


def _parabola(field):
    return bivar(field, {(0, 1): 1, (2, 0): -1 % field.p})


def _monomial_curve(field, d):
    return bivar(field, {(0, 1): 1, (d, 0): -1 % field.p})


def _rand_bivar(field, max_exp, max_tdeg, rng):
    terms = {}
    for i in range(max_exp + 1):
        for j in range(max_exp + 1 - i):
            if rng.random() < 0.5:
                c = random_poly(field, max_tdeg, rng)
                if c:
                    terms[(i, j)] = c
    F = BivarPoly(field, terms)
    return F if F else _rand_bivar(field, max_exp, max_tdeg, rng)


# -- enumeration --

def test_enumerate_parabola_q2(F2):
    S = enumerate_box_points(_parabola(F2), zero_interval(F2, 4))
    assert len(S) == 8
    for (x, y) in S:
        assert y == x * x and x.degree <= 2


def test_enumerate_constant_curve_empty(F2):
    S = enumerate_box_points(bivar(F2, {(0, 0): 1}), zero_interval(F2, 2))
    assert len(S) == 0


def test_enumerate_zero_curve_rejected(F2):
    with pytest.raises(ValueError):
        enumerate_box_points(BivarPoly(F2, {}), zero_interval(F2, 1))


def test_monomial_closed_form(F3):
    for d in (2, 3):
        for n in range(0, 7):
            S = enumerate_box_points(_monomial_curve(F3, d),
                                     zero_interval(F3, n))
            assert len(S) == 3 ** (n // d + 1)


def test_strategy_equivalence_exhaustive_small():
    # all monomial-support shapes with 0/1/T coefficients, q in {2, 3}
    for q in (2, 3):
        F = GF(q)
        coeff_opts = [zero(F), one(F), T_of(F)]
        supports = [(0, 1), (1, 0), (2, 0), (1, 1), (0, 2)]
        rng = random.Random(q)
        for mask in range(1, 2 ** len(supports)):
            terms = {}
            for b, key in enumerate(supports):
                if mask >> b & 1:
                    c = coeff_opts[rng.randrange(1, 3)]
                    terms[key] = c
            C = BivarPoly(F, terms)
            for n in (0, 1, 2):
                box = zero_interval(F, n)
                a = enumerate_box_points(C, box, strategy="naive").points
                b = enumerate_box_points(C, box, strategy="crt").points
                assert a == b


def test_strategy_equivalence_random_larger():
    rng = random.Random(101)
    for _ in range(100):
        q = rng.choice([2, 3])
        F = GF(q)
        C = _rand_bivar(F, 3, 1, rng)
        n = rng.randrange(2, 5) if q == 2 else rng.randrange(2, 4)
        base = random_poly(F, rng.randrange(0, 3), rng)
        box_x = Interval(base, n)
        box_y = Interval(random_poly(F, 2, rng), n)
        a = enumerate_box_points(C, box_x, box_y, strategy="naive").points
        b = enumerate_box_points(C, box_x, box_y, strategy="crt").points
        assert a == b


def test_strategy_equivalence_extension_fields(F4, F9):
    # k > 1 field arithmetic on shifted boxes: bases of degree up to 2
    rng = random.Random(404)
    for F, n in ((F4, 2), (F9, 1)):
        for _ in range(3):
            C = _rand_bivar(F, 3, 1, rng)
            box_x = Interval(random_poly(F, 2, rng), n)
            box_y = Interval(random_poly(F, 2, rng), n)
            a = enumerate_box_points(C, box_x, box_y, strategy="naive").points
            b = enumerate_box_points(C, box_x, box_y, strategy="crt").points
            assert a == b


def test_graph_strategy_matches_naive(F2, F3, F5):
    max_n = {2: 4, 3: 3, 5: 2}
    for F in (F2, F3, F5):
        t = T_of(F)
        curves = [
            _monomial_curve(F, 2),
            _monomial_curve(F, 3),
            bivar(F, {(0, 1): 2 % F.p if F.p > 2 else 1, (2, 0): t}),
            bivar(F, {(0, 1): 1, (1, 0): t * t + one(F)}),
        ]
        for C in curves:
            for n in range(max_n[F.q] + 1):
                box = zero_interval(F, n)
                g = enumerate_box_points(C, box, strategy="graph").points
                nv = enumerate_box_points(C, box, strategy="naive").points
                assert g == nv


def test_graph_strategy_guard(F2):
    with pytest.raises(ValueError):
        enumerate_box_points(bivar(F2, {(1, 1): 1}), zero_interval(F2, 1),
                             strategy="graph")


def _graph_points_reference(F, box_x, box_y):
    """The graph strategy one x at a time in Poly arithmetic: the
    reference for the digit-row _graph_points, in the same order."""
    e, cy, cx = _graph_shape(F)
    fld = F.field
    ratio = (-cx).scaled(fld.inv(cy.coeffs[0]))   # y = ratio * x**e
    # deg(ratio * x**e) = deg ratio + e*deg x exactly (single term), so the
    # viable x are those of degree <= dmax, and every constructed pair lies
    # in the box and on the curve; a prefix is re-verified as a tripwire
    # (full equivalence with naive/crt is covered by tests).
    dmax = min(box_x.bound, (box_y.bound - int(ratio.degree)) // e)
    cands = zero_interval(fld, dmax) if dmax >= 0 else [zero(fld)]
    scale_unit = ratio.coeffs == (fld.one,)
    out = []
    for x in cands:
        xe = x * x
        if e == 3:
            xe = xe * x
        elif e == 4:
            xe = xe * xe
        elif e != 2:
            xe = x ** e
        y = xe if scale_unit else ratio * xe
        if len(out) < 64 and (not box_x.contains(x)
                              or not box_y.contains(y)
                              or F.evaluate(x, y)):
            raise AssertionError("graph strategy produced an invalid point")
        out.append((x, y))
    return out


def test_graph_points_match_reference(F2, F3, F4, F9, monkeypatch):
    # digit-row graph points == the Poly loop, list-equal in box order, on
    # prime and extension fields: every power e = 1..5, unit, non-unit
    # constant and degree 1-2 ratios, box_y narrower than box_x, and
    # ratios of degree above box_y.bound (only x = 0 is viable); a 20-entry
    # block reads the x in several slices
    rng = random.Random(29)
    beyond = 0
    for F, block in product((F2, F3, F4, F9), (boxcount._BLOCK, 20)):
        monkeypatch.setattr(boxcount, "_BLOCK", block)
        ratios = [one(F),
                  Poly(F, [rng.randrange(F.q), rng.randrange(1, F.q)]),
                  Poly(F, [rng.randrange(F.q), rng.randrange(F.q),
                           rng.randrange(1, F.q)])]
        if F.q > 2:
            ratios.append(constant(F, rng.randrange(2, F.q)))
        for ratio in ratios:
            for e in range(1, 6):
                c = rng.randrange(1, F.q)
                C = bivar(F, {(0, 1): c, (e, 0): -ratio.scaled(c)})
                for bx, by in ((2, 2), (3, 1)):
                    box_x, box_y = zero_interval(F, bx), zero_interval(F, by)
                    beyond += ratio.degree > by
                    assert (_graph_points(C, box_x, box_y)
                            == _graph_points_reference(C, box_x, box_y))
    assert beyond


def test_crt_solver_norm_product_exceeds_window(F2):
    C = _rand_bivar(F2, 3, 1, random.Random(4))
    solver = CrtRootSolver(C, value_degree_bound=6)
    total = sum(r.deg for r in solver.rings)
    assert total >= 2 * 6 + 1
    assert len({r.f for r in solver.rings}) == len(solver.rings)


# (q, curve terms (i, j) -> coefficient list, value-degree bound) and the
# moduli the solver picked for them when the picker was rewritten; the
# choice fixes every crt table, so it must not drift
_PINNED_MODULI = [
    (2, {(0, 2): [1], (3, 0): [1], (1, 0): [0, 1], (0, 0): [1, 1]}, 12,
     [(1, 0, 0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 1, 0, 0, 1),
      (1, 0, 0, 0, 1, 1, 1, 1), (1, 0, 0, 1, 1)]),
    (2, {(0, 1): [1, 1, 1], (1, 0): [1, 1, 1]}, 3,
     [(1, 0, 0, 0, 0, 0, 1, 1)]),
    # T*(Y + X^2): T is passed over for T + 1
    (2, {(0, 1): [0, 1], (2, 0): [0, 1]}, 7,
     [(1, 0, 0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 1, 0, 0, 1), (1, 1)]),
    # (T^2 + T)*(Y + X^2) vanishes mod both degree-1 moduli: degree 8
    (2, {(0, 1): [0, 1, 1], (2, 0): [0, 1, 1]}, 7,
     [(1, 0, 0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 1, 0, 0, 1),
      (1, 0, 0, 0, 1, 1, 0, 1, 1)]),
    (3, {(0, 2): [1], (3, 0): [2], (1, 0): [0, 2], (0, 0): [2, 2]}, 6,
     [(1, 0, 1, 1, 1), (1, 0, 1, 2, 1), (1, 1, 0, 2, 1), (0, 1)]),
    (3, {(0, 1): [0, 1], (2, 0): [0, 2]}, 4,
     [(1, 0, 1, 1, 1), (1, 0, 1, 2, 1), (1, 1)]),
    (4, {(0, 2): [1], (1, 1): [1], (3, 0): [1], (0, 0): [0, 0, 1]}, 5,
     [(1, 0, 1, 1), (1, 0, 2, 1), (1, 0, 3, 1), (1, 2, 1)]),
    (5, {(0, 1): [0, 1], (3, 0): [4], (0, 0): [4, 0, 0, 4]}, 3,
     [(1, 0, 1, 1), (1, 0, 2, 1), (0, 1)]),
    (9, {(0, 2): [0, 1, 1], (2, 0): [0, 8], (0, 0): [8]}, 2,
     [(1, 3, 1), (1, 5, 1), (0, 1)]),
]


@pytest.mark.parametrize("q, terms, bound, moduli", _PINNED_MODULI)
def test_crt_moduli_pinned(q, terms, bound, moduli):
    F = GF(q)
    C = BivarPoly(F, {k: Poly(F, v) for k, v in terms.items()})
    assert [r.f.coeffs for r in CrtRootSolver(C, bound).rings] == moduli


def test_root_tables_match_python_roots(F2, F3, F5, F4, F9):
    # the int64 root arrays against the definition: y is a root at x mod
    # u when u divides F(x, y); Y-degree up to 3 gives residues with
    # several roots
    rng = random.Random(55)
    multi = 0
    for F, bound in ((F2, 2), (F3, 1), (F5, 1), (F4, 2), (F9, 1)):
        for _ in range(4):
            C = _rand_bivar(F, 3, 1, rng)
            solver = CrtRootSolver(C, bound)
            for ring, (counts, roots, _) in zip(solver.rings, solver.lifts):
                res = list(ring.elements())
                table = {x.coeffs: tuple(Poly(F, y) for y in
                                         coeff_rows(F, r[:n]).tolist())
                         for x, n, r in zip(res, counts, roots) if n}
                want = {}
                for x in res:
                    roots = tuple(y for y in res
                                  if not C.evaluate(x, y) % ring.f)
                    if roots:
                        want[x.coeffs] = roots
                assert table == want
                multi += sum(len(r) > 1 for r in table.values())
    assert multi


def _per_x_points(C, box_x, box_y, solver):
    """The reference crt loop: candidates() one x at a time.  Also the
    per-x map box_candidates() must give: None where capped, else the
    candidates in box_y, and no entry for x without any."""
    out, capped, expanded, per_x = [], 0, 0, {}
    for x in box_x:
        cands = solver.candidates(x)
        capped += cands is None
        expanded += cands is not None and len(cands) > 1
        inside = None if cands is None else list(filter(box_y.contains,
                                                        cands))
        if inside != []:
            per_x[x] = inside
        ys = box_y if inside is None else inside
        out.extend((x, y) for y in ys if not C.evaluate(x, y))
    return out, capped, expanded, per_x


def test_crt_batch_matches_candidates_and_naive(F2, F3, F5, F4, F9,
                                                monkeypatch):
    # the batched lift == per-x candidates() == naive, on shifted boxes;
    # Y^2 = X^3 + aX + b in odd characteristic has two roots modulo many
    # moduli, and a _COMBO_CAP of 2 sends those x to the fallback, on prime
    # and on extension fields; at 5 rows per pass the same corpus also takes
    # several x passes and splits the lift rows; per x, box_candidates()
    # falls back exactly where candidates() does
    for rows_per_pass in (boxcount._ROWS_PER_PASS, 5):
        monkeypatch.setattr(boxcount, "_ROWS_PER_PASS", rows_per_pass)
        rng = random.Random(66)
        capped, expanded = {}, {}
        for F, n in ((F2, 3), (F3, 2), (F5, 1), (F4, 2), (F9, 1)):
            t = T_of(F)
            curves = [_rand_bivar(F, 3, 1, rng) for _ in range(3)]
            if F.p > 2:
                curves.append(bivar(F, {(0, 2): 1, (3, 0): -1 % F.p,
                                        (1, 0): -t, (0, 0): -(t + one(F))}))
            for C in curves:
                for cap in (4096, 2):
                    monkeypatch.setattr(boxcount, "_COMBO_CAP", cap)
                    box_x = Interval(random_poly(F, 2, rng), n)
                    box_y = Interval(random_poly(F, 2, rng), n)
                    bound = max(box_x.max_degree(), box_y.max_degree())
                    solver = CrtRootSolver(C, bound)
                    got = _crt_points(C, box_x, box_y, solver)
                    ref, c, e, per_x = _per_x_points(C, box_x, box_y,
                                                     solver)
                    assert dict(solver.box_candidates(box_x, box_y)) == per_x
                    capped[F.k > 1] = capped.get(F.k > 1, 0) + c
                    expanded[F.k > 1] = expanded.get(F.k > 1, 0) + e
                    assert sorted(got, key=str) == sorted(ref, key=str)
                    naive = enumerate_box_points(C, box_x, box_y,
                                                 strategy="naive").points
                    assert set(got) == set(naive)
        assert all(capped[ext] and expanded[ext] for ext in (False, True))


def test_crt_box_passes_at_pass_boundaries(F2, F3, F4, F9, monkeypatch):
    # box_candidates reads box_x in passes of _ROWS_PER_PASS digit rows:
    # box sizes at, one below and one above a multiple of the pass size,
    # on bases of degree above the box bound, against the per-x map and
    # naive; (Y - X - h)(Y - X - h') has two points at every x of the box
    rng = random.Random(93)
    seen, found = set(), 0
    for F, n in ((F2, 2), (F2, 3), (F3, 1), (F3, 2), (F4, 1), (F9, 1)):
        t = T_of(F)
        base = random_poly(F, n, rng) + t ** (n + 2)
        h = random_poly(F, n + 1, rng)
        lines = [bivar(F, {(0, 1): 1, (1, 0): -1 % F.p, (0, 0): -g})
                 for g in (h, h + random_poly(F, n, rng))]
        for C in (_rand_bivar(F, 3, 1, rng), lines[0] * lines[1]):
            box_x = Interval(base, n)
            box_y = Interval(base + h, n)
            solver = CrtRootSolver(C, box_x.max_degree())
            _, _, _, per_x = _per_x_points(C, box_x, box_y, solver)
            naive = enumerate_box_points(C, box_x, box_y,
                                         strategy="naive").points
            found += len(naive)
            size = box_x.size
            for rows in {size - 1, size, size + 1, size // 2,
                         (size + 1) // 2, (size - 1) // 2} - {0, 1}:
                seen |= {(where, size > rows) for where, shift
                         in (("at", 0), ("below", 1), ("above", -1))
                         if (size + shift) % rows == 0}
                monkeypatch.setattr(boxcount, "_ROWS_PER_PASS", rows)
                assert dict(solver.box_candidates(box_x, box_y)) == per_x
                assert enumerate_box_points(C, box_x, box_y, strategy="crt",
                                            _solver=solver).points == naive
    assert {(where, True) for where in ("at", "below", "above")} <= seen
    assert found


def test_enumerate_monotone_in_n(F2):
    rng = random.Random(31)
    for _ in range(10):
        C = _rand_bivar(F2, 3, 1, rng)
        sizes = [len(enumerate_box_points(C, zero_interval(F2, n)))
                 for n in range(4)]
        assert sizes == sorted(sizes)


# -- exponent scan --

def test_exponent_scan_rows(F2):
    scan = exponent_scan(_parabola(F2), range(1, 11))
    by_n = {r.n: r for r in scan.rows}
    assert (by_n[4].size, by_n[4].count) == (32, 8)
    assert by_n[4].exponent == pytest.approx(0.6)
    assert by_n[10].exponent == pytest.approx(6 / 11)
    # closed form q**(floor(n/2)+1) throughout
    for r in scan.rows:
        assert r.count == 2 ** (r.n // 2 + 1)


def test_exponent_scan_zero_rows(F2):
    # a curve with no small zeros: X*Y = 1 has none with x=0... use 1+X*Y
    C = bivar(F2, {(1, 1): 1, (0, 0): 1})
    scan = exponent_scan(C, [0])
    assert scan.rows[0].count in (0, 1) or scan.rows[0].exponent > 0
    empty = [r for r in scan.rows if r.count <= 1]
    for r in empty:
        assert r.exponent == 0.0


def test_fitted_exponent_closed_form(F2):
    scan = exponent_scan(_monomial_curve(F2, 2), range(6, 13))
    assert scan.fitted_exponent() == pytest.approx(0.5, abs=1e-12)


# -- residue stats --

def test_residue_stats_distinct(F2):
    f = Poly(F2, [1, 1, 0, 1])
    pts = [(Poly(F2, [0, 1]), zero(F2)), (one(F2), one(F2)),
           (Poly(F2, [1, 1]), Poly(F2, [0, 1]))]
    prof = residue_stats(pts, f)
    assert prof.distinct == 3
    assert all(w == Fraction(1, 3) for w in prof.weights().values())
    assert prof.density == Fraction(3, 8)
    assert sum(prof.weights().values()) == 1


def test_residue_stats_collision(F2):
    f = T_of(F2)
    pts = [(zero(F2), zero(F2)), (T_of(F2), zero(F2))]
    prof = residue_stats(pts, f)
    assert prof.distinct == 1
    assert list(prof.weights().values()) == [Fraction(1, 1)]


def test_residue_stats_empty_rejected(F2):
    with pytest.raises(ValueError):
        residue_stats([], T_of(F2))


def test_residue_classes_first_appearance(F2):
    t, o, z = T_of(F2), one(F2), zero(F2)
    pts = [(t, o), (z, o), (t, t), (o, z), (z, t)]
    keys, ids = residue_classes(pts, ResidueRing(t))
    assert keys == [(z, o), (z, z), (o, z)]
    assert ids == [0, 0, 1, 2, 1]


def test_cauchy_bound_random_profiles():
    rng = random.Random(77)
    for _ in range(40):
        q = rng.choice([2, 3])
        F = GF(q)
        f = random_irreducible(F, rng.randrange(1, 4), rng.randrange(5))
        pts = {(random_poly(F, 3, rng), random_poly(F, 3, rng))
               for _ in range(rng.randrange(1, 8))}
        prof = residue_stats(list(pts), f)
        assert prof.cauchy_ok()
        assert sum(prof.weights().values()) == 1
