"""The four seeded workloads: inputs, operations and their checks.

A workload is a list of operations, run in order as one round.  Each
operation is one experiment a researcher would run (a box scan, a
determinant corpus, a census, a CLI run and its replay); it calls polybox
through module attributes looked up at call time, so the tracer's
wrappers see every call.  Each operation has a check that compares the
result with a computation from `oracles` (or with an exact property of
the method) and raises `CheckFailed` on a mismatch.  Oracle values are
computed on the first check and kept, outside every timed section.

Inputs come from random.Random(f"{workload}:{seed}") only; polybox
receives the generated polynomials, curves, boxes and command lines.

Every workload keeps one "anchor" kind of operation that is at least half
of the round, with other kinds both cheaper and dearer, so the median
operation is always an anchor and op_p50_s does not hop between classes.
"""

from __future__ import annotations

import importlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles as O

from polybox import (boxcount, cli, curves, detmethod, elliptic, ffield,
                     intervals, residues)

poly = importlib.import_module("polybox.poly")   # the package exports a
                                                 # function of that name


class CheckFailed(AssertionError):
    """A program output disagrees with its oracle."""


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str                        # class of experiment, for cost tables
    run: Callable[[], object]
    check: Callable[[object], None]
    warm: bool = False               # part of the set-up warm-up


def once(fn):
    """Memoize a zero-argument oracle computation."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


# -- conversions between polybox objects and oracle lists --

def ofield(F) -> O.Field:
    return O.Field(F.p, F.modulus)


def P(F, coeffs) -> "poly.Poly":
    return poly.Poly(F, coeffs)


def L(a) -> list:
    return list(a.coeffs)


def rand_poly(rng, q: int, max_deg: int) -> list:
    return O.trim([rng.randrange(q) for _ in range(max_deg + 1)])


def rand_exact(rng, q: int, d: int) -> list:
    """A random polynomial of degree exactly d (keeps costs seed-stable)."""
    return [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]


def rand_nonzero(rng, q: int, max_deg: int) -> list:
    while True:
        a = rand_poly(rng, q, max_deg)
        if a:
            return a


def poly_text(OF: O.Field, a: list) -> str:
    """polybox's documented text grammar for a polynomial."""
    if OF.k > 1:
        return json.dumps([OF.digits(c) for c in a], separators=(",", ":"))
    if not a:
        return "0"
    terms = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if not c:
            continue
        t = "" if e == 0 else ("T" if e == 1 else f"T^{e}")
        terms.append(str(c) if not t else (t if c == 1 else f"{c}*{t}"))
    return "+".join(terms)


def parse_text(OF: O.Field, text: str) -> list:
    """Inverse of poly_text."""
    if OF.k > 1:
        return O.trim([OF.undigits(ds) for ds in json.loads(text)])
    out: dict = {}
    if text != "0":
        for term in text.split("+"):
            c, _, t = term.rpartition("*") if "*" in term else ("", "", term)
            if t.startswith("T"):
                e = int(t[2:]) if t.startswith("T^") else 1
                c = int(c) if c else 1
            else:
                e, c = 0, int(t)
            out[e] = c % OF.p
    return O.trim([out.get(e, 0) for e in range(max(out, default=-1) + 1)])


def curve_text(OF: O.Field, terms: dict) -> str:
    """'(c)*X^i*Y^j' terms joined by '+', for polybox's curve grammar."""
    parts = []
    for (i, j), c in sorted(terms.items(), reverse=True):
        mono = [m for m in (("X" if i == 1 else f"X^{i}") if i else "",
                            ("Y" if j == 1 else f"Y^{j}") if j else "") if m]
        parts.append("*".join([f"({poly_text(OF, c)})"] + mono))
    return "+".join(parts)


def bivar(F, terms: dict):
    return curves.BivarPoly(F, {k: P(F, c) for k, c in terms.items() if c})


def weierstrass_terms(OF: O.Field, a: list, b: list) -> dict:
    """Y^2 = X^3 + aX + b as the zero set of Y^2 - X^3 - aX - b."""
    return {(0, 2): [1], (3, 0): O.pneg(OF, [1]), (1, 0): O.pneg(OF, a),
            (0, 0): O.pneg(OF, b)}


def graph_terms(OF: O.Field, c: list, d: int, h: list) -> dict:
    """Y = c X^d + h as the zero set of Y - c X^d - h."""
    return {(0, 1): [1], (d, 0): O.pneg(OF, c), (0, 0): O.pneg(OF, h)}


# -- CLI runs --

def _canonical(path: Path) -> bytes:
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        doc.pop("timestamp", None)
        return json.dumps(doc, sort_keys=True, indent=2).encode()
    return path.read_bytes()


def cli_op(kind: str, argv: list, workdir: Path,
           check_report: Callable[[dict, dict], None], warm=False) -> Op:
    """One CLI run plus the replay of its report, as one operation.

    The check wants exit code 0 twice, byte-identical outputs (timestamp
    aside) and a report that passes check_report(report, manifest)."""
    first, second = workdir / kind / "run", workdir / kind / "replay"

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv + ["--outdir", str(first)])
            written = [line[len("wrote: "):]
                       for line in buf.getvalue().splitlines()
                       if line.startswith("wrote: ")]
            reports = [w for w in written if w.endswith(".json")]
            replay = (cli.main(["replay", reports[0], "--outdir", str(second)])
                      if code == 0 and reports else None)
        return code, replay, [Path(w) for w in written]

    def check(result):
        code, replay, written = result
        expect(code == 0 and replay == 0,
               f"{kind}: exit codes {code}, {replay}")
        for path in written:
            expect(_canonical(path) == _canonical(second / path.name),
                   f"{kind}: replay of {path.name} differs")
        doc = json.loads(next(p for p in written
                              if p.suffix == ".json").read_text())
        check_report(doc["report"], doc["manifest"])

    return Op(kind, run, check, warm)


# -- box-scan --

def box_scan(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"box-scan:{seed}")
    ops = []
    F2, F3 = ffield.GF(2), ffield.GF(3)
    O2, O3 = ofield(F2), ofield(F3)

    # anchor: GF(3) graphs Y = c X^2 + h on shifted boxes, naive for
    # n = 3, 4 and crt for n = 5
    for _ in range(4):
        ops.append(_shifted_scan(rng, F3, O3, 2, range(3, 6)))

    # GF(2) Weierstrass cubics: n = 7 is the last naive box, n = 8 takes crt
    for _ in range(2):
        a = rand_poly(rng, 2, 2)
        b = rand_nonzero(rng, 2, 2)
        ops.append(_weierstrass_scan(F2, O2, a, b, range(7, 9)))

    # base-0 monomials u*Y = w*X^d (units u, w): the graph strategy
    ops.append(_monomial_scans(rng, [(F2, 2, range(6, 19)),
                                     (F3, 3, range(6, 19))]))

    # one CLI exponent scan of a shifted graph curve, and its replay
    c, d, h, bx, by = _shifted_inputs(rng, O3, 2, 3)
    argv = ["exponent-scan", "--q", "3", "--curve",
            curve_text(O3, graph_terms(O3, c, d, h)),
            "--base-x", poly_text(O3, bx), "--base-y", poly_text(O3, by),
            "--n-range", "2..3"]

    def check_cli(report, manifest):
        for row in report["rows"]:
            want = O.graph_box_count(O3, c, d, h, bx, by, row["n"])
            expect(row["count"] == want, f"cli scan n={row['n']}")
    ops.append(cli_op("cli-scan", argv, workdir, check_cli))
    return ops


def _weierstrass_scan(F, OF, a, b, ns) -> Op:
    curve = bivar(F, weierstrass_terms(OF, a, b))
    want = once(lambda: [O.weierstrass_box_count(OF, a, b, [], [], n)
                         for n in ns])

    def check(scan):
        expect([r.count for r in scan.rows] == want(),
               f"weierstrass scan over GF({F.q}): {a} {b}")
    return Op(f"cubic{F.q}",
              lambda: boxcount.exponent_scan(curve, ns), check)


def _shifted_inputs(rng, OF, d, base_deg=4):
    """c, d, h and box bases with deg base_x = base_deg exactly."""
    c = [rng.randrange(1, OF.q)]
    h = rand_poly(rng, OF.q, 2)
    bx = rand_exact(rng, OF.q, base_deg)
    xd = [1]
    for _ in range(d):
        xd = O.pmul(OF, xd, bx)
    by = O.padd(OF, O.pmul(OF, c, xd), h)    # (bx, by) lies on the curve
    return c, d, h, bx, by


def _shifted_scan(rng, F, OF, d, ns, base_deg=4) -> Op:
    c, d, h, bx, by = _shifted_inputs(rng, OF, d, base_deg)
    curve = bivar(F, graph_terms(OF, c, d, h))
    want = once(lambda: [O.graph_box_count(OF, c, d, h, bx, by, n)
                         for n in ns])

    def check(scan):
        expect([r.count for r in scan.rows] == want(),
               f"shifted graph scan over GF({F.q})")
    return Op(f"shifted{F.q}",
              lambda: boxcount.exponent_scan(curve, ns, base_x=P(F, bx),
                                             base_y=P(F, by)), check)


def _monomial_scans(rng, specs) -> Op:
    """Scans of u*Y = w*X^d on base-0 boxes for each (field, d, ns); the
    counts have the closed form q^(floor(n/d) + 1)."""
    jobs = []
    for F, d, ns in specs:
        u, w = rng.randrange(1, F.q), rng.randrange(1, F.q)
        OF = ofield(F)
        jobs.append((F, d, ns, bivar(F, {(0, 1): [u],
                                         (d, 0): O.pneg(OF, [w])})))

    def check(scans):
        for (F, d, ns, _), scan in zip(jobs, scans):
            expect([r.count for r in scan.rows] ==
                   [O.monomial_box_count(F.q, d, n) for n in ns],
                   f"monomial scan over GF({F.q}), d={d}")
    return Op("monomial", lambda: [boxcount.exponent_scan(curve, ns)
                                   for _, _, ns, curve in jobs],
              check, warm=True)


# -- ext-field --

def ext_field(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"ext-field:{seed}")
    ops = []
    F4, F9, F256 = ffield.GF(4), ffield.GF(9), ffield.FiniteField(2, 8)
    O4, O9 = ofield(F4), ofield(F9)

    # anchor: GF(4) Weierstrass cubics, naive at n = 2 and crt at n = 4
    for _ in range(5):
        a, b = rand_poly(rng, 4, 1), rand_nonzero(rng, 4, 1)
        ops.append(_weierstrass_scan(F4, O4, a, b, [2, 4]))

    # GF(9): a cubic (odd characteristic) and a graph on shifted boxes
    a, b = rand_nonzero(rng, 9, 1), rand_nonzero(rng, 9, 1)
    ops.append(_combine("gf9-scans", [
        _weierstrass_scan(F9, O9, a, b, [1, 2]),
        _shifted_scan(rng, F9, O9, 2, [1, 2], base_deg=2)]))

    # point counts mod f (pure-Python paths: the base field is not prime)
    ops.append(_combine("counts", [
        _ext_counts(rng, F4, O4, sep_degs=(3, 4, 5), mixed_degs=(2, 3)),
        _ext_counts(rng, F9, O9, sep_degs=(2, 3), mixed_degs=(2,))]))

    # GF(256), built during set-up: a graph scan and a count mod T + c
    ops.append(_combine("gf256", [
        _monomial_scans(rng, [(F256, 2, range(0, 2))]),
        _ext_counts(rng, F256, ofield(F256), sep_degs=(1,), mixed_degs=())],
        warm=True))

    # CLI runs on extension fields, each followed by its replay
    ops.append(cli_op("cli-count256", ["count-box", "--q", "2", "--ext-k",
                                       "8", "--curve", "Y-X^2", "--n", "1"],
                      workdir, _check_square_points(1)))
    a, b = rand_poly(rng, 4, 1), rand_nonzero(rng, 4, 1)
    argv4 = ["count-box", "--q", "2", "--ext-k", "2", "--curve",
             curve_text(O4, weierstrass_terms(O4, a, b)), "--n", "2"]
    c, d, h, bx, by = _shifted_inputs(rng, O9, 2, 2)
    argv9 = ["exponent-scan", "--q", "3", "--ext-k", "2", "--curve",
             curve_text(O9, graph_terms(O9, c, d, h)),
             "--base-x", poly_text(O9, bx), "--base-y", poly_text(O9, by),
             "--n-range", "1..2"]

    def check_scan9(report, manifest):
        for row in report["rows"]:
            want = O.graph_box_count(O9, c, d, h, bx, by, row["n"])
            expect(row["count"] == want, f"cli GF(9) scan n={row['n']}")
    ops.append(_combine("cli-ext", [
        cli_op("cli-count4", argv4, workdir,
               _check_weierstrass_points(O4, a, b, 2)),
        cli_op("cli-scan9", argv9, workdir, check_scan9)]))
    return ops


def _combine(kind: str, parts: list[Op], warm=False) -> Op:
    """Several small experiments run and checked as one operation."""
    def check(results):
        for op, result in zip(parts, results):
            op.check(result)
    return Op(kind, lambda: [op.run() for op in parts], check, warm)


_manifest_fields: dict = {}


def _manifest_field(manifest) -> O.Field:
    """The oracle field for a report's recorded field (kept per modulus)."""
    fd = manifest["field"]
    key = (fd["p"], tuple(fd.get("modulus") or ()))
    if key not in _manifest_fields:
        _manifest_fields[key] = O.Field(fd["p"], fd.get("modulus"))
    return _manifest_fields[key]


def _check_square_points(n):
    """count-box of Y - X^2 on a base-0 box: every point has y = x^2 and
    there are q^(floor(n/2)+1) of them."""
    def check(report, manifest):
        OF = _manifest_field(manifest)
        expect(report["count"] == O.monomial_box_count(OF.q, 2, n),
               "Y - X^2 count")
        for xt, yt in report["points"]:
            x, y = parse_text(OF, xt), parse_text(OF, yt)
            expect(O.deg(x) <= n and O.pmul(OF, x, x) == y, "Y - X^2 point")
    return check


def _check_weierstrass_points(OF, a, b, n):
    def check(report, manifest):
        expect(report["count"] ==
               O.weierstrass_box_count(OF, a, b, [], [], n),
               "Weierstrass count-box count")
        for xt, yt in report["points"]:
            x, y = parse_text(OF, xt), parse_text(OF, yt)
            rhs = O.padd(OF, O.padd(OF, O.pmul(OF, O.pmul(OF, x, x), x),
                                    O.pmul(OF, a, x)), b)
            expect(O.pmul(OF, y, y) == rhs, "Weierstrass point")
    return check


def _ext_counts(rng, F, OF, sep_degs, mixed_degs) -> Op:
    """count_points_mod of a Weierstrass curve (separable path) and of
    Y^2 + XY = X^3 + b (exhaustive path) modulo seeded irreducibles."""
    a, b = rand_nonzero(rng, F.q, 1), rand_nonzero(rng, F.q, 1)
    sep = weierstrass_terms(OF, a, b)
    mixed = {(0, 2): [1], (1, 1): [1], (3, 0): O.pneg(OF, [1]),
             (0, 0): O.pneg(OF, b)}
    jobs = []
    for terms, degs in ((sep, sep_degs), (mixed, mixed_degs)):
        for dg in degs:
            while True:
                f = O.random_irreducible(OF, dg, rng)
                # keep the reduction a smooth curve where Hasse-Weil is used
                if OF.p == 2 or O.pmod(OF, a, f):
                    break
            jobs.append((terms, f))
    progs = [(bivar(F, t), P(F, f)) for t, f in jobs]

    def want_one(terms, f):
        size = OF.q ** O.deg(f)
        if terms is sep and OF.p == 2:
            return size      # y -> y^2 is a bijection of the residue field
        if size <= 81:
            return O.count_mod_bruteforce(OF, terms, f)
        return None          # checked against the Hasse-Weil window below
    want = once(lambda: [want_one(t, f) for t, f in jobs])

    def check(counts):
        for (terms, f), got, w in zip(jobs, counts, want()):
            size = OF.q ** O.deg(f)
            if w is not None:
                expect(got == w, f"count mod f over GF({OF.q})")
            else:
                expect(O.hasse_weil_ok(got, size), "Hasse-Weil window")
    return Op(f"count{F.q}",
              lambda: [curves.count_points_mod(c, f) for c, f in progs],
              check)


# -- det-corpus --

def det_corpus(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"det-corpus:{seed}")
    F2, F3 = ffield.GF(2), ffield.GF(3)
    O2, O3 = ofield(F2), ofield(F3)
    # anchor: omega = 4 (cofactor determinants) on seven points
    ops = [_ord_op(rng, F, OF, 4, 7) for F, OF in ((F2, O2), (F3, O3))
           for _ in range(6)]
    ops += [_ord_op(rng, F, OF, 6, 6) for F, OF in ((F2, O2), (F3, O3))]
    ops.append(_combine("ord3", [_ord_op(rng, F2, O2, 3, 8),
                                 _ord_op(rng, F3, O3, 3, 8)], warm=True))
    ops.append(_combine("wcurve", [_wcurve_op(rng, F2, O2, 12),
                                   _wcurve_op(rng, F3, O3, 12)]))
    ops.append(_interpolate_op(rng, F3, 12))
    f = O.random_irreducible(O2, rng.randrange(1, 4), rng)
    argv = ["detlab", "ord", "--q", "2", "--omega", "3", "--curve", "Y-X^2",
            "--n", "5", "--f", poly_text(O2, f)]
    ops.append(cli_op("cli-ord", argv, workdir, _check_cli_ord(argv)))
    return ops


def _check_cli_ord(argv):
    """Y = X^2 on the base-0 box of bound n: the points (x, x^2) with
    deg x <= n/2; recount the omega = 3 tuples with the oracle."""
    n = int(argv[argv.index("--n") + 1])
    OF = O.Field(2)
    f = parse_text(OF, argv[argv.index("--f") + 1])
    pts = [(x, O.pmul(OF, x, x)) for x in O.box(OF, [], n // 2)]
    recount = once(lambda: O.ord_recount_linear(OF, pts, f))

    def check(report, manifest):
        want = recount()
        expect(report["pass"] and not report["counterexamples"],
               "detlab ord reported a counterexample")
        expect(report["tuples_total"] == len(pts) ** 3, "detlab ord total")
        expect(report["tuples_admissible"] == want["admissible"]
               and report["sum_ord"] == want["sum_ord"]
               and report["sum_kappa"] == want["sum_kappa"],
               "detlab ord recount")
    return check


def _point_set(rng, OF, size):
    pts = set()
    while len(pts) < size:
        pts.add((tuple(rand_exact(rng, OF.q, 2)),
                 tuple(rand_exact(rng, OF.q, 2))))
    return [(list(x), list(y)) for x, y in sorted(pts)]


def _ord_op(rng, F, OF, omega, size) -> Op:
    pts = _point_set(rng, OF, size)
    f = O.random_irreducible(OF, 2, rng)
    W = {3: lambda: detmethod.wset_linear(F),
         4: lambda: detmethod.wset_grid(F, 1, 1),
         6: lambda: detmethod.wset_grid(F, 1, 2)}[omega]()
    S = [(P(F, x), P(F, y)) for x, y in pts]
    fp = P(F, f)
    recount = once(lambda: O.ord_recount_linear(OF, pts, f))
    mean = once(lambda: O.mean_distinct(OF, pts, f, omega))

    def run():
        return (detmethod.verify_ord_inequality(W, S, fp),
                detmethod.mean_distinct_identity(S, fp, omega))

    def check(result):
        rep, ident = result
        expect(rep.passed and not rep.counterexamples,
               f"ord_f(det) >= kappa failed at omega={omega}")
        expect(rep.tuples_total == size ** omega, "tuple total")
        if omega == 3:
            r = recount()
            expect((rep.tuples_admissible, rep.sum_ord, rep.sum_kappa) ==
                   (r["admissible"], r["sum_ord"], r["sum_kappa"]),
                   "omega = 3 recount")
        lhs, rhs = mean()
        expect(ident.passed and ident.lhs == lhs and ident.rhs == rhs,
               "mean distinct identity")
    return Op(f"ord{omega}", run, check)


def _wcurve_op(rng, F, OF, size) -> Op:
    pts = _point_set(rng, OF, size)
    # put a few points on one line so the maximum is not always 2
    x0, slope, icpt = (rand_poly(rng, OF.q, 2), rand_nonzero(rng, OF.q, 1),
                       rand_poly(rng, OF.q, 1))
    for k in range(3):
        x = O.padd(OF, x0, [k % OF.q, k // OF.q])
        pts[k] = (x, O.padd(OF, O.pmul(OF, slope, x), icpt))
    pts = [(list(x), list(y)) for x, y in sorted({(tuple(x), tuple(y))
                                                  for x, y in pts})]
    S = [(P(F, x), P(F, y)) for x, y in pts]
    want = once(lambda: O.max_collinear(OF, pts))

    def check(value):
        expect(value == want(), "max points on a line")
    return Op("wcurve", lambda: detmethod.max_points_on_wcurve(
        detmethod.wset_linear(F), S), check)


def _interpolate_op(rng, F, count) -> Op:
    """Conic recovery: five points on Y = X^2 + c determine it."""
    OF = ofield(F)
    jobs = []
    for _ in range(count):
        c = rand_poly(rng, OF.q, 1)
        xs = set()
        while len(xs) < 5:
            xs.add(tuple(rand_poly(rng, OF.q, 3)))
        pts = [(list(x), O.padd(OF, O.pmul(OF, list(x), list(x)), c))
               for x in sorted(xs)]
        conic = {(0, 1): [1], (2, 0): O.pneg(OF, [1]), (0, 0): O.pneg(OF, c)}
        jobs.append((pts, conic))
    progs = [[(P(F, x), P(F, y)) for x, y in pts] for pts, _ in jobs]

    def check(forms):
        for (pts, conic), G in zip(jobs, forms):
            g = {k: L(v) for k, v in G.terms.items()}
            expect(all(not O.curve_eval(OF, g, x, y) for x, y in pts),
                   "interpolated form misses a point")
            expect(O.proportional(OF, g, {k: v for k, v in conic.items()
                                          if v}),
                   "interpolated form is not the conic")
    return Op("interpolate",
              lambda: [detmethod.interpolate_form(p, 2) for p in progs], check)


# -- ec-census --

def ec_census(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"ec-census:{seed}")
    F2, F3, F5 = ffield.GF(2), ffield.GF(3), ffield.GF(5)
    # anchor: sum of N_lambda over all 81 lambda, GF(3), |I| = 27
    ops = [_nlambda_op(rng, F3, 4, 2) for _ in range(6)]
    ops.append(_combine("census", [_census_op(rng, F2, 4, 3),
                                   _census_op(rng, F3, 3, 1)]))
    ops.append(_ninth_op(rng, F2))
    ops.append(_combine("iso", [_iso_op(rng, F3, 4), _iso_op(rng, F5, 3)]))
    ops.append(_pigeon_op(rng))
    ops.append(_combine("weil", [_weil_op(rng, F3, (5, 6)),
                                 _weil_op(rng, F5, (3, 4))], warm=True))

    scan_seed = rng.randrange(1000)
    argv = ["ec", "scan19", "--q", "2", "--n", "1", "--f-deg", "18",
            "--seed", str(scan_seed)]

    def check_cli(report, manifest):
        OF = O.Field(2)
        f = parse_text(OF, manifest["params"]["f"])
        expect(O.deg(f) == 18 and O.is_irreducible(OF, f),
               "scan19 modulus is not an irreducible of degree 18")
        rows = {tuple(parse_text(OF, r["lambda"])): r["count"]
                for r in report["rows"]}
        expect(rows == O.ninth_window_rows(OF, list(O.box(OF, [], 1)), f),
               "scan19 rows")
    ops.append(cli_op("cli-scan19", argv, workdir, check_cli))
    return ops


def _nlambda_op(rng, F, fdeg, n) -> Op:
    OF = ofield(F)
    f = O.random_irreducible(OF, fdeg, rng)
    base = rand_exact(rng, OF.q, n + 2)
    I = intervals.Interval(P(F, base), n)
    ring = residues.ResidueRing(P(F, f))
    pts = list(O.box(OF, base, n))
    want = once(lambda: O.class_sum(OF, pts, f, OF.q ** fdeg))

    def run():
        return sum(elliptic.count_nlambda(I, lam, ring)
                   for lam in ring.elements())

    def check(total):
        expect(total == want(), "sum over lambda of N_lambda")
    return Op("nlambda", run, check)


def _census_op(rng, F, fdeg, n) -> Op:
    OF = ofield(F)
    f = P(F, O.random_irreducible(OF, fdeg, rng))
    I = intervals.Interval(P(F, rand_exact(rng, OF.q, n + 2)), n)

    def run():
        return (elliptic.count_invariant_pairs(I, f, method="quad"),
                elliptic.count_invariant_pairs(I, f, method="bucket"))

    def check(pair):
        quad, bucket = pair
        expect(quad == bucket, "census: quad != bucket")
        expect(quad >= I.size ** 2, "census misses the diagonal")
    return Op("census", run, check)


def _ninth_op(rng, F) -> Op:
    OF = ofield(F)
    jobs = []
    for n in (0, 0, 1, 1):       # |I|^9 = |f|: the edge of the window
        f = O.random_irreducible(OF, 9 * (n + 1), rng)
        jobs.append((n, f))
    progs = [(intervals.Interval(P(F, []), n), P(F, f)) for n, f in jobs]
    want = once(lambda: [O.ninth_window_rows(OF, list(O.box(OF, [], n)), f)
                         for n, f in jobs])

    def check(reports):
        for rep, rows in zip(reports, want()):
            got = {tuple(L(lam)): c for lam, c in rep.rows}
            expect(got == rows, "ninth-window rows")
            expect(rep.max_count == max(rows.values()), "ninth-window max")
    return Op("ninth", lambda: [elliptic.ninth_window_scan(I, f)
                                for I, f in progs], check)


def _iso_op(rng, F, fdeg) -> Op:
    """Pairs (c, d) = (a s^4, b s^6) built from a hidden unit s, so a
    witness exists; |f| = 1 mod 4 sends the square root to Tonelli-Shanks."""
    OF = ofield(F)
    f = O.random_irreducible(OF, fdeg, rng)
    assert (OF.q ** fdeg) % 4 == 1
    jobs = []
    for _ in range(20):
        a, b, s = (O.pmod(OF, rand_nonzero(rng, OF.q, fdeg + 1), f)
                   for _ in range(3))
        if not (a and b and s):
            continue
        s2 = O.pmod(OF, O.pmul(OF, s, s), f)
        s4 = O.pmod(OF, O.pmul(OF, s2, s2), f)
        s6 = O.pmod(OF, O.pmul(OF, s4, s2), f)
        jobs.append((a, b, O.pmod(OF, O.pmul(OF, a, s4), f),
                     O.pmod(OF, O.pmul(OF, b, s6), f)))
    fp = P(F, f)
    progs = [tuple(P(F, v) for v in job) for job in jobs]

    def check(witnesses):
        for (a, b, c, d), t in zip(jobs, witnesses):
            expect(t is not None and O.is_witness(OF, a, b, c, d, L(t), f),
                   "isomorphism witness")
    return Op("iso", lambda: [elliptic.iso_witness(*job, fp)
                              for job in progs], check)


def _pigeon_op(rng) -> Op:
    """Simultaneous small remainders (criterion-8 style instances) and the
    small-coefficient model built on the same multiplier step."""
    jobs = []
    while len(jobs) < 12:
        q = rng.choice([2, 3])
        OF = O.Field(q)
        m = rng.randrange(4, 11)
        s = rng.randrange(2, 5)
        taus = tuple(rng.randrange(0, m + 1) for _ in range(s))
        if sum(taus) <= (s - 1) * m:
            continue
        f = O.random_irreducible(OF, m, rng)
        xs = [rand_poly(rng, q, m + 2) for _ in range(s)]
        jobs.append((q, f, xs, taus))
    models = []
    for q in (2, 3):
        OF = O.Field(q)
        m = 10
        f = O.random_irreducible(OF, m, rng)
        lam, x0 = rand_nonzero(rng, q, m - 1), rand_poly(rng, q, 3)
        taus = (8, 8, 9, 8, 9)         # sum 42 > 4 * 10: solvable
        models.append((q, f, lam, x0, taus))
    fields = {q: ffield.GF(q) for q in (2, 3)}
    progs = [elliptic.PigeonInstance(
        f=P(fields[q], f), x_list=tuple(P(fields[q], x) for x in xs),
        tau_list=taus) for q, f, xs, taus in jobs]
    mprogs = [(P(fields[q], lam), P(fields[q], x0), P(fields[q], f), taus)
              for q, f, lam, x0, taus in models]

    def run():
        return ([elliptic.pigeonhole_multiplier(inst) for inst in progs],
                [elliptic.small_coeff_model(*args) for args in mprogs])

    def check(result):
        ts, sms = result
        for (q, f, xs, taus), t in zip(jobs, ts):
            OF = O.Field(q)
            degs = O.remainder_degrees(OF, xs, L(t), f)
            expect(O.pmod(OF, L(t), f) != [] and
                   all(dg < tau for dg, tau in zip(degs, taus)),
                   "pigeonhole remainder degrees")
        for (q, f, lam, x0, taus), sm in zip(models, sms):
            OF = O.Field(q)
            t = L(sm.t)
            three, two = [3 % q], [2 % q]
            xs = [[1], O.pmul(OF, three, x0),
                  O.pmul(OF, three, O.pmul(OF, x0, x0)), O.pneg(OF, lam),
                  O.pneg(OF, O.pmul(OF, two, O.pmul(OF, lam, x0)))]
            want = [O.pmod(OF, O.pmul(OF, x, t), f) for x in xs]
            got = [L(v) for v in sm.fs]
            expect(got[:5] == want, "small model coefficients f_1..f_5")
            expect(all(O.deg(v) < tau for v, tau in zip(want, taus)),
                   "small model coefficient degrees")
            x0sq = O.pmul(OF, x0, x0)
            f6 = O.pneg(OF, O.pmul(OF, t, O.psub(OF, O.pmul(OF, lam, x0sq),
                                                 O.pmul(OF, x0sq, x0))))
            expect(got[5] == O.pmod(OF, f6, f), "small model f_6")
    return Op("pigeonhole", run, check)


def _weil_op(rng, F, degs) -> Op:
    """Y^2 = X^3 + aX + b modulo irreducibles on both sides of the vector
    threshold; each reduction is kept smooth (4a^3 + 27b^2 != 0 mod f)."""
    OF = ofield(F)
    a, b = rand_nonzero(rng, OF.q, 1), rand_nonzero(rng, OF.q, 1)
    disc = O.padd(OF, O.pmul(OF, [4 % OF.p], O.pmul(OF, a, O.pmul(OF, a, a))),
                  O.pmul(OF, [27 % OF.p], O.pmul(OF, b, b)))
    terms = weierstrass_terms(OF, a, b)
    fs = []
    for dg in degs:
        for _ in range(2):
            while True:
                f = O.random_irreducible(OF, dg, rng)
                if O.pmod(OF, disc, f):
                    break
            fs.append(f)
    curve = bivar(F, terms)
    progs = [P(F, f) for f in fs]
    brute = once(lambda: [O.count_mod_bruteforce(OF, terms, f)
                          if OF.q ** O.deg(f) <= 125 else None for f in fs])

    def check(reports):
        for f, rep, want in zip(fs, reports, brute()):
            size = OF.q ** O.deg(f)
            expect(rep.size == size and rep.passed, "Weil window report")
            expect(O.hasse_weil_ok(rep.count, size), "Hasse-Weil bound")
            if want is not None:
                expect(rep.count == want, "point count mod f")
    return Op("weil", lambda: [curves.weil_window_check(curve, f, C=2)
                               for f in progs], check)


WORKLOADS = {
    "box-scan": box_scan,
    "ext-field": ext_field,
    "det-corpus": det_corpus,
    "ec-census": ec_census,
}
