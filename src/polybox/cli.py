"""Command-line front end: seeded, budgeted experiments with stable output.

Every run embeds a manifest (command, parameters, field, tool version);
output paths are derived from the manifest hash, so identical runs write
identical files.  Replaying a report's manifest reproduces it bit-for-bit
apart from the timestamp.  Exit codes: 0 pass, 1 property violation found
by a verification command, 2 usage or domain error (with an error JSON on
stderr), 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

from . import __version__
from .boxcount import enumerate_box_points, exponent_scan, residue_stats
from .detmethod import (interpolate_form, max_points_on_wcurve,
                        mean_distinct_identity, proportional,
                        verify_ord_inequality, wset_grid, wset_linear)
from .elliptic import (PigeonInstance, count_invariant_pairs, count_nlambda,
                       extremal_count, extremal_witnesses,
                       ninth_window_scan, pigeonhole_multiplier)
from .errors import BudgetExceededError, PolyboxError
from .ffield import GF, FiniteField
from .grammar import curve_text, parse_curve, parse_poly, poly_text
from .intervals import Interval
from .poly import Poly, frac_dist, is_irreducible, random_irreducible, zero
from .residues import ResidueRing

_EXIT_PASS = 0
_EXIT_VIOLATION = 1
_EXIT_USAGE = 2
_EXIT_BUDGET = 3


@dataclass
class CommandResult:
    report: dict
    csv_header: list | None = None
    csv_rows: list | None = None
    violation: bool = False


# -- parameter resolution --

def _field_from(params: dict) -> FiniteField:
    q = params["q"]
    k = params.get("ext_k") or 1
    if k > 1:
        modulus = None
        if params.get("modulus"):
            modulus = json.loads(params["modulus"])
        return FiniteField(q, k, modulus=modulus)
    return GF(q)


class _Inputs:
    """A command's parameters, each resolved once, on first use.

    Resolving writes the canonical form back into params (curve text, the
    seeded modulus), which is what the manifest then records, so a
    replayed manifest recomputes from identical inputs.
    """

    def __init__(self, params: dict, field: FiniteField):
        self.params, self.field = params, field

    def base(self, key: str) -> Poly:
        """The box base params[key]; zero when absent or empty."""
        text = self.params.get(key)
        return parse_poly(self.field, text) if text else zero(self.field)

    @cached_property
    def curve(self):
        curve = parse_curve(self.field, self.params["curve"])
        self.params["curve"] = curve_text(curve)
        return curve

    @cached_property
    def ring(self) -> ResidueRing:
        """The residue ring of --f, proved irreducible here and nowhere
        else, or of the seeded random irreducible of degree --f-deg."""
        params = self.params
        if "f" in params:
            f = parse_poly(self.field, params["f"])
            if not is_irreducible(f):
                raise PolyboxError("modulus --f must be irreducible")
        elif "f_deg" in params:
            f = random_irreducible(self.field, params["f_deg"],
                                   params.get("seed", 0))
            params["f"] = poly_text(f)  # manifest records the resolved modulus
        else:
            raise PolyboxError("one of --f or --f-deg is required")
        return ResidueRing(f, check=False)

    @cached_property
    def box_x(self) -> Interval:
        return Interval(self.base("base_x"), self.params["n"])

    @cached_property
    def points(self):
        """The curve's points in box_x x (base_y + the same bound)."""
        box_y = Interval(self.base("base_y"), self.params["n"])
        return enumerate_box_points(self.curve, self.box_x, box_y,
                                    self.params.get("strategy", "auto"))

    @cached_property
    def wset(self):
        d, m = self.params.get("d"), self.params.get("m")
        omega = self.params.get("omega")
        if d is not None and m is not None:
            w = wset_grid(self.field, d, m)
            if omega is not None and omega != w.omega:
                raise PolyboxError("--omega disagrees with the (d, M) grid "
                                   "size")
            return w
        if omega == 3:
            return wset_linear(self.field)
        raise PolyboxError("give --d and --M for a grid, or --omega 3 for "
                           "{1,X,Y}")


# -- command handlers (dispatchable from argparse or a replayed manifest) --

def _cmd_count_box(inp: _Inputs) -> CommandResult:
    S = inp.points
    pts = [[poly_text(x), poly_text(y)] for (x, y) in S]
    report = {"count": len(S), "size_I": inp.box_x.size, "points": pts}
    return CommandResult(report=report, csv_header=["x", "y"], csv_rows=pts)


def _cmd_exponent_scan(inp: _Inputs) -> CommandResult:
    lo, hi = inp.params["n_range"]
    scan = exponent_scan(inp.curve, range(lo, hi + 1),
                         base_x=inp.base("base_x"), base_y=inp.base("base_y"),
                         strategy=inp.params.get("strategy", "auto"))
    rows = [[r.n, r.size, r.count, repr(r.exponent)] for r in scan.rows]
    report = {
        "rows": [{"n": r.n, "size_I": r.size, "count": r.count,
                  "exponent": r.exponent} for r in scan.rows],
        "fitted_exponent": scan.fitted_exponent(),
    }
    return CommandResult(report=report,
                         csv_header=["n", "size_I", "count", "exponent"],
                         csv_rows=rows)


def _cmd_residue_stats(inp: _Inputs) -> CommandResult:
    ring, S = inp.ring, inp.points
    if not len(S):
        raise PolyboxError("empty point set: residue statistics undefined")
    prof = residue_stats(S, ring)
    rows = sorted(
        ([poly_text(x), poly_text(y), c,
          str(prof.weights()[(x, y)])]
         for (x, y), c in prof.counts.items()),
        key=lambda r: (r[0], r[1]))
    report = {
        "size_S": prof.size,
        "modulus": poly_text(prof.modulus),
        "distinct_residues": prof.distinct,
        "alpha": str(prof.density),
        "sum_rho_sq": str(prof.sum_squared_weights()),
        "cauchy_lower_bound": str(prof.cauchy_lower_bound()),
        "pass": prof.cauchy_ok(),
    }
    return CommandResult(report=report,
                         csv_header=["x", "y", "count", "rho"],
                         csv_rows=rows, violation=not prof.cauchy_ok())


def _cmd_detlab_ord(inp: _Inputs) -> CommandResult:
    ring, W = inp.ring, inp.wset
    rep = verify_ord_inequality(W, inp.points, ring,
                                budget=inp.params.get("budget", 10 ** 6))
    return CommandResult(report=rep.to_json(), violation=not rep.passed)


def _cmd_detlab_mean_identity(inp: _Inputs) -> CommandResult:
    ring, S = inp.ring, inp.points
    if not len(S):
        raise PolyboxError("empty point set")
    omega = inp.params["omega"]
    rep = mean_distinct_identity(S, ring, omega,
                                 budget=inp.params.get("budget", 10 ** 6))
    report = {"omega": omega, "lhs": str(rep.lhs),
              "rhs": str(rep.rhs), "pass": rep.passed}
    return CommandResult(report=report, violation=not rep.passed)


def _cmd_detlab_interpolate(inp: _Inputs) -> CommandResult:
    d = inp.params["d"]
    need = d * d + 1
    pts = list(inp.points)[:need]
    if len(pts) < need:
        raise PolyboxError(f"need {need} box points, found {len(pts)}")
    G = interpolate_form(pts, d)
    report = {
        "form": curve_text(G),
        "points_used": need,
        "proportional_to_curve": proportional(G, inp.curve),
    }
    return CommandResult(report=report)


def _cmd_detlab_wcurve_max(inp: _Inputs) -> CommandResult:
    W, S = inp.wset, inp.points
    if not len(S):
        raise PolyboxError("empty point set")
    value = max_points_on_wcurve(W, S,
                                 budget=inp.params.get("budget", 10 ** 5))
    report = {"max_on_wcurve": value, "size_S": len(S), "omega": W.omega}
    return CommandResult(report=report)


def _cmd_ec_nlambda(inp: _Inputs) -> CommandResult:
    ring = inp.ring
    lam = parse_poly(inp.field, inp.params["lam"])
    inp.params["lam"] = poly_text(lam)
    count = count_nlambda(inp.box_x, lam, ring)
    report = {"count": count, "lambda": poly_text(lam),
              "size_I": inp.box_x.size, "norm_f": ring.size}
    return CommandResult(report=report)


def _cmd_ec_census(inp: _Inputs) -> CommandResult:
    ring = inp.ring
    method = inp.params.get("method", "auto")
    count = count_invariant_pairs(inp.box_x, ring, method=method)
    report = {"count": count, "size_I": inp.box_x.size, "norm_f": ring.size,
              "method": method}
    return CommandResult(report=report)


def _cmd_ec_scan19(inp: _Inputs) -> CommandResult:
    rep = ninth_window_scan(inp.box_x, inp.ring,
                            force=inp.params.get("force", False))
    rows = [[poly_text(lam), c] for lam, c in rep.rows]
    return CommandResult(report=rep.to_json(),
                         csv_header=["lambda", "count"], csv_rows=rows)


def _cmd_ec_pigeonhole(inp: _Inputs) -> CommandResult:
    f = inp.ring.f
    xs = tuple(parse_poly(inp.field, s)
               for s in inp.params["x_list"].split("|"))
    taus = tuple(int(s) for s in inp.params["tau_list"].split("|"))
    inst = PigeonInstance(f=f, x_list=xs, tau_list=taus)
    t = pigeonhole_multiplier(inst)
    report = {
        "t": poly_text(t),
        "distances": [frac_dist(x * t, f) for x in xs],
        "bounds": [inp.field.q ** tau for tau in taus],
        "verified": inst.verify(t),
    }
    return CommandResult(report=report, violation=not inst.verify(t))


def _cmd_ec_extremal(inp: _Inputs) -> CommandResult:
    I = inp.box_x
    rows = [[poly_text(a), poly_text(b)] for (a, b) in extremal_witnesses(I)]
    report = {"count": extremal_count(I), "size_I": I.size}
    return CommandResult(report=report, csv_header=["a", "b"], csv_rows=rows)


_HANDLERS = {
    "count-box": _cmd_count_box,
    "exponent-scan": _cmd_exponent_scan,
    "residue-stats": _cmd_residue_stats,
    "detlab ord": _cmd_detlab_ord,
    "detlab mean-identity": _cmd_detlab_mean_identity,
    "detlab interpolate": _cmd_detlab_interpolate,
    "detlab wcurve-max": _cmd_detlab_wcurve_max,
    "ec nlambda": _cmd_ec_nlambda,
    "ec census": _cmd_ec_census,
    "ec scan19": _cmd_ec_scan19,
    "ec pigeonhole": _cmd_ec_pigeonhole,
    "ec extremal": _cmd_ec_extremal,
}


# -- manifests and report writing --

def _manifest(command: str, params: dict, field_desc: dict) -> dict:
    return {"command": command, "params": params, "field": field_desc,
            "version": __version__}


def _manifest_hash(manifest: dict) -> str:
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_outputs(command: str, manifest: dict, result: CommandResult,
                   out: str | None, outdir: str) -> list[str]:
    slug = command.replace(" ", "-")
    stem = f"{slug}-{_manifest_hash(manifest)}"
    outdir_path = Path(outdir)
    outdir_path.mkdir(parents=True, exist_ok=True)
    written = []
    if out in (None, "json"):
        doc = {
            "manifest": manifest,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "report": result.report,
        }
        path = outdir_path / f"{stem}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.append(str(path))
    if out in (None, "csv") and result.csv_header is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(result.csv_header)
        writer.writerows(result.csv_rows or [])
        path = outdir_path / f"{stem}.csv"
        path.write_text(buf.getvalue())
        written.append(str(path))
    return written


def run_manifest(command: str, params: dict, out: str | None,
                 outdir: str) -> int:
    """Execute a command from normalized params; write reports.

    Handlers read their inputs through _Inputs, which rewrites params to
    their resolved canonical form (curve text, seeded modulus); the
    manifest records that form.
    """
    handler = _HANDLERS.get(command)
    if handler is None:
        raise PolyboxError(f"unknown command {command!r}")
    working = dict(params)
    field = _field_from(working)
    result = handler(_Inputs(working, field))
    manifest = _manifest(command, working, field.describe())
    for path in _write_outputs(command, manifest, result, out, outdir):
        print(f"wrote: {path}")
    print(f"pass={'false' if result.violation else 'true'}")
    return _EXIT_VIOLATION if result.violation else _EXIT_PASS


# -- argument parsing --

def _add_common(sub, *, needs_curve=False, needs_n=False, needs_f=False,
                wset=False, budget=False, strategy=False):
    sub.add_argument("--q", type=int, required=True,
                     help="field size (prime, or prime with --ext-k)")
    sub.add_argument("--ext-k", type=int, default=None, dest="ext_k",
                     help="extension degree over the prime --q")
    sub.add_argument("--modulus", default=None,
                     help="JSON coefficient array for the extension modulus")
    sub.add_argument("--seed", type=int,
                     default=int(os.environ.get("POLYBOX_SEED", "0")))
    sub.add_argument("--out", choices=["csv", "json"], default=None,
                     help="write only this format (default: both)")
    sub.add_argument("--outdir", default=".")
    if needs_curve:
        sub.add_argument("--curve", required=True,
                         help="curve text, e.g. 'Y^2-X^3-(T)*X-(1)'")
        sub.add_argument("--base-x", default=None, dest="base_x")
        sub.add_argument("--base-y", default=None, dest="base_y")
    if needs_n:
        sub.add_argument("--n", type=int, required=True,
                         help="box bound: degrees <= n")
    if needs_f:
        sub.add_argument("--f", default=None,
                         help="irreducible modulus (polynomial text)")
        sub.add_argument("--f-deg", type=int, default=None, dest="f_deg",
                         help="pick a seeded random irreducible of this degree")
    if wset:
        sub.add_argument("--omega", type=int, default=None)
        sub.add_argument("--d", type=int, default=None)
        sub.add_argument("--M", type=int, default=None, dest="m")
    if budget:
        sub.add_argument("--budget", type=int, default=None)
    if strategy:
        sub.add_argument("--strategy", default="auto",
                         choices=["auto", "naive", "crt", "graph"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybox",
        description="Exact-arithmetic experiments over F_q[T]: box point "
                    "counts, determinant diagnostics, isomorphism censuses.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("count-box", help="enumerate curve points in a box")
    _add_common(s, needs_curve=True, needs_n=True, strategy=True)

    s = subs.add_parser("exponent-scan", help="point counts across box sizes")
    _add_common(s, needs_curve=True, strategy=True)
    s.add_argument("--n-range", required=True, dest="n_range",
                   help="inclusive range lo..hi")

    s = subs.add_parser("residue-stats",
                        help="reduction profile of box points mod f")
    _add_common(s, needs_curve=True, needs_n=True, needs_f=True)

    det = subs.add_parser("detlab", help="determinant-method diagnostics")
    det_subs = det.add_subparsers(dest="subcommand", required=True)
    s = det_subs.add_parser("ord", help="check ord_f(det) >= kappa per tuple")
    _add_common(s, needs_curve=True, needs_n=True, needs_f=True, wset=True,
                budget=True)
    s = det_subs.add_parser("mean-identity",
                            help="exact expected-distinct-residues identity")
    _add_common(s, needs_curve=True, needs_n=True, needs_f=True, budget=True)
    s.add_argument("--omega", type=int, required=True)
    s = det_subs.add_parser("interpolate",
                            help="degree-d form through d^2+1 box points")
    _add_common(s, needs_curve=True, needs_n=True)
    s.add_argument("--d", type=int, required=True)
    s = det_subs.add_parser("wcurve-max",
                            help="max box points on one W-curve")
    _add_common(s, needs_curve=True, needs_n=True, wset=True, budget=True)

    ec = subs.add_parser("ec", help="isomorphism-class censuses")
    ec_subs = ec.add_subparsers(dest="subcommand", required=True)
    s = ec_subs.add_parser("nlambda", help="count a^3 = lambda b^2 in a box")
    _add_common(s, needs_n=True, needs_f=True)
    s.add_argument("--base-x", default=None, dest="base_x")
    s.add_argument("--lambda", required=True, dest="lam")
    s = ec_subs.add_parser("census", help="count invariant-congruent pairs")
    _add_common(s, needs_n=True, needs_f=True)
    s.add_argument("--base-x", default=None, dest="base_x")
    s.add_argument("--method", default="auto",
                   choices=["auto", "quad", "bucket"])
    s = ec_subs.add_parser("scan19", help="lambda-class counts in the "
                                          "|I|^9 <= |f| window")
    _add_common(s, needs_n=True, needs_f=True)
    s.add_argument("--base-x", default=None, dest="base_x")
    s.add_argument("--force", action="store_true")
    s = ec_subs.add_parser("pigeonhole",
                           help="simultaneous small-remainder multiplier")
    _add_common(s, needs_f=True)
    s.add_argument("--x-list", required=True, dest="x_list",
                   help="'|'-separated polynomial texts")
    s.add_argument("--tau-list", required=True, dest="tau_list",
                   help="'|'-separated exponents")
    s = ec_subs.add_parser("extremal",
                           help="count the (x^2, x^3) family in a box")
    _add_common(s, needs_n=True)

    s = subs.add_parser("replay", help="re-run a report's manifest")
    s.add_argument("report", help="path to a JSON report")
    s.add_argument("--outdir", default=".")
    s.add_argument("--out", choices=["csv", "json"], default=None)
    return parser


# parser dests that route or write a run rather than parametrize it
_NON_PARAMS = ("command", "subcommand", "out", "outdir")


def _params_from_args(args) -> dict:
    params = {key: val for key, val in vars(args).items()
              if key not in _NON_PARAMS and val is not None}
    if "f" in params and "f_deg" in params:
        raise PolyboxError("give one of --f or --f-deg, not both")
    if "n_range" in params and isinstance(params["n_range"], str):
        lo, sep, hi = params["n_range"].partition("..")
        if not sep:
            raise PolyboxError("--n-range must look like 1..10")
        try:
            params["n_range"] = [int(lo), int(hi)]
        except ValueError:
            raise PolyboxError("--n-range must look like 1..10")
    return params


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        if args.command == "replay":
            doc = json.loads(Path(args.report).read_text())
            manifest = doc["manifest"]
            return run_manifest(manifest["command"], dict(manifest["params"]),
                                args.out, args.outdir)
        command = args.command
        if getattr(args, "subcommand", None):
            command = f"{args.command} {args.subcommand}"
        params = _params_from_args(args)
        return run_manifest(command, params, args.out, args.outdir)
    except BudgetExceededError as exc:
        _print_error(exc, _EXIT_BUDGET)
        return _EXIT_BUDGET
    except (PolyboxError, ValueError, ZeroDivisionError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        _print_error(exc, _EXIT_USAGE)
        return _EXIT_USAGE


def _print_error(exc: Exception, code: int):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                         "exit_code": code}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
