"""Span tracing of polybox from the outside, for the per-layer metrics.

`install` replaces chosen functions and methods of each polybox module with
wrappers that record one span per call: name, start, end, parent span and
operation id.  polybox's own files are never edited; the wrappers are put
in place of the originals in every polybox namespace that refers to them.
Spans stay in memory (flat arrays) and are written out when the run ends.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans.  A named call's inclusive time sums
the spans that have no ancestor from the same group, so recursion and
nesting are not counted twice.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# Traced names per module: methods as "Class.method", functions by name.
TRACED = {
    "ffield": ["FiniteField.__init__"],
    # __mod__ and __floordiv__ only call __divmod__; tracing them would add
    # a span per division without adding information
    "poly": ["Poly.__add__", "Poly.__neg__", "Poly.__sub__", "Poly.__mul__",
             "Poly.__pow__", "Poly.__divmod__", "Poly.__call__",
             "Poly.scaled", "Poly.shifted",
             "Poly.monic", "poly_gcd", "poly_xgcd", "powmod",
             "is_irreducible", "random_irreducible", "frac_dist",
             "valuation"],
    "intervals": ["Interval.enumerate", "Interval.contains"],
    "residues": ["ResidueRing.__init__", "ResidueRing.reduce",
                 "ResidueRing.mul", "ResidueRing.inv", "ResidueRing.pow",
                 "ResidueRing.index", "ResidueRing.from_index",
                 "ResidueRing.sqrt", "ResidueRing.batch",
                 "ResidueBatch.__init__", "ResidueBatch.encode",
                 "ResidueBatch.mul", "ResidueBatch.poly_rows",
                 "ResidueBatch.eval_univariate", "ResidueBatch.histogram"],
    "curves": ["BivarPoly.__add__", "BivarPoly.__mul__", "BivarPoly.__pow__",
               "BivarPoly.scaled", "BivarPoly.evaluate",
               "BivarPoly.reduce_mod", "BivarPoly.y_coefficients",
               "count_points_mod", "count_points_by_rows",
               "is_smooth_weierstrass", "weil_window_check",
               "apply_transform", "find_full_degree_transform"],
    "boxcount": ["enumerate_box_points", "exponent_scan", "residue_stats",
                 "CrtRootSolver.__init__", "CrtRootSolver.candidates",
                 "_naive_points", "_crt_points", "_graph_points"],
    "linalg": ["det_cofactor", "det_bareiss", "echelon", "kernel_vector",
               "gf_kernel_vector"],
    "detmethod": ["wset_determinant", "collision_count", "tuple_report",
                  "verify_ord_inequality", "mean_distinct_identity",
                  "InterpolationProblem.build", "InterpolationProblem.solve",
                  "interpolate_form", "proportional",
                  "max_points_on_wcurve"],
    "elliptic": ["invariant_congruent", "iso_witness", "count_nlambda",
                 "count_invariant_pairs", "PigeonInstance.verify",
                 "pigeonhole_multiplier", "pigeonhole_oracle",
                 "small_coeff_model", "ninth_window_tau_plan",
                 "ninth_window_scan"],
    "grammar": ["parse_poly", "poly_text", "parse_curve", "curve_text"],
    "cli": ["main", "run_manifest", "_field_from", "_write_outputs"],
}

# Per-layer metrics: name -> (kind, argument).  "count" counts spans of the
# listed names, "counter" reads a counter the wrappers keep, "self" is a
# layer's self time, "incl" the inclusive time of the listed calls.
LAYER_METRICS = {
    "ffield.builds": ("counter", "ffield.ext_builds"),
    "ffield.build_s": ("incl", ["ffield.FiniteField.__init__"]),
    "poly.mul_calls": ("count", ["poly.Poly.__mul__"]),
    "poly.divmod_calls": ("count", ["poly.Poly.__divmod__"]),
    "poly.self_s": ("self", "poly"),
    "poly.irreducible_s": ("incl", ["poly.is_irreducible"]),
    "intervals.members": ("counter", "intervals.members"),
    "intervals.self_s": ("self", "intervals"),
    "residues.ring_calls": ("count", "residues.ResidueRing."),
    "residues.ring.self_s": ("self", "residues.ResidueRing."),
    "residues.batch_calls": ("count", "residues.ResidueBatch."),
    "residues.batch_s": ("incl", "residues.ResidueBatch."),
    "curves.evaluate_calls": ("count", ["curves.BivarPoly.evaluate"]),
    "curves.evaluate_s": ("incl", ["curves.BivarPoly.evaluate"]),
    "curves.count_points_s": ("incl", ["curves.count_points_mod",
                                       "curves.count_points_by_rows"]),
    "boxcount.solver_builds": ("count", ["boxcount.CrtRootSolver.__init__"]),
    "boxcount.crt_x": ("count", ["boxcount.CrtRootSolver.candidates"]),
    "boxcount.crt_lifted": ("counter", "boxcount.crt_lifted"),
    "boxcount.crt_fallbacks": ("counter", "boxcount.crt_fallbacks"),
    "boxcount.naive_pairs": ("counter", "boxcount.naive_pairs"),
    "boxcount.crt_yield": ("ratio", ("boxcount.crt_found",
                                     "boxcount.crt_lifted")),
    "boxcount.solver_build_s": ("incl", ["boxcount.CrtRootSolver.__init__"]),
    "boxcount.candidates_s": ("incl", ["boxcount.CrtRootSolver.candidates"]),
    "boxcount.naive_s": ("incl", ["boxcount._naive_points"]),
    "boxcount.crt_s": ("incl", ["boxcount._crt_points"]),
    "boxcount.graph_s": ("incl", ["boxcount._graph_points"]),
    "linalg.det_calls": ("count", ["linalg.det_cofactor",
                                   "linalg.det_bareiss"]),
    "linalg.det_s": ("incl", ["linalg.det_cofactor", "linalg.det_bareiss"]),
    "linalg.kernel_s": ("incl", ["linalg.kernel_vector",
                                 "linalg.gf_kernel_vector"]),
    "detmethod.tuples": ("counter", "detmethod.tuples"),
    "detmethod.self_s": ("self", "detmethod"),
    "elliptic.self_s": ("self", "elliptic"),
    "cli.runs": ("count", ["cli.main"]),
    "cli.self_s": ("self", "cli"),
    "grammar.self_s": ("self", "grammar"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_yield"):
        return "ratio"
    return "count"


class Tracer:
    """Flat in-memory span store plus per-round counters."""

    def __init__(self):
        self.names: list[str] = []
        self.sp_name = array("H")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.stack = [-1]
        self.op = -1
        self.op_round: list[int] = []
        self.round = -1
        self.counters: dict = {}

    def begin_op(self, rnd: int):
        self.op = len(self.op_round)
        self.op_round.append(rnd)
        self.round = rnd

    def count(self, key: str, value: int):
        k = (key, self.round)
        self.counters[k] = self.counters.get(k, 0) + value

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args, kwargs) runs inside
        the span."""
        nid = self._name_id(name)
        stack, name_ids, parents, ops = (self.stack, self.sp_name,
                                         self.sp_parent, self.sp_op)
        starts, ends = self.sp_start, self.sp_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(sid)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()
        return traced

    def wrap_generator(self, name: str, fn, counter: str):
        """Each next() of the returned generator is one span."""
        step = self.wrap(name, next)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def gen():
                while True:
                    try:
                        item = step(inner)
                    except StopIteration:
                        return
                    tracer.count(counter, 1)
                    yield item
            return gen()
        return traced

    # -- aggregation --

    def arrays(self):
        n = len(self.sp_name)
        return {
            "name": np.frombuffer(self.sp_name, dtype=np.uint16, count=n),
            "parent": np.frombuffer(self.sp_parent, dtype=np.int32, count=n),
            "op": np.frombuffer(self.sp_op, dtype=np.int32, count=n),
            "start": np.frombuffer(self.sp_start, dtype=np.int64, count=n),
            "end": np.frombuffer(self.sp_end, dtype=np.int64, count=n),
        }

    def per_round(self, rounds: list[int]):
        """Every LAYER_METRICS value as the median over the given rounds,
        and the per-round values behind each median."""
        a = self.arrays()
        nn = len(self.names)
        dur = (a["end"] - a["start"]) / 1e9
        parent = a["parent"]
        has = parent >= 0
        self_t = dur - np.bincount(parent[has], weights=dur[has],
                                   minlength=len(dur))
        del has
        op_round = np.asarray(self.op_round + [-1], dtype=np.int64)
        span_round = op_round[a["op"]]        # op -1 (between ops) -> -1
        nr = max(rounds) + 1
        key = np.where(span_round >= 0, span_round * nn + a["name"], nr * nn)
        counts = np.bincount(key, minlength=nr * nn + 1)[:-1].reshape(nr, nn)
        selfs = np.bincount(key, weights=self_t,
                            minlength=nr * nn + 1)[:-1].reshape(nr, nn)
        del key, self_t
        values: dict = {}
        for metric, (kind, arg) in LAYER_METRICS.items():
            if kind == "counter":
                vals = [self.counters.get((arg, r), 0) for r in rounds]
            elif kind == "ratio":
                vals = [_ratio(self.counters.get((arg[0], r), 0),
                               self.counters.get((arg[1], r), 0))
                        for r in rounds]
            else:
                ids = self._select(arg)
                if kind == "count":
                    vals = [int(counts[r, ids].sum()) for r in rounds]
                elif kind == "self":
                    vals = [float(selfs[r, ids].sum()) for r in rounds]
                else:
                    vals = self._inclusive(ids, a, dur, span_round, rounds)
            values[metric] = vals
        return {m: v[0] if len(set(v)) == 1 else statistics.median(v)
                for m, v in values.items()}, values

    def _select(self, arg) -> list[int]:
        """Name ids for a list of exact names or a layer/class prefix."""
        if isinstance(arg, list):
            return [i for i, s in enumerate(self.names) if s in arg]
        prefix = arg if arg.endswith(".") else arg + "."
        return [i for i, s in enumerate(self.names) if s.startswith(prefix)]

    @staticmethod
    def _inclusive(ids, a, dur, span_round, rounds) -> list[float]:
        """Per-round summed duration of the selected spans that have no
        ancestor among the selected names, walking all parent chains
        together."""
        group = np.zeros(max(ids, default=0) + 1, dtype=bool)
        group[ids] = True
        parent, name = a["parent"], a["name"]
        sel = np.flatnonzero(np.isin(name, ids))
        keep = np.ones(len(sel), dtype=bool)
        cur = parent[sel]
        live = np.flatnonzero(cur >= 0)
        while len(live):
            up_name = name[cur[live]]
            hit = np.zeros(len(live), dtype=bool)
            small = up_name < len(group)
            hit[small] = group[up_name[small]]
            keep[live[hit]] = False
            live = live[~hit]
            cur[live] = parent[cur[live]]
            live = live[cur[live] >= 0]
        top = sel[keep]
        return [float(dur[top[span_round[top] == r]].sum()) for r in rounds]

    def dump(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names),
                            op_round=np.asarray(self.op_round), **a)


def _owner(module, dotted: str):
    """(object holding the attribute, attribute name)."""
    parts = dotted.split(".")
    obj = module
    for p in parts[:-1]:
        obj = getattr(obj, p)
    return obj, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every name in TRACED, in every polybox namespace."""
    from polybox import cli

    modules = [m for k, m in sys.modules.items()
               if k == "polybox" or k.startswith("polybox.")]
    replaced: dict = {}
    for modname, names in TRACED.items():
        module = sys.modules[f"polybox.{modname}"]
        for dotted in names:
            owner, attr = _owner(module, dotted)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(_make_wrapper(
                    tracer, f"{modname}.{dotted}", dotted, original.__func__))
            else:
                wrapped = _make_wrapper(tracer, f"{modname}.{dotted}",
                                        dotted, original)
            setattr(owner, attr, wrapped)
            replaced[id(original)] = wrapped
    # rebind names other modules imported with "from .x import y"
    for m in modules:
        for key, val in list(vars(m).items()):
            if id(val) in replaced and not isinstance(val, type):
                setattr(m, key, replaced[id(val)])
    for key, fn in list(cli._HANDLERS.items()):
        cli._HANDLERS[key] = tracer.wrap(f"cli.handler.{key}", fn)


def _make_wrapper(tracer: Tracer, name: str, dotted: str, fn):
    if dotted == "FiniteField.__init__":
        def after(_, args, kwargs):
            if args[0].k > 1:
                tracer.count("ffield.ext_builds", 1)
        return tracer.wrap(name, fn, after)
    if dotted == "Interval.enumerate":
        return tracer.wrap_generator(name, fn, "intervals.members")
    if dotted == "CrtRootSolver.candidates":
        def after(result, args, kwargs):
            if result is None:
                tracer.count("boxcount.crt_fallbacks", 1)
            else:
                tracer.count("boxcount.crt_lifted", len(result))
        return tracer.wrap(name, fn, after)
    if dotted == "_crt_points":
        def after(result, args, kwargs):
            tracer.count("boxcount.crt_found", len(result))
        return tracer.wrap(name, fn, after)
    if dotted == "_naive_points":
        def after(_, args, kwargs):
            tracer.count("boxcount.naive_pairs", args[1].size * args[2].size)
        return tracer.wrap(name, fn, after)
    if dotted == "verify_ord_inequality":
        def after(result, args, kwargs):
            tracer.count("detmethod.tuples", result.tuples_total)
        return tracer.wrap(name, fn, after)
    if dotted == "mean_distinct_identity":
        def after(_, args, kwargs):
            omega = args[2] if len(args) > 2 else kwargs["omega"]
            tracer.count("detmethod.tuples", len(list(args[0])) ** omega)
        return tracer.wrap(name, fn, after)
    return tracer.wrap(name, fn)
