"""polybox benchmark: four seeded workloads, closed loop, one process.

    python3 perfbench/run.py --workload box-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; polybox is imported from ./src.  After
set-up the benchmark runs whole rounds of the workload's operations, one
operation at a time, until --seconds have passed, and checks every output
against perfbench/oracles.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  wall_s        median over rounds of the round's summed operation wall time
  cpu_s         the same for user + system CPU time (this process and the
                children it reaps); checks by the oracles are not timed
  op_p50_s      median wall time of one operation over all rounds
  setup_s       median of five set-ups (this process and four set-up-only
                children): process start to the first timed operation,
                covering import, field construction, input generation,
                warm-up and the wait for numpy's BLAS threads to go idle
  peak_rss_mib  peak resident memory of this process
--trace 1 runs one untraced round, then traced rounds until --seconds have
passed or 3 M spans are held (at least one round), and reports the
per-layer metrics of perfbench/tracing.py (medians over traced rounds) and
trace.overhead_s, the traced round wall time minus the untraced one.

A fixed pure-Python loop, which does not touch polybox, is timed before
and after the workload and printed on the line before the result as a
machine-speed reference; it is not a metric.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / "_work"
WORKLOAD_NAMES = ("box-scan", "ext-field", "det-corpus", "ec-census")
SETUP_SAMPLES = 5
TRACE_SPAN_CAP = 3_000_000   # traced rounds stop once this many spans are held


def reference_loop() -> float:
    """Wall time of a fixed integer loop (machine-speed reference)."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def cpu_now() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def settle(limit_s: float = 3.0):
    """Wait until the process burns no CPU while asleep (numpy's BLAS
    helper threads spin for about 0.1 CPU-s after import)."""
    end = time.perf_counter() + limit_s
    while time.perf_counter() < end:
        c0 = cpu_now()
        time.sleep(0.02)
        if cpu_now() - c0 < 0.002:
            return


def setup(workload: str, seed: int):
    """Import polybox, build the inputs, warm up; returns the operations."""
    if not (SRC / "polybox" / "__init__.py").is_file():
        raise SystemExit(f"error: polybox sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    ops = workloads.WORKLOADS[workload](seed, WORKDIR / workload)
    for op in ops:
        if op.warm:
            try:
                op.run()
            except Exception:  # counted when the timed rounds hit it again
                pass
    settle()
    return ops


def child_setup_times(args, count: int) -> list[float]:
    """Set-up times of fresh processes running the same set-up, one at a
    time; each reports its own process-start-to-ready time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_rounds(ops, seconds: float, tracer=None, max_rounds=None):
    """Whole rounds of ops until `seconds` pass; returns the record."""
    from workloads import CheckFailed
    rec = {"rounds": [], "op_walls": [], "attempted": 0, "failed": 0,
           "errors": [], "by_kind": {}}
    start = time.perf_counter()
    rnd = 0
    while True:
        wall = cpu = 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin_op(rnd)
            c0, w0 = cpu_now(), time.perf_counter()
            try:
                result, ok = op.run(), True
            except Exception:
                ok = False
                err = traceback.format_exc(limit=3)
            w1, c1 = time.perf_counter(), cpu_now()
            if tracer is not None:
                tracer.op = -1
            rec["attempted"] += 1
            wall += w1 - w0
            cpu += c1 - c0
            rec["op_walls"].append(w1 - w0)
            rec["by_kind"].setdefault(op.kind, []).append(w1 - w0)
            if not ok:
                rec["failed"] += 1
                rec["errors"].append(f"{op.kind}: {err}")
                continue
            try:
                op.check(result)
            except CheckFailed as exc:
                rec["errors"].append(f"WRONG {op.kind}: {exc}")
            except Exception:
                rec["errors"].append(f"WRONG {op.kind}: check raised "
                                     + traceback.format_exc(limit=3))
        rec["rounds"].append({"wall_s": wall, "cpu_s": cpu})
        rnd += 1
        if max_rounds is not None and rnd >= max_rounds:
            break
        if time.perf_counter() - start >= seconds:
            break
        if tracer is not None and len(tracer.sp_name) >= TRACE_SPAN_CAP:
            break
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, exit")
    args = parser.parse_args(argv)

    ops = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + child_setup_times(args, SETUP_SAMPLES - 1)
    ref_before = reference_loop()

    tracer = None
    if args.trace:
        import tracing
        untraced = run_rounds(ops, 0, max_rounds=1)
        tracer = tracing.Tracer()
        tracing.install(tracer)
    rec = run_rounds(ops, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference_loop()

    walls = [r["wall_s"] for r in rec["rounds"]]
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in rec["rounds"]),
                      "s"),
            "op_p50_s": (statistics.median(rec["op_walls"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        layer, per_round = tracer.per_round(list(range(len(walls))))
        metrics = {name: (value, tracing.unit_of(name))
                   for name, value in layer.items()}
        metrics["trace.overhead_s"] = (
            statistics.median(walls) - untraced["rounds"][0]["wall_s"], "s")
        for key in ("attempted", "failed", "errors"):
            rec[key] += untraced[key]
        unsteady = [m for m, vals in per_round.items()
                    if tracing.unit_of(m) == "count" and len(set(vals)) > 1]
        if unsteady:
            print(f"warning: counts differ between rounds: {unsteady}",
                  file=sys.stderr)
        WORKDIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(WORKDIR / f"trace-{args.workload}.npz")

    for err in rec["errors"]:
        print(err, file=sys.stderr)
    correct = not any(e.startswith("WRONG") for e in rec["errors"])
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rec["rounds"], "setup_samples": setups,
        "op_kind_median_s": {k: statistics.median(v)
                             for k, v in rec["by_kind"].items()},
        "reference_loop_s": {"before": ref_before, "after": ref_after},
        "result": result,
    }
    WORKDIR.mkdir(parents=True, exist_ok=True)
    (WORKDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print("reference (not a metric): " + json.dumps(
        {"loop_before_s": ref_before, "loop_after_s": ref_after}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
