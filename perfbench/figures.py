"""One-off reference figures for perfbench/README.md (not part of a run).

    python3 perfbench/figures.py fields   # GF(256) and GF(1024) build times
    python3 perfbench/figures.py jobs     # --jobs 2 against --jobs 1 (crt)

`jobs` times exponent_scan with strategy crt, n = 8..9, on two GF(2)
Weierstrass cubics drawn as in the box-scan workload, alternating jobs = 1
and jobs = 2 five times, and prints the medians.
"""

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def fields():
    from polybox import ffield
    for k, repeats in ((8, 3), (10, 1)):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            ffield.FiniteField(2, k)
            times.append(time.perf_counter() - start)
        print(f"GF(2^{k}) build: median {statistics.median(times):.3f} s "
              f"over {repeats}")


def jobs():
    import random
    import oracles as O
    import workloads as W
    from polybox import boxcount, ffield
    F2, O2 = ffield.GF(2), O.Field(2)
    rng = random.Random("figures")
    curves = [W.bivar(F2, W.weierstrass_terms(O2, W.rand_poly(rng, 2, 2),
                                             W.rand_nonzero(rng, 2, 2)))
              for _ in range(2)]
    times = {1: [], 2: []}
    for rep in range(5):
        for j in ((1, 2) if rep % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            counts = [[r.count for r in boxcount.exponent_scan(
                c, range(8, 10), strategy="crt", jobs=j).rows]
                for c in curves]
            times[j].append(time.perf_counter() - start)
    for j, ts in times.items():
        print(f"jobs={j}: median {statistics.median(ts):.3f} s over "
              f"{len(ts)} (counts {counts})")


if __name__ == "__main__":
    {"fields": fields, "jobs": jobs}[sys.argv[1]]()
