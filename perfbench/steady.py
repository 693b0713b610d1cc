"""Steadiness self-check: run the same code in two sets and compare them.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json once per seed (seeds 1..10,
the same in every set), untraced, for BENCHMARK.json's `run_seconds`. Per
(metric, workload) it reports each set's median and spread (interquartile
distance over the median, from statistics.quantiles(n=4)) and checks,
against the metric's `bound`:

  * each set's spread stays within the bound;
  * the second set's median differs from the first set's by at most the
    bound, in either direction.

It also checks that the round-population transcript digests of equal
(seed, op) pairs are identical across sets. Op failures (the programs'
correctness misses) are reported apart: they do not decide steadiness.
Raw results go to perfbench/out/steady-<time>.json. Exit code 0 when every
steadiness and digest check holds.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from run import HERE, ROOT, run_child

SETS = 2
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    runs = {}  # (set, workload, seed) -> (result, detail)
    for s in range(SETS):
        for name in names:
            for seed in SEEDS:
                t0 = time.perf_counter()
                runs[(s, name, seed)] = run_child(name, seed, spec["run_seconds"])
                result = runs[(s, name, seed)][0]
                print(f"set {s} {name} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                      f"attempted {result['attempted']} failed {result['failed']}", flush=True)

    ok = True
    print(f"\n{'workload':18s} {'metric':14s} {'bound':>6s}  " +
          "  ".join(f"set{s} median / spread" for s in range(SETS)) + "  verdict")
    for name in names:
        for m in spec["end_to_end"]:
            cols, breaches, notes, medians = [], [], [], []
            for s in range(SETS):
                vals = [runs[(s, name, seed)][0]["metrics"][m["name"]]["value"] for seed in SEEDS]
                med, spr = statistics.median(vals), spread(vals)
                medians.append(med)
                cols.append(f"{med:12.6g} / {spr:6.3f}")
                if spr > m["bound"]:
                    breaches.append(f"set{s} spread > bound")
                elif spr > m["bound"] / 3:
                    notes.append(f"set{s} spread > bound/3")
                if s and abs(med - medians[0]) / abs(medians[0]) > m["bound"]:
                    breaches.append(f"set{s} median differs from set0 by > bound")
            ok &= not breaches
            print(f"{name:18s} {m['name']:14s} {m['bound']:6.3f}  " + "  ".join(cols) + "  " +
                  ("; ".join(breaches + notes) or "ok"))

    digests_ok = True
    for name in names:
        for seed in SEEDS:
            per_set = [dict(map(tuple, runs[(s, name, seed)][1]["transcript_sha256"])) for s in range(SETS)]
            for other in per_set[1:]:
                common = per_set[0].keys() & other.keys()
                if any(per_set[0][op] != other[op] for op in common):
                    digests_ok = False
                    print(f"transcript digests differ: {name} seed {seed}")
    print("transcript digests:", "identical across sets" if digests_ok else "DIFFER")
    ok &= digests_ok
    print("steadiness:", "every check holds" if ok else "FAILED")

    failed = sum(r[0]["failed"] for r in runs.values())
    attempted = sum(r[0]["attempted"] for r in runs.values())
    print(f"\nops failed (correctness, reported apart from steadiness): {failed} of {attempted}")
    for key, (result, detail) in sorted(runs.items()):
        for f in detail["failures"][:3]:
            print(f"  set {key[0]} {key[1]} seed {key[2]}: {f}")
        for op, leader in detail["tamper_absorbed"]:
            print(f"  set {key[0]} {key[1]} seed {key[2]}: op {op}: tamper absorbed, group {leader} "
                  f"accepted with a correct teacher")

    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([{"set": s, "workload": n, "seed": seed, "result": r, "detail": d}
                               for (s, n, seed), (r, d) in sorted(runs.items())]))
    print("raw results:", out.relative_to(ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
