#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs of the same build.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--out FILE]

For every workload in BENCHMARK.json, runs the benchmark command 10 times
per set for BENCHMARK.json's run_seconds, alternating set A and set B run
by run, each run with its own seed (set A: 1..10, set B: 101..110).  For
every end-to-end metric it prints each set's median and quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
pass or fail:

  * spread:   each set's spread is within the metric's bound;
  * drift:    the two sets' medians differ by at most the bound, as a
              share of set A's median, in either direction;
  * failures: the share of failed operations is the same in both sets.

Exits 0 when everything passes.  Raw results go to --out (default
.bench_work/steady.json).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEEDS = {"A": 1, "B": 101}


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path,
                    default=ROOT / ".bench_work" / "steady.json")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    raw = {w: {s: [] for s in SEEDS} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for s, first_seed in SEEDS.items():
                r = run_once(spec, w, first_seed + i)
                raw[w][s].append(r)
                print(f"# {w} set {s} seed {first_seed + i}: wall "
                      f"{r['wall_s']:.1f} s, correct {r['correct']}, failed "
                      f"{r['failed']}/{r['attempted']}", file=sys.stderr,
                      flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(raw, indent=1))

    ok = True
    for w in workloads:
        print(f"\n== {w} ({RUNS} runs per set, {spec['run_seconds']} s each)")
        print(f"{'metric':<14} {'bound':>5}  " + "  ".join(
            f"{s + ' median':>12} {s + ' q1':>10} {s + ' q3':>10} "
            f"{s + ' spread':>9}" for s in SEEDS) + "  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, verdict, meds = [], [], {}
            for s in SEEDS:
                vals = [r["metrics"][name]["value"] for r in raw[w][s]]
                med, q1, q3, sp = spread(vals)
                meds[s] = med
                cells.append(f"{med:>12.5g} {q1:>10.5g} {q3:>10.5g} "
                             f"{sp:>9.3f}")
                if sp > bound:
                    verdict.append(f"spread {s} > bound")
            drift = abs(meds["B"] - meds["A"]) / meds["A"]
            if drift > bound:
                verdict.append(f"sets differ by {drift:.3f}")
            ok = ok and not verdict
            print(f"{name:<14} {bound:>5}  " + "  ".join(cells) + "  " +
                  ("; ".join(verdict) if verdict else "pass"))
        shares = {s: sorted({r["failed"] / r["attempted"] for r in raw[w][s]})
                  for s in SEEDS}
        incorrect = sum(not r["correct"] for s in SEEDS for r in raw[w][s])
        same = len({tuple(v) for v in shares.values()}) == 1
        ok = ok and same and incorrect == 0
        print(f"failed share per set: {shares}; incorrect runs: {incorrect}"
              f" -> {'pass' if same and incorrect == 0 else 'FAIL'}")
    print(f"\nraw results: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
