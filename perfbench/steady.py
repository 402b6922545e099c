#!/usr/bin/env python3
"""Steadiness and determinism report for the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--seed-base 1] [--seconds S]

Run from the repository root. For each workload it makes `sets` sets of
`runs` runs through perfbench/run.py (--trace 0), run j of every set with
seed seed-base + j. For each end-to-end metric of BENCHMARK.json it prints
each set's median, quartiles and relative spread, (q3 - q1) / median, next
to the metric's bound. It exits non-zero when

  - a run fails or reports correct = false;
  - one seed gives different operations, results, work_per_op or
    peak_query_mb in two sets (the fingerprint line of the run);
  - a spread other than setup_s's exceeds the metric's bound;
  - a later set's median is worse than the first set's by more than the
    bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), "")
    return json.loads(lines[-1]), fingerprint


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    problems = []
    for workload in args.workloads.split(","):
        sets = []
        fingerprints = {}
        for s in range(args.sets):
            results = []
            for j in range(args.runs):
                seed = args.seed_base + j
                result, fingerprint = run_once(workload, seed, args.seconds)
                if result is None or not result["correct"]:
                    problems.append(f"{workload} seed {seed}: run failed")
                    continue
                first = fingerprints.setdefault(seed, fingerprint)
                if fingerprint != first:
                    problems.append(f"{workload} seed {seed}: not "
                                    f"deterministic ({first} / {fingerprint})")
                results.append(result)
            sets.append(results)
        print(f"\n{workload}: {args.sets} sets x {args.runs} runs, "
              f"{args.seconds} s each")
        print(f"  {'metric':<16}{'set':>4}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'spread':>9}{'bound':>8}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            base = None
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                if len(values) < 2:
                    continue
                med, q1, q3, rel = spread(values)
                print(f"  {name:<16}{s + 1:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{rel:>9.3f}{bound:>8.3f}")
                if name != "setup_s" and rel > bound:
                    problems.append(f"{workload} {name} set {s + 1}: spread "
                                    f"{rel:.3f} > bound {bound}")
                if base is None:
                    base = med
                    continue
                worse = (med - base if m["better"] == "lower"
                         else base - med) / base if base else 0.0
                if worse > bound:
                    problems.append(f"{workload} {name} set {s + 1}: median "
                                    f"worse by {worse:.3f} > bound {bound}")
    print()
    for p in problems:
        print("FAIL", p)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
