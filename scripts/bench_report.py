#!/usr/bin/env python3
"""Validate and diff the unified BENCH_<name>.json reports.

Every bench binary emits one BENCH_<name>.json in the shared schema
(see bench/bench_json.h):

  {"schema_version": 1, "bench": "<name>", "scale": N, "smoke": bool,
   "samples": [{"workload": ..., "strategy": ..., "total_work": N,
                "wall_ms": X, "rows": N}, ...]}

Usage:
  bench_report.py --validate FILE [FILE ...]
      Schema-check each file; exit 1 on the first malformed one.

  bench_report.py --diff DIR_A DIR_B [--threshold PCT] [--exact]
      Compare the BENCH_*.json sets of two result directories keyed by
      (bench, workload, strategy). `total_work` is deterministic, so any
      increase beyond --threshold percent (default 0) is a regression and
      the exit code is 1. Wall times are machine-noisy and only reported.
      With --exact (the check against the checked-in bench/baseline/),
      every difference fails: work moving in either direction, rows, and
      samples present on one side only. A deliberate change regenerates
      the baseline in the same change.

  bench_report.py --summary DIR
      Consolidate DIR's per-bench files into DIR/BENCH_summary.json:
      one headline entry per bench (scale, smoke, sample/workload counts,
      summed deterministic work, summed wall time) plus the git SHA the
      numbers were taken at. The emitted file is validated like any other
      report (validate_file recognizes the summary schema), and load_dir
      skips it so a summarized directory still diffs cleanly.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

SCHEMA_VERSION = 1

SUMMARY_BASENAME = "BENCH_summary.json"


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return False


def check_field(path, obj, field, types, where):
    if field not in obj:
        return fail(path, f"missing '{field}' in {where}")
    if not isinstance(obj[field], types):
        # bool is an int subclass in Python; reject it for numeric fields.
        return fail(path, f"'{field}' in {where} has wrong type "
                          f"({type(obj[field]).__name__})")
    return True


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level must be an object")
    if doc.get("summary") is True:
        return validate_summary(path, doc)
    if doc.get("schema_version") != SCHEMA_VERSION:
        return fail(path, f"schema_version must be {SCHEMA_VERSION}, "
                          f"got {doc.get('schema_version')!r}")
    if not check_field(path, doc, "bench", str, "top level"):
        return False
    if not isinstance(doc.get("scale"), int) or isinstance(doc.get("scale"), bool):
        return fail(path, "'scale' must be an integer")
    if not isinstance(doc.get("smoke"), bool):
        return fail(path, "'smoke' must be a boolean")
    samples = doc.get("samples")
    if not isinstance(samples, list) or not samples:
        return fail(path, "'samples' must be a non-empty list")
    for i, s in enumerate(samples):
        where = f"samples[{i}]"
        if not isinstance(s, dict):
            return fail(path, f"{where} must be an object")
        for field in ("workload", "strategy"):
            if not check_field(path, s, field, str, where):
                return False
        for field in ("total_work", "rows"):
            if field not in s or not isinstance(s[field], int) \
                    or isinstance(s[field], bool) or s[field] < 0:
                return fail(path, f"'{field}' in {where} must be a "
                                  "non-negative integer")
        if "wall_ms" not in s or not is_number(s["wall_ms"]) \
                or s["wall_ms"] < 0:
            return fail(path, f"'wall_ms' in {where} must be a "
                              "non-negative number")
    if not check_thread_invariance(path, samples):
        return False
    if not check_plan_cache_identity(path, samples, doc["smoke"]):
        return False
    print(f"{path}: ok ({doc['bench']}, {len(samples)} samples, "
          f"scale={doc['scale']}, smoke={doc['smoke']})")
    return True


def check_thread_invariance(path, samples):
    """Samples that only differ in thread count ('threads=N' strategies)
    must report identical total_work and rows: only wall_ms may vary with
    the thread count (the parallel executor's determinism contract)."""
    by_workload = {}
    for s in samples:
        if s["strategy"].startswith("threads="):
            by_workload.setdefault(s["workload"], []).append(s)
    for workload, group in sorted(by_workload.items()):
        baseline = group[0]
        for s in group[1:]:
            for field in ("total_work", "rows"):
                if s[field] != baseline[field]:
                    return fail(
                        path,
                        f"workload '{workload}': {field} varies with the "
                        f"thread count ({baseline['strategy']}: "
                        f"{baseline[field]} vs {s['strategy']}: {s[field]})")
    return True


def check_plan_cache_identity(path, samples, smoke):
    """Samples that only differ in the 'plan_cache=cold' /
    'plan_cache=cached' strategy (bench_plancache) must report identical
    total_work and rows — executing a cached plan may never compute
    anything different from a cold compile of the same statement. Unlike
    the overhead gates this is pure identity with no wall budget: the
    cached side is *expected* to be faster (it skips compilation), and
    the bench binary gates that speedup itself at single-thread cells.
    A cached run that is slower is reported as a note here — wall times
    are machine-noisy and, at smoke scale, too short to mean anything —
    but the work/rows identity fails at every scale and thread count."""
    by_workload = {}
    for s in samples:
        if s["strategy"] in ("plan_cache=cold", "plan_cache=cached"):
            by_workload.setdefault(s["workload"], {})[s["strategy"]] = s
    ok = True
    for workload, pair in sorted(by_workload.items()):
        if len(pair) != 2:
            ok = fail(path, f"workload '{workload}': need both "
                            "plan_cache=cold and plan_cache=cached samples "
                            "to compare")
            continue
        cold, cached = pair["plan_cache=cold"], pair["plan_cache=cached"]
        for field in ("total_work", "rows"):
            if cold[field] != cached[field]:
                ok = fail(path, f"workload '{workload}': {field} diverges "
                                f"between cold compile and cached plan "
                                f"({cold[field]} vs {cached[field]})")
        if cold["wall_ms"] > 0 and cached["wall_ms"] > cold["wall_ms"] \
                and not smoke:
            print(f"{path}: note: workload '{workload}': cached execution "
                  f"({cached['wall_ms']}ms) slower than cold compile "
                  f"({cold['wall_ms']}ms)")
    return ok


def validate_summary(path, doc):
    """Schema check for BENCH_summary.json (see summarize)."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        return fail(path, f"schema_version must be {SCHEMA_VERSION}, "
                          f"got {doc.get('schema_version')!r}")
    if not check_field(path, doc, "git_sha", str, "top level"):
        return False
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        return fail(path, "'benches' must be a non-empty object")
    for bench, entry in benches.items():
        where = f"benches['{bench}']"
        if not isinstance(entry, dict):
            return fail(path, f"{where} must be an object")
        if not isinstance(entry.get("smoke"), bool):
            return fail(path, f"'smoke' in {where} must be a boolean")
        for field in ("scale", "samples", "workloads", "total_work"):
            if not isinstance(entry.get(field), int) \
                    or isinstance(entry.get(field), bool) \
                    or entry[field] < 0:
                return fail(path, f"'{field}' in {where} must be a "
                                  "non-negative integer")
        if "wall_ms" not in entry or not is_number(entry["wall_ms"]) \
                or entry["wall_ms"] < 0:
            return fail(path, f"'wall_ms' in {where} must be a "
                              "non-negative number")
    print(f"{path}: ok (summary, {len(benches)} benches, "
          f"git_sha={doc['git_sha']})")
    return True


def git_sha():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(directory):
    """Writes DIR/BENCH_summary.json from DIR's per-bench reports."""
    benches = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        if os.path.basename(path) == SUMMARY_BASENAME:
            continue
        if not validate_file(path):
            return 1
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        samples = doc["samples"]
        benches[doc["bench"]] = {
            "scale": doc["scale"],
            "smoke": doc["smoke"],
            "samples": len(samples),
            "workloads": len({s["workload"] for s in samples}),
            "total_work": sum(s["total_work"] for s in samples),
            "wall_ms": round(sum(s["wall_ms"] for s in samples), 3),
        }
    if not benches:
        print(f"{directory}: no BENCH_*.json files found", file=sys.stderr)
        return 1
    summary = {
        "schema_version": SCHEMA_VERSION,
        "summary": True,
        "git_sha": git_sha(),
        "benches": benches,
    }
    out_path = os.path.join(directory, SUMMARY_BASENAME)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0 if validate_file(out_path) else 1


def load_dir(directory):
    """Returns {(bench, workload, strategy): sample-dict} plus per-bench meta.

    BENCH_summary.json matches the BENCH_*.json glob but has no samples;
    it is skipped so a summarized directory still diffs cleanly."""
    samples = {}
    meta = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        if os.path.basename(path) == SUMMARY_BASENAME:
            continue
        if not validate_file(path):
            sys.exit(1)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        meta[doc["bench"]] = {"scale": doc["scale"], "smoke": doc["smoke"]}
        for s in doc["samples"]:
            key = (doc["bench"], s["workload"], s["strategy"])
            if key in samples:
                print(f"{path}: duplicate sample key {key}", file=sys.stderr)
                sys.exit(1)
            samples[key] = s
    if not samples:
        print(f"{directory}: no BENCH_*.json files found", file=sys.stderr)
        sys.exit(1)
    return samples, meta


def diff(dir_a, dir_b, threshold_pct, exact=False):
    a, meta_a = load_dir(dir_a)
    b, meta_b = load_dir(dir_b)

    for bench in sorted(set(meta_a) & set(meta_b)):
        if meta_a[bench]["scale"] != meta_b[bench]["scale"]:
            print(f"{bench}: scale mismatch ({meta_a[bench]['scale']} vs "
                  f"{meta_b[bench]['scale']}); refusing to diff",
                  file=sys.stderr)
            sys.exit(1)

    regressions = []
    improvements = 0
    unchanged = 0
    for key in sorted(set(a) & set(b)):
        work_a, work_b = a[key]["total_work"], b[key]["total_work"]
        if a[key]["rows"] != b[key]["rows"]:
            regressions.append((key, work_a, work_b,
                                f"rows diverged: {a[key]['rows']} vs "
                                f"{b[key]['rows']}"))
            continue
        limit = work_a + work_a * threshold_pct / 100.0
        if work_b > limit:
            pct = 100.0 * (work_b - work_a) / work_a if work_a else float("inf")
            regressions.append((key, work_a, work_b, f"+{pct:.1f}% work"))
        elif work_b < work_a:
            if exact:
                regressions.append((key, work_a, work_b, "work fell"))
            else:
                improvements += 1
        else:
            unchanged += 1

    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    for key, where in ([(k, dir_a) for k in only_a] +
                       [(k, dir_b) for k in only_b]):
        print(f"note: {'/'.join(key)} only in {where}")
        if exact:
            regressions.append((key, a.get(key, {}).get("total_work"),
                                b.get(key, {}).get("total_work"),
                                f"only in {where}"))

    mode = "exact" if exact else f"threshold {threshold_pct}%"
    print(f"\ncompared {len(set(a) & set(b))} samples: "
          f"{unchanged} unchanged, {improvements} improved, "
          f"{len(regressions)} regressed ({mode})")
    for key, work_a, work_b, why in regressions:
        print(f"REGRESSION {'/'.join(key)}: {work_a} -> {work_b} ({why})")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--validate", nargs="+", metavar="FILE",
                        help="schema-check BENCH_*.json files")
    parser.add_argument("--diff", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="diff two result directories")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="allowed total_work increase in percent "
                             "(default 0: counters are deterministic)")
    parser.add_argument("--exact", action="store_true",
                        help="with --diff: fail on any work or row change "
                             "in either direction and on unmatched samples")
    parser.add_argument("--summary", metavar="DIR",
                        help="write and validate DIR/BENCH_summary.json")
    args = parser.parse_args()

    modes = [bool(args.validate), bool(args.diff), bool(args.summary)]
    if sum(modes) != 1:
        parser.error("exactly one of --validate / --diff / --summary "
                     "is required")

    if args.validate:
        ok = all([validate_file(p) for p in args.validate])
        return 0 if ok else 1
    if args.summary:
        return summarize(args.summary)
    return diff(args.diff[0], args.diff[1], args.threshold, args.exact)


if __name__ == "__main__":
    sys.exit(main())
