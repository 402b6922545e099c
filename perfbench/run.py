#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine library (src/) and the driver
(perfbench/src/) are built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr so that the
last line of stdout is the driver's JSON result. Per-run files (results,
span traces) are written to .bench_out/. Exits non-zero without a result
when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build(build_dir: Path) -> bool:
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
    ]
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = build_dir / "perfbench"
    cmd = [str(binary), *sys.argv[1:], "--out", str(ROOT / ".bench_out")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
