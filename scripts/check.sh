#!/usr/bin/env bash
# Sanitized check: configure with ASan+UBSan into a separate build tree,
# build everything, run the full test suite (including obs_test), then run
# every bench in smoke mode with tracing on and validate that each emitted
# TRACE_<name>.json is well-formed JSON. Any sanitizer report fails the
# run (halt_on_error).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-sanitize"

echo "== doc check: stale references in docs/ and README =="
python3 "${ROOT}/scripts/doc_check.py" --self-test

echo "== metrics lint: OpenMetrics validator self-test =="
python3 "${ROOT}/scripts/metrics_lint.py" --self-test

# Benches measure through Database::Query (bench/workloads.h MeasureQuery),
# which times, governs and logs execution. Only bench_index.cc's
# forced-scan side may build its own Executor: use_secondary_indexes is a
# switch QueryOptions does not expose.
echo "== bench harness: no private Executor outside bench_index.cc =="
if grep -lwE 'Executor|ExecOptions' "${ROOT}"/bench/*.cc |
    grep -v '/bench_index\.cc$'; then
  echo "the bench files above build an Executor; use MeasureQuery" >&2
  exit 1
fi

cmake -B "${BUILD}" -S "${ROOT}" -DSTARMAGIC_SANITIZE=ON
cmake --build "${BUILD}" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# Compile identity under ASan, as its own step: any change to a chosen
# plan, C1/C2 or emst_chosen of the golden query set fails here with the
# first differing line of tests/golden/compile_identity.txt (ctest below
# runs it again with the rest of the suite).
echo "== compile identity golden (asan) =="
"${BUILD}/tests/compile_golden_test"

# Observability identity under ASan, likewise its own step: the sys.*
# rows, EXPLAIN ANALYZE text and metrics of a fixed script must match
# tests/golden/observability.txt (wall-clock fields masked).
echo "== observability golden (asan) =="
"${BUILD}/tests/obs_golden_test"

ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)"

# Observability server smoke under ASan: start → scrape → shutdown, with
# the live /metrics exposition captured and linted against the OpenMetrics
# rules (HELP/TYPE pairing, _total suffixes, bucket monotonicity, # EOF).
echo "== obs server smoke + live-scrape lint (asan) =="
SCRAPE="$(mktemp)"
STARMAGIC_SCRAPE_OUT="${SCRAPE}" "${BUILD}/tests/net_test" \
  --gtest_filter='ObsServerTest.*:ObsExpositionTest.*'
python3 "${ROOT}/scripts/metrics_lint.py" "${SCRAPE}"
rm -f "${SCRAPE}"

# Bench smoke: tiny scales (STARMAGIC_BENCH_SMOKE), tracing on. Timing
# claims are forgiven at smoke scale; correctness claims and sanitizer
# reports still fail. The battery runs TWICE into separate dirs: run A is
# validated, and diffing A against B must show zero work-counter
# regressions — the counters are deterministic, so any delta is a bug.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
export STARMAGIC_BENCH_SMOKE=1
export STARMAGIC_TRACE=1
run_smoke_battery() {
  local dir="$1"
  mkdir -p "${dir}"
  cd "${dir}"
  for bench in table1 index figure1 figure4 heuristic ablation recursive tpcd parallel plancache systables; do
    echo "== bench_${bench} (smoke, $(basename "${dir}")) =="
    "${BUILD}/bench/bench_${bench}" > "out_${bench}.txt"
  done
  echo "== bench_microbench (smoke, $(basename "${dir}")) =="
  "${BUILD}/bench/bench_microbench" --benchmark_min_time=0.01 \
    > out_microbench.txt
}
run_smoke_battery "${SMOKE_DIR}/run_a"
run_smoke_battery "${SMOKE_DIR}/run_b"
cd "${SMOKE_DIR}/run_a"

echo "== bench report: schema validation =="
python3 "${ROOT}/scripts/bench_report.py" --validate BENCH_*.json

echo "== bench report: consolidated summary =="
python3 "${ROOT}/scripts/bench_report.py" --summary "${SMOKE_DIR}/run_a"

echo "== bench report: determinism diff (run A vs run B) =="
python3 "${ROOT}/scripts/bench_report.py" \
  --diff "${SMOKE_DIR}/run_a" "${SMOKE_DIR}/run_b"

# Trajectory: the smoke battery's work counters and row counts against the
# checked-in baseline. Any change in either direction fails, so a change
# that moves work on purpose regenerates bench/baseline/ in the same
# commit (see bench/baseline/README.md).
echo "== bench report: work-counter baseline (bench/baseline vs run A) =="
python3 "${ROOT}/scripts/bench_report.py" --exact \
  --diff "${ROOT}/bench/baseline" "${SMOKE_DIR}/run_a"

for trace in TRACE_*.json; do
  python3 - "${trace}" <<'PY'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, f"{path}: no trace events"
for e in events:
    assert e["ph"] in ("X", "i"), f"{path}: bad phase {e['ph']!r}"
print(f"{path}: OK ({len(events)} events)")
PY
done

# End-to-end identity: perfbench's traced run answers half of each
# workload through Database::Query and half through its own decomposed
# copy of the compile/execute path (parse, build, optimize, plan cache,
# bind, execute), and exits non-zero on any rows / work / governor peak /
# plan-cache counter difference. Running it here makes any drift between
# the engine's one compile path and that copy fail the check (~1 minute
# for all three workloads, build included).
echo "== perfbench traced identity runs =="
for workload in report_views adhoc_lookups prepared_oltp; do
  python3 "${ROOT}/perfbench/run.py" --workload "${workload}" --seed 7 \
    --seconds 2 --trace 1
done

# ThreadSanitizer battery: a separate build tree (TSan and ASan cannot
# coexist) covering the parallel subsystem — the worker-pool/determinism
# tests, the governor's cross-thread accounting and cancellation paths,
# the sys.* snapshot battery (snapshot-at-scan-start sharing one
# materialized table across parallel morsels), the plan cache (cached
# plans cloned and executed from multiple threads while the cache is
# probed), the observability server (scraping /metrics and
# /sys/active_queries from a second thread while an 8-way recursive
# query runs), plus a 4-thread smoke run of the parallel bench. Any
# data race fails the run.
echo "== tsan: parallel subsystem + obs server =="
TSAN_BUILD="${ROOT}/build-tsan"
cmake -B "${TSAN_BUILD}" -S "${ROOT}" -DSTARMAGIC_SANITIZE=THREAD
cmake --build "${TSAN_BUILD}" -j "$(nproc)" --target parallel_test governor_test sys_test plan_cache_test net_test bench_parallel
export TSAN_OPTIONS="halt_on_error=1"
"${TSAN_BUILD}/tests/parallel_test"
"${TSAN_BUILD}/tests/governor_test"
"${TSAN_BUILD}/tests/sys_test"
"${TSAN_BUILD}/tests/plan_cache_test"
"${TSAN_BUILD}/tests/net_test"
TSAN_DIR="${SMOKE_DIR}/tsan"
mkdir -p "${TSAN_DIR}"
cd "${TSAN_DIR}"
STARMAGIC_THREADS=4 "${TSAN_BUILD}/bench/bench_parallel" > out_parallel_tsan.txt
echo "tsan battery clean"

echo "ALL CHECKS PASSED"
