#!/usr/bin/env bash
# Tier-1 verification, as a sequence of named suites:
#
#   build        regular configure + build
#   tests        full ctest suite (the ROADMAP command)
#   asan         ASan+UBSan build re-running the whole ctest suite
#   tsan         ThreadSanitizer build re-running the whole ctest suite
#   pipeline     learning-pipeline parallelism: micro_pipeline emits
#                BENCH_pipeline.json (bit-identity enforced by the binary)
#   telemetry    observability layer: micro_telemetry enforces the <2%
#                disabled-overhead gate (BENCH_telemetry.json)
#   chaos        fault-injection layer: micro_faults enforces the <1%
#                disabled-overhead gate and bit-identical figures under
#                the never-firing `*=p0` schedule (BENCH_faults.json)
#   verify       IL verifier + differential fuzzer: a fixed-seed 30-second
#                fuzz smoke (interpreter vs every opt level vs async, deep
#                verifier interposed — zero divergences), corpus replay,
#                and the <3% disabled-hook overhead gate (BENCH_fuzz.json)
#   serve        multi-client serving daemon: micro_serve enforces
#                bit-identical client streams vs the single-client loop,
#                the >=1.5x cross-client batching speedup, and exact shed
#                accounting (BENCH_serve.json), plus the Serve ctest suite
#
# The script stops at the first failing suite with a non-zero exit, and
# always ends with a summary table (result + wall time per suite).
set -u
cd "$(dirname "$0")/.."

SUITES=()
RESULTS=()
TIMES=()

finish() {
  local code=$1
  echo
  echo "== tier1 summary =="
  printf '%-10s %-7s %s\n' "suite" "result" "wall"
  printf '%-10s %-7s %s\n' "-----" "------" "----"
  for i in "${!SUITES[@]}"; do
    printf '%-10s %-7s %ss\n' "${SUITES[$i]}" "${RESULTS[$i]}" "${TIMES[$i]}"
  done
  exit "$code"
}

run_suite() {
  local name=$1
  shift
  echo
  echo "== tier1: $name =="
  SUITES+=("$name")
  local start
  start=$(date +%s)
  if "$@"; then
    TIMES+=("$(( $(date +%s) - start ))")
    RESULTS+=("PASS")
  else
    TIMES+=("$(( $(date +%s) - start ))")
    RESULTS+=("FAIL")
    finish 1
  fi
}

# The sanitizer suites reuse persistent build dirs. A stale dir configured
# WITHOUT the sanitizer flag would silently run plain builds and pass
# vacuously, so verify the cached flag before trusting the directory.
require_flag() {
  local dir=$1 flag=$2
  if [ -d "$dir" ] && ! grep -q "^${flag}:BOOL=ON$" "$dir/CMakeCache.txt" 2>/dev/null; then
    echo "error: $dir exists but was not configured with -D${flag}=ON." >&2
    echo "       Delete $dir and re-run (a stale cache would skip the sanitizer)." >&2
    return 1
  fi
}

build_step() {
  cmake -B build -S . && cmake --build build -j"$(nproc)"
}

tests_step() {
  (cd build && ctest --output-on-failure -j"$(nproc)")
}

asan_step() {
  require_flag build-asan JITML_SANITIZE &&
    cmake -B build-asan -S . -DJITML_SANITIZE=ON &&
    cmake --build build-asan -j"$(nproc)" --target jitml_tests jitml_exec_tests &&
    (cd build-asan && ctest --output-on-failure -j"$(nproc)")
}

tsan_step() {
  require_flag build-tsan JITML_TSAN &&
    cmake -B build-tsan -S . -DJITML_TSAN=ON &&
    cmake --build build-tsan -j"$(nproc)" --target jitml_tests jitml_exec_tests &&
    (cd build-tsan && ctest --output-on-failure -j"$(nproc)")
}

pipeline_step() {
  cmake --build build -j"$(nproc)" --target micro_pipeline &&
    ./build/bench/micro_pipeline BENCH_pipeline.json
}

telemetry_step() {
  cmake --build build -j"$(nproc)" --target micro_telemetry &&
    ./build/bench/micro_telemetry BENCH_telemetry.json
}

chaos_step() {
  cmake --build build -j"$(nproc)" --target micro_faults &&
    ./build/bench/micro_faults BENCH_faults.json
}

verify_step() {
  cmake --build build -j"$(nproc)" --target fuzz_differential jitml_tests &&
    ./build/bench/fuzz_differential --seed 1 --seconds 30 --execs 0 &&
    ./build/bench/fuzz_differential --overhead-gate --json BENCH_fuzz.json &&
    (cd build && ctest --output-on-failure -j"$(nproc)" -R \
      'Corpus\.|ILVerifierDeep\.|PassVerifier\.|Oracle\.|Reducer\.|Campaign\.|FuzzInput\.')
}

serve_step() {
  cmake --build build -j"$(nproc)" --target micro_serve jitml_tests &&
    ./build/bench/micro_serve BENCH_serve.json &&
    (cd build && ctest --output-on-failure -j"$(nproc)" -R 'Serve\.')
}

run_suite build build_step
run_suite tests tests_step
run_suite asan asan_step
run_suite tsan tsan_step
run_suite pipeline pipeline_step
run_suite telemetry telemetry_step
run_suite chaos chaos_step
run_suite verify verify_step
run_suite serve serve_step
finish 0
