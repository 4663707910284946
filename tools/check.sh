#!/usr/bin/env bash
# Full static/dynamic analysis gate for the SDUR repo.
#
# Runs, in order:
#   1. the static analyzer (tools/analyze): determinism rules, the src/
#      layering DAG, encode/decode symmetry and hot-path hygiene; writes
#      a machine-readable report to bench_json/ANALYZE.json;
#   2. clang-format / clang-tidy, when the tools exist (they are optional —
#      the reference container ships gcc only);
#   3. a -Werror compile of the whole tree (the warning set is
#      -Wall -Wextra -Wconversion -Wshadow, see CMakeLists.txt);
#   4. the test suite under AddressSanitizer + UndefinedBehaviorSanitizer;
#   5. the test suite under -D_GLIBCXX_ASSERTIONS (hardened libstdc++);
#   6. a -DSDUR_TRACE=OFF build: the tracing macros must compile to
#      no-ops (the tracer-heavy tests plus the histogram suite run to
#      prove the tree still builds and behaves without instrumentation);
#   7. a -DSDUR_AUDIT=OFF build (the benchmark configuration): the audit
#      hooks must compile out cleanly, and the golden-digest, equivalence
#      and per-technique suites must reproduce the audited build's
#      results bit for bit;
#   8. the test suite under ThreadSanitizer. The simulator is
#      single-threaded, so this is a smoke pass over the protocol tests;
#      the slow end-to-end suites are excluded unless SDUR_CHECK_FULL=1.
#
# Build trees land in build-{werror,asan,glibcxx,traceoff,audit-off,tsan}/ (see
# CMakePresets.json for the equivalent presets). Knobs:
#   SDUR_CHECK_JOBS=N   parallelism (default: nproc)
#   SDUR_CHECK_FULL=1   run every test (including the multi-minute
#                       integration sweeps) in the TSan stage too
#   SDUR_CHECK_SKIP_TSAN=1  skip the TSan stage entirely
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${SDUR_CHECK_JOBS:-$(nproc)}"
FULL="${SDUR_CHECK_FULL:-0}"
SKIP_TSAN="${SDUR_CHECK_SKIP_TSAN:-0}"

bold() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

configure_and_build() { # <dir> <cmake-args...>
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >"$dir.configure.log" 2>&1 || {
    cat "$dir.configure.log"; return 1; }
  cmake --build "$dir" -j "$JOBS"
}

run_ctest() { # <dir> <extra ctest args...>
  local dir="$1"; shift
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "$@")
}

bold "1/8 static analysis"
mkdir -p bench_json
python3 tools/analyze --selftest
python3 tools/analyze --json bench_json/ANALYZE.json

bold "2/8 clang-format / clang-tidy (optional)"
if command -v clang-format >/dev/null 2>&1; then
  mapfile -t fmt_files < <(git ls-files '*.h' '*.cpp')
  clang-format --dry-run --Werror "${fmt_files[@]}"
  echo "clang-format: clean"
else
  echo "clang-format not installed — skipped (config: .clang-format)"
fi
if command -v clang-tidy >/dev/null 2>&1 && command -v run-clang-tidy >/dev/null 2>&1; then
  configure_and_build build-tidy -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  run-clang-tidy -p build-tidy -quiet -j "$JOBS" 'src/.*\.cpp'
else
  echo "clang-tidy not installed — skipped (config: .clang-tidy)"
fi

bold "3/8 -Werror compile (-Wall -Wextra -Wconversion -Wshadow)"
configure_and_build build-werror -DCMAKE_CXX_FLAGS=-Werror
echo "warnings-clean"

bold "4/8 ASan + UBSan test suite"
configure_and_build build-asan -DSDUR_SANITIZE=asan
ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
  run_ctest build-asan

bold "5/8 _GLIBCXX_ASSERTIONS test suite"
configure_and_build build-glibcxx -DSDUR_GLIBCXX_ASSERTIONS=ON
run_ctest build-glibcxx

bold "6/8 SDUR_TRACE=OFF build"
# The tracing macros must vanish cleanly: the whole tree compiles with
# SDUR_TRACE=0 and the trace/histogram tests still pass (the equivalence
# test proves the simulation itself never depended on the tracer).
configure_and_build build-traceoff -DSDUR_TRACE=OFF
# latency_breakdown_smoke / trace_json_parses are excluded: with the
# instrumentation compiled out there is nothing to attribute or export.
run_ctest build-traceoff --no-tests=error -R 'Trace|Histogram'

bold "7/8 SDUR_AUDIT=OFF build"
# Audit hooks wrap protocol code throughout src/; an audit-off compile
# has broken silently before. The digest pins hold in both flavours
# because the audit never influences results. Filtered stages pass
# --no-tests=error, so a renamed suite cannot silently empty one.
configure_and_build build-audit-off -DSDUR_AUDIT=OFF
run_ctest build-audit-off --no-tests=error \
  -R 'Golden|Legacy|Equiv|Digest|Speculation|ConvoyBypass|VoteBatch'

bold "8/8 TSan test suite"
if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "skipped (SDUR_CHECK_SKIP_TSAN=1)"
else
  configure_and_build build-tsan -DSDUR_SANITIZE=tsan
  tsan_args=()
  if [[ "$FULL" != "1" ]]; then
    # The sim is single-threaded; exclude the multi-minute end-to-end
    # sweeps, which cannot race any more than the unit tests can.
    tsan_args=(-E 'Integration\.|Sweep/|Torture')
  fi
  TSAN_OPTIONS="halt_on_error=1" run_ctest build-tsan "${tsan_args[@]}"
fi

bold "all checks passed"
