#!/usr/bin/env bash
# Static analysis + TDG soundness gate:
#   0. One configuration surface: no getenv under src/ outside
#      src/core/env.cpp.
#   1. clang-tidy over src/ and tools/ with the repo's .clang-tidy profile
#      (skipped with a notice when clang-tidy is not installed — the
#      container toolchain is gcc-only).
#   2. The verifier self-tests (tests/test_verify): seeded determinacy
#      races, PTSG drift, lint findings, reachability corner cases.
#   3. The runtime checker's self-tests (tests/test_race): seeded edge
#      drops caught at the taskwait, sample mode and its subset
#      soundness, per-window cost, range-overlap findings, tenant
#      isolation.
#   4. The dependence-rule suites on both engines (tests/test_depend for
#      the runtime, tests/test_sim_graph for the simulator and exact
#      edge-list parity between the two, tests/test_depend_closure for
#      bounded histories and closure equality with a naive reference
#      model), plain and under TDG_VERIFY=strict.
#   5. The observability suites (tests/test_metrics, test_profiler,
#      test_trace_export, test_distributed_trace): the one metrics store,
#      the §2.3.1 breakdown read from it, the lossless Perfetto trace
#      round-trip, and the live-telemetry series.
#   6. TDG_VERIFY=strict runs of the application test suites: any
#      conflicting access pair the discovered graph fails to order throws
#      VerifyError at the next taskwait and fails the run.
#   7. A TDG_VERIFY=sample multitenant_soak pass: the production-shaped
#      sampling configuration must stay finding-free under concurrent
#      submitters on a shared pool.
#   8. tdg-trace verify / tdg-lint smoke on a freshly recorded trace.
#
# Usage: scripts/ci_static.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

dir=${1:-build}
jobs=$(nproc 2>/dev/null || echo 2)

echo "=== [static] one environment reader (src/core/env.cpp) ==="
if readers=$(grep -rn 'getenv' src | grep -v '^src/core/env\.cpp:'); then
  echo "getenv outside src/core/env.cpp; parse the knob in read_env():" >&2
  echo "$readers" >&2
  exit 1
fi

echo "=== [static] configure ($dir) ==="
cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTDG_WERROR=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null

echo "=== [static] build ==="
cmake --build "$dir" -j "$jobs" \
      --target test_verify test_race test_depend test_sim_graph \
               test_depend_closure \
               test_metrics test_profiler test_trace_export \
               test_distributed_trace \
               test_cholesky test_lulesh test_taskbench tdg-trace \
               cholesky_demo multitenant_soak

if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== [static] clang-tidy ==="
  # Sources only; headers are covered through HeaderFilterRegex.
  clang-tidy -p "$dir" --quiet \
      src/core/*.cpp src/mpi/*.cpp src/apps/*/*.cpp src/sim/*.cpp \
      tools/*.cpp
else
  echo "=== [static] clang-tidy not installed; skipping lint pass ==="
fi

echo "=== [static] verifier self-tests ==="
"$dir"/tests/test_verify

echo "=== [static] runtime checker self-tests ==="
"$dir"/tests/test_race

echo "=== [static] dependence rules on both engines ==="
"$dir"/tests/test_depend
"$dir"/tests/test_sim_graph
"$dir"/tests/test_depend_closure
TDG_VERIFY=strict "$dir"/tests/test_depend
TDG_VERIFY=strict "$dir"/tests/test_sim_graph
TDG_VERIFY=strict "$dir"/tests/test_depend_closure

echo "=== [static] observability suites ==="
"$dir"/tests/test_metrics
"$dir"/tests/test_profiler
"$dir"/tests/test_trace_export
"$dir"/tests/test_distributed_trace

echo "=== [static] TDG_VERIFY=strict application suites ==="
TDG_VERIFY=strict "$dir"/tests/test_cholesky
TDG_VERIFY=strict "$dir"/tests/test_lulesh
TDG_VERIFY=strict "$dir"/tests/test_taskbench

echo "=== [static] TDG_VERIFY=sample multitenant soak ==="
TDG_VERIFY=sample "$dir"/examples/multitenant_soak --tenants 4 --graphs 200

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
trace="$workdir/trace.json"

echo "=== [static] record a verification trace (cholesky_demo) ==="
(cd "$workdir" && TDG_VERIFY=post TDG_TRACE=perfetto \
    TDG_TRACE_FILE="$trace" "$OLDPWD/$dir/examples/cholesky_demo" 8 32)
[ -s "$trace" ] || { echo "trace file was not written" >&2; exit 1; }

echo "=== [static] tdg-trace verify ==="
"$dir"/tools/tdg-trace verify "$trace"

echo "=== [static] tdg-lint (strict) ==="
"$dir"/tools/tdg-lint "$trace" --strict

echo "=== static analysis + verification gate passed ==="
