#!/usr/bin/env bash
# Run the tier-1 test suite under ThreadSanitizer, AddressSanitizer and
# UndefinedBehaviorSanitizer.
#
# Usage: scripts/ci_sanitize.sh [thread|address|undefined]...
# With no arguments, all three sanitizers are run in sequence. Each
# sanitizer gets its own build tree (build-tsan/, build-asan/,
# build-ubsan/), configured with -DTDG_SANITIZE=<kind>; a nonzero exit
# from either configure, build, or ctest fails the script.
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(thread address undefined)
fi

jobs=$(nproc 2>/dev/null || echo 2)

for san in "${sanitizers[@]}"; do
  case "$san" in
    thread)    dir=build-tsan ;;
    address)   dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    *) echo "unknown sanitizer '$san' (expected thread|address|undefined)" >&2
       exit 2 ;;
  esac

  echo "=== [$san] configure ($dir) ==="
  cmake -B "$dir" -S . -DTDG_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

  echo "=== [$san] build ==="
  cmake --build "$dir" -j "$jobs"

  echo "=== [$san] ctest ==="
  # Sanitized binaries are several times slower; scale the per-test budget.
  # halt_on_error makes TSan reports fail the run instead of only logging.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
          --timeout 900

  echo "=== [$san] Chase-Lev deque stress ==="
  # The owner/thief stress is the one test whose interleavings matter most
  # under TSan; run it explicitly (and repeated) so a CI log always shows
  # it executed, independent of ctest sharding.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_deque --gtest_filter='ChaseLevDequeStress.*' \
          --gtest_repeat=3

  echo "=== [$san] discovery data-layer stress ==="
  # Table churn, 10k-address generations and entry-lifetime accounting:
  # the paths where a stale lookup-cache hit or a missed release would
  # surface as a use-after-free / leak only under the sanitizers.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_discovery --gtest_filter='DiscoveryTable.*' \
          --gtest_repeat=3

  echo "=== [$san] pruned edges racing completion ==="
  # The lock-free prune (an acquire load of the predecessor's finish
  # state) against workers finishing predecessors, and late dependents of
  # failed or cancelled tasks, which that prune must still poison.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_depend --gtest_filter='Depend.PruneRacesCompletion' \
          --gtest_repeat=3
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_fault --gtest_filter='ErrorPropagation.*' \
          --gtest_repeat=3

  echo "=== [$san] tenant pins, replay, successor handoff and slot accounting ==="
  # Per-worker hazard pins against tenant attach/detach, frozen successor
  # lists, moved captures and re-arm at completion under PTSG replay
  # (seeded random programs across a failed iteration), the depth-first
  # successor handoff (chains, poisoned handoffs, served accounting), and
  # the single-writer slot contract: per-slot live counts, the fence-paired
  # parking protocol, owned and shared metrics shards, and the shared trace
  # buffer of threads without a slot.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_multitenant --gtest_repeat=3
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_persistent --gtest_repeat=3
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_depend_closure --gtest_filter='ReplayClosure.*' \
          --gtest_repeat=3
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_runtime --gtest_repeat=3
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_metrics --gtest_repeat=3
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_profiler \
          --gtest_filter='Profiler.ForeignFulfilRecordsBesideTheProducer' \
          --gtest_repeat=3
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_fault \
          --gtest_filter='ErrorPropagation.HandedOffSuccessorOfFailedTaskIsCancelled' \
          --gtest_repeat=3

  echo "=== [$san] message numbering under fault injection ==="
  # A receive's stream number is written by whichever thread delivers its
  # message (the sender's isend or a mailbox match), before the request's
  # done release store; traced streams under loss and duplication.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_distributed_trace --gtest_filter='DistributedTrace.*' \
          --gtest_repeat=3

  echo "=== [$san] task body storage and deferred retries ==="
  # A spilled capture keeps its heap pointer inside the body's inline
  # bytes: a use-after-free or a leaked spill shows here first. Deferred
  # retries carry their deadline in the deferred queue, not the task.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_robustness --gtest_filter='TaskBody.*' \
          --gtest_repeat=3
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    "$dir"/tests/test_fault --gtest_filter='Retry.*' \
          --gtest_repeat=3
done

echo "=== sanitizer runs passed: ${sanitizers[*]} ==="

# Multi-tenant soak: many tenants on one shared WorkerPool under TSan and
# ASan with TDG_VERIFY=strict (reuses the sanitized trees built above).
scripts/ci_soak.sh

# Scheduler throughput smoke: guard against regressions in the spawn path
# (deque + slab allocator). Uses the unsanitized tree; see the script for
# the baseline-recording protocol.
scripts/ci_bench_smoke.sh

# Observability smoke: trace a run end-to-end, stitch the 4-rank
# distributed_halo traces with tdg-trace merge, and assert the merged
# view shows cross-rank message edges, nonzero comm wait, and a per-rank
# telemetry series. Uses the unsanitized tree.
scripts/ci_trace_smoke.sh

# Chaos soak: the example universes under seeded loss+kill fault plans,
# every cell with TDG_VERIFY=strict and a wall-clock cap. Uses the
# unsanitized tree (the sanitizers above already cover the comm layer's
# data races; this gate is about termination and soundness under faults).
scripts/ci_chaos.sh
