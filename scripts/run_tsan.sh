#!/usr/bin/env bash
# Builds the repo under ThreadSanitizer and runs the tests that exercise the
# concurrent paths: the thread-safe storage layer (BufferPool/DiskManager),
# the exec subsystem (the ThreadPool the parallel group-by scans on), the
# observability layer (lock-free metrics, trace collection from worker
# threads), and the query-serving subsystem (concurrent queries racing a
# maintenance stream against the aggregate cache and the hierarchical
# aggregate index tier, plus the sharded serve path: per-shard snapshot
# locks, the parallel group-by engine and its ordered chunk merge, and the
# multi-shard torture, isolation, determinism and scan-fault cases in
# serve_concurrent_test, and client threads scanning one columnar mirror
# through a worker pool in columnar_serve_test). Allocation, the external
# sorter included, starts no thread, so its suites are not run here. Zero
# reported races is a release gate for the parallel execution and serving
# subsystems.
#
#   scripts/run_tsan.sh [extra ctest args...]

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-tsan
cmake -B "$BUILD" -G Ninja -DIOLAP_SANITIZE=thread
cmake --build "$BUILD" --target \
  buffer_pool_test disk_manager_test thread_pool_test \
  obs_test serve_test serve_concurrent_test columnar_serve_test aggidx_test \
  aggidx_concurrent_test

export TSAN_OPTIONS="halt_on_error=0:exitcode=66:${TSAN_OPTIONS:-}"
ctest --test-dir "$BUILD" --output-on-failure \
  -R 'BufferPool|DiskManager|ThreadPool|Metrics|Trace|Obs|ScopedObservability|JsonUtil|Serve|ColumnarServe|SelectiveInvalidation|AggIdx|AggIndex' \
  "$@"
echo "TSan run clean."
