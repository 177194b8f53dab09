#!/usr/bin/env bash
# Tier-1 gate: standard build + full test suite, then an
# ASan+UBSan-instrumented build (-DJASIM_SANITIZE=ON) running the
# net, fault, db, repl, adm, driver, core, jvm, was, sim, mem, xlat
# and branch test binaries, which exercise the event-queue closure
# graph, the cluster's cross-object callback wiring, the
# WAL-replay/recovery paths, the DB's flat tables, indexes and buffer
# pool (slot and probe arithmetic over reused arrays, driven by
# Jas2004Application's transactions in test_was) and its bulk load
# (test_db's BulkLoadTest: reserved column arrays and index, pin runs,
# batched WAL advances, against row-at-a-time inserts), the
# log-shipping / failover machinery, the admission-control shed
# callbacks, the heap's sorted sweep pass
# (index arithmetic over a reused buffer), the Zipf sampler's guide
# table, the caches, presence filters and memos of the memory and
# translation path against their reference walks, and the one LRU
# table (sim/lru_table.h) under the ERATs, TLB, SLB, BTB and count
# cache (set and way arithmetic over flat arrays) — the code most
# likely to hide lifetime and bounds bugs. It then builds the benches
# and examples that the BenchExitTest rows drive (the
# bench_exit_binaries target, which bench/CMakeLists.txt derives from
# the rows) and runs those rows instrumented (all but the long
# TooSmallHeap run), so a bad input that reads out of bounds fails
# there under ASan, not only when it happens to segfault.
#
# The standard stage fails if the compiler prints a warning, naming
# the file. It sees what this run compiles, so a warning in a file an
# incremental build leaves alone shows only in a from-scratch build.
#
# `--san` widens the sanitized stage to the FULL suite (JASIM_SANITIZE=ON
# + ctest): slower, but every test runs instrumented. Use it when
# touching lifetime-sensitive code (event closures, fault injection,
# connection pools). `--san` also adds a ThreadSanitizer build
# (-DJASIM_TSAN=ON) running the suites that exercise real cross-thread
# handoffs — test_par (jasim::par sweeps and the SPSC ring), test_jvm's
# heap-worker tests (allocations queued to a helper thread, inline vs
# worker) and test_core's window-job tests (generation and replay on
# helper threads, overlapping the DES) plus its heap-worker cluster
# runs, picked by --gtest_filter because the full test_core
# holds multi-second calibration runs; ASan cannot see data races,
# TSan can — plus a standalone UBSan build (-DJASIM_UBSAN=ON)
# running the full suite: UBSan alone is near full speed, and it
# catches signed overflow / misaligned access in arithmetic-heavy code
# (fencing-token and LSN math, lease expiry) that ASan's shadow-memory
# pass can mask.
#
# Usage: scripts/tier1.sh [--san] [build-dir] [sanitized-build-dir] [tsan-build-dir] [ubsan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."

SAN_FULL=0
if [[ "${1:-}" == "--san" ]]; then
    SAN_FULL=1
    shift
fi
BUILD="${1:-build}"
SAN_BUILD="${2:-build-asan}"
TSAN_BUILD="${3:-build-tsan}"
UBSAN_BUILD="${4:-build-ubsan}"
# One compiler per CPU: a bare `-j` starts every translation unit at
# once, and a from-scratch sanitized build then runs out of memory.
JOBS="$(nproc)"

echo "== tier-1: standard build =="
cmake -B "$BUILD" -S . >/dev/null
build_log="$(mktemp)"
trap 'rm -f "$build_log"' EXIT
cmake --build "$BUILD" -j"$JOBS" 2>&1 | tee "$build_log"
if grep -q 'warning:' "$build_log"; then
    echo "FAIL: the standard build printed compiler warnings:" >&2
    grep 'warning:' "$build_log" | sort -u >&2
    exit 1
fi
ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS"

if [[ "$SAN_FULL" == 1 ]]; then
    echo "== tier-1: sanitized build (ASan + UBSan, full suite) =="
    cmake -B "$SAN_BUILD" -S . -DJASIM_SANITIZE=ON >/dev/null
    cmake --build "$SAN_BUILD" -j"$JOBS"
    ctest --test-dir "$SAN_BUILD" --output-on-failure -j"$JOBS"

    echo "== tier-1: TSan build (par sweeps, SPSC ring, window jobs, heap worker) =="
    cmake -B "$TSAN_BUILD" -S . -DJASIM_TSAN=ON >/dev/null
    cmake --build "$TSAN_BUILD" -j"$JOBS" --target test_par test_jvm test_core
    "$TSAN_BUILD/tests/test_par"
    "$TSAN_BUILD/tests/test_jvm" --gtest_filter='HeapWorkerTest.*'
    "$TSAN_BUILD/tests/test_core" \
        --gtest_filter='WindowSimulatorTest.*:FastpathGoldenDigestTest.*:ClusterTest.*HeapWorker*'

    echo "== tier-1: UBSan build (full suite, undefined behaviour only) =="
    cmake -B "$UBSAN_BUILD" -S . -DJASIM_UBSAN=ON >/dev/null
    cmake --build "$UBSAN_BUILD" -j"$JOBS"
    ctest --test-dir "$UBSAN_BUILD" --output-on-failure -j"$JOBS"
else
    echo "== tier-1: sanitized build (ASan + UBSan) =="
    cmake -B "$SAN_BUILD" -S . -DJASIM_SANITIZE=ON >/dev/null
    cmake --build "$SAN_BUILD" -j"$JOBS" --target test_net test_fault test_db test_repl test_adm test_driver test_core test_jvm test_was test_sim test_mem test_xlat \
        test_branch bench_exit_binaries
    "$SAN_BUILD/tests/test_net"
    "$SAN_BUILD/tests/test_fault"
    "$SAN_BUILD/tests/test_db"
    "$SAN_BUILD/tests/test_repl"
    "$SAN_BUILD/tests/test_adm"
    "$SAN_BUILD/tests/test_driver"
    "$SAN_BUILD/tests/test_core"
    "$SAN_BUILD/tests/test_jvm"
    "$SAN_BUILD/tests/test_was"
    "$SAN_BUILD/tests/test_sim"
    "$SAN_BUILD/tests/test_mem"
    "$SAN_BUILD/tests/test_xlat"
    "$SAN_BUILD/tests/test_branch"
    ctest --test-dir "$SAN_BUILD" --output-on-failure -j"$JOBS" \
        -R '^BenchExitTest\.' -E 'TooSmallHeap'
fi

echo "== tier-1: all green =="
