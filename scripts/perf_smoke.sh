#!/usr/bin/env bash
# Perf smoke: Release build, the event-kernel and memory-path
# microbenchmarks, and a serial-vs-parallel sweep of abl_l2size.
#
# Hard gates (exit 1):
#  - `--jobs 4` must produce BIT-IDENTICAL stdout to `--jobs 1` for
#    the same seed — jasim::par's whole contract;
#  - `--fastpath=0` must produce BIT-IDENTICAL stdout to `--fastpath`
#    on a memory-bound bench — the fast path's whole contract (and
#    micro_memwalk itself exits 1 if its arms' checksums diverge);
#  - pinned sha256 goldens for fig08_l1d (with window jobs overlapped,
#    and inline under --jobs 0 given two hardware threads), a healthy
#    abl_cluster_scaling run (with the heap worker given two hardware
#    threads, and inline under --jobs 0), and the
#    scaled-down abl_recovery, abl_replication,
#    abl_partition, abl_burst, abl_faults and soak_chaos runs;
#  - pinned jbench digests for its three workloads at two seeds.
#
# Soft gate (warning only): the microbench speedup target (>= 1.5x
# over the std::function baseline) and the parallel wall-clock win
# are recorded from out/BENCH_*.json and reported, but do not fail
# the script: both are meaningless on a loaded CI box, and a 4-job
# sweep cannot beat serial wall-clock on fewer than 4 idle cores.
#
# Usage: scripts/perf_smoke.sh [release-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-perf}"

echo "== perf-smoke: Release build =="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target micro_eventqueue micro_memwalk \
    fig08_l1d abl_l2size abl_cluster_scaling abl_recovery \
    abl_replication abl_burst abl_partition soak_chaos abl_faults

echo "== perf-smoke: event-kernel microbenchmark =="
"$BUILD/bench/micro_eventqueue"

echo "== perf-smoke: memory-path microbenchmark (A/B fastpath) =="
# Exits nonzero on its own if the two arms' checksums diverge.
"$BUILD/bench/micro_memwalk"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Pinned healthy-run digests: compiled-in-but-disarmed machinery must
# cost a healthy run NOTHING — not one byte of output may move.
# Regenerate deliberately (and re-pin) only when a PR intends to
# change healthy behaviour. FIG08 dates from the recovery PR; CLUSTER
# was re-pinned by the lane PR (its lane core since deleted), which
# deliberately changed two serial behaviours that remain: per-direction
# link jitter streams (forward/reverse no longer interleave one RNG)
# and the balancer observing a completion when the response reaches
# the LB rather than when the node finishes.
#
# RECOVERY, REPLICATION, PARTITION, BURST, FAULTS and SOAK pin the
# scaled-down fault-path and overload runs below (checked in their own
# stages). Their job-count comparisons only catch nondeterminism; a
# refactor that moves both runs the same way is caught here. All were
# taken from a Release build. RECOVERY and REPLICATION were re-pinned
# once when the single DB box became shard group 0 of the one call
# pipeline, for two deliberate changes: a recovery-armed box now sends
# its responses at force completion and neither charges nor acks a
# transaction whose burst ends after a crash, and a replica-less shard
# fails calls with node-down/recovery-wait instead of failover-wait.
FIG08_GOLDEN=dc1c0cb762998eecd0bd75fb426090fb1206c4ec1a29fedd195ad6ff02535e97
CLUSTER_GOLDEN=339892eadce23d768bd7859bdb7b32ef4f7dc6146d2878ec521c68ebfd7c6acd
RECOVERY_GOLDEN=5ad105022e81821786fd3db886b3fc19bc3319a129ede044f495c5b35ca82f0c
REPLICATION_GOLDEN=04dbd307f4721df01a176842b3ea45df9f4b8a44fcbdc83dac8ceb5731ab9448
PARTITION_GOLDEN=3346e4e30de4e8a70e2c1ada49dd7cb660dde9414983600f3e42b3c180a8b264
BURST_GOLDEN=4763f8abacc78897fa05015b9503ab1340e3e171f15de47f1856e222bfb38464
FAULTS_GOLDEN=f7a8e665adeca6deeb5be73d4617238c1859c08d3ebc6d13c90eefbe2cc1f4a2
SOAK_GOLDEN=497b6bb141a6f6f94cbf715e37c9670cfc41865bef4e2c75159c47fd6428e52e

# check_golden <stdout file> <pinned sha256> <bench name>
check_golden() {
    local got
    got="$(sha256sum "$1" | cut -d' ' -f1)"
    if [[ "$got" != "$2" ]]; then
        echo "FAIL: $3 output drifted from the pinned golden digest:" >&2
        echo "  got $got want $2" >&2
        exit 1
    fi
}

echo "== perf-smoke: abl_l2size serial vs --jobs 4 =="
# --jobs 1 runs each point's window jobs on helper threads that overlap
# its DES. WindowSimConfig::overlap is off once the workers fill every
# hardware thread, so on a host with at most four --jobs 4 runs them
# inline, and this also compares overlap off with on.
args=(steady=30 ramp=10 seed=99)
"$BUILD/bench/abl_l2size" "${args[@]}" --jobs 1 >"$tmp/serial.txt"
cp out/BENCH_abl_l2size.json out/BENCH_abl_l2size_serial.json
"$BUILD/bench/abl_l2size" "${args[@]}" --jobs 4 >"$tmp/par.txt"

if ! cmp -s "$tmp/serial.txt" "$tmp/par.txt"; then
    echo "FAIL: --jobs 4 output differs from --jobs 1 (determinism broken):" >&2
    diff "$tmp/serial.txt" "$tmp/par.txt" >&2 || true
    exit 1
fi
echo "determinism: --jobs 4 output is bit-identical to --jobs 1"

echo "== perf-smoke: fig08_l1d --fastpath vs --fastpath=0 =="
# The fast path's whole contract: `--fastpath=0` must produce the same
# bytes as `--fastpath`, so both runs must match the pinned golden.
fp_args=(steady=30 ramp=10 seed=99)
"$BUILD/bench/fig08_l1d" "${fp_args[@]}" --fastpath >"$tmp/fp_on.txt"
"$BUILD/bench/fig08_l1d" "${fp_args[@]}" --fastpath=0 >"$tmp/fp_off.txt"
check_golden "$tmp/fp_on.txt" "$FIG08_GOLDEN" fig08_l1d
check_golden "$tmp/fp_off.txt" "$FIG08_GOLDEN" "fig08_l1d --fastpath=0"
echo "exactness: --fastpath and --fastpath=0 both match the pinned golden"

# The hardware thread count the benches' arming rules read
# (std::thread::hardware_concurrency: the online CPUs).
hw_threads="$(getconf _NPROCESSORS_ONLN)"

echo "== perf-smoke: fig08_l1d window jobs inline (--jobs 0) =="
# The default run above overlaps each window job with the DES on two
# helper threads; `--jobs 0` (one worker per hardware thread) turns
# that off on a host with two or more hardware threads, so the inline
# loop must match the same pinned golden. With one hardware thread
# `--jobs 0` is `--jobs 1`, which overlaps as well, so this stage then
# checks the overlapped path a second time and says so.
"$BUILD/bench/fig08_l1d" "${fp_args[@]}" --jobs 0 >"$tmp/fp_inline.txt"
check_golden "$tmp/fp_inline.txt" "$FIG08_GOLDEN" "fig08_l1d --jobs 0"
if [[ "$hw_threads" -ge 2 ]]; then
    echo "window jobs: the inline run matches the pinned golden"
else
    echo "window jobs: one hardware thread, so --jobs 0 overlapped too; the inline loop went unchecked"
fi

echo "== perf-smoke: cluster with no --faults vs empty --faults =="
# The fault machinery's whole contract: an empty schedule arms
# nothing, so a healthy cluster run must be BIT-IDENTICAL whether the
# flag is absent or explicitly empty: both match the pinned golden.
cl_args=(nodes=2 steady=20 ramp=5 seed=7)
"$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" >"$tmp/nofaults.txt"
"$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" --faults= >"$tmp/emptyfaults.txt"
check_golden "$tmp/nofaults.txt" "$CLUSTER_GOLDEN" abl_cluster_scaling
check_golden "$tmp/emptyfaults.txt" "$CLUSTER_GOLDEN" "abl_cluster_scaling --faults="
echo "fault gating: no --faults and empty --faults both match the pinned golden"

echo "== perf-smoke: cluster heap allocations inline (--jobs 0) =="
# On a host with two or more hardware threads the runs above queue
# each node's heap allocations on the cluster's heap worker thread;
# `--jobs 0` (one sweep worker per hardware thread) turns it off on any
# host, so every allocation runs inline on the event loop, and that run
# must match the same pinned golden. With one hardware thread the runs
# above are inline too, and this stage says the worker went unchecked.
"$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" --jobs 0 >"$tmp/heapinline.txt"
check_golden "$tmp/heapinline.txt" "$CLUSTER_GOLDEN" "abl_cluster_scaling --jobs 0"
if [[ "$hw_threads" -ge 2 ]]; then
    echo "heap worker: the inline run matches the pinned golden"
else
    echo "heap worker: one hardware thread, so every run was inline; the worker went unchecked"
fi

echo "== perf-smoke: cluster with replication disabled vs absent =="
# The replicated tier's gating contract: an explicit `--shards 1
# --replicas 0` is the default tier, one unreplicated shard group (the
# single shared DB box), and must be BIT-IDENTICAL to a run with no
# replication flags at all, and therefore to the pinned golden.
"$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" --shards 1 --replicas 0 >"$tmp/replofF.txt"
check_golden "$tmp/replofF.txt" "$CLUSTER_GOLDEN" "abl_cluster_scaling --shards 1 --replicas 0"
echo "repl gating: --shards 1 --replicas 0 matches the pinned golden"

echo "== perf-smoke: cluster with overload flags disarmed vs absent =="
# The overload machinery's gating contract (jasim::adm + the arrival
# modulator): `--arrival fixed --admission none` must construct
# nothing — no modulator, no controller, not one extra RNG draw — so
# the run must be BIT-IDENTICAL to one with neither flag, and
# therefore to the pinned golden.
"$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" --arrival fixed --admission none >"$tmp/admoff.txt"
check_golden "$tmp/admoff.txt" "$CLUSTER_GOLDEN" "abl_cluster_scaling --arrival fixed --admission none"
echo "adm gating: --arrival fixed --admission none matches the pinned golden"

echo "== perf-smoke: pinned jbench digests =="
# The goldens above cannot see the order in which the JVM heap model
# breaks best-fit ties: under offset-ordered frees both FIG08 and
# CLUSTER still matched, and only jbench's box_paper digest moved.
# jbench's digests cover every simulated output of its three workloads.
# The pins are identical in Release and RelWithDebInfo builds.
JBENCH_BUILD="$BUILD-jbench"
cmake -S jbench -B "$JBENCH_BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$JBENCH_BUILD" -j --target jbench_workload

# check_jbench <workload> <seed> <pinned digest>
check_jbench() {
    local got
    "$JBENCH_BUILD/jbench_workload" --workload "$1" --seed "$2" >"$tmp/jbench.json"
    got="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["digest"])' "$tmp/jbench.json")"
    if [[ "$got" != "$3" ]]; then
        echo "FAIL: jbench $1 seed $2 drifted from the pinned digest:" >&2
        echo "  got $got want $3" >&2
        exit 1
    fi
}
check_jbench box_paper 42 17b0c223f18a32d1
check_jbench box_paper 7919 ccaff18a31e0fe5a
check_jbench cluster_steady 42 5146b6eb386b60eb
check_jbench cluster_steady 7919 1e5ae95c78c42585
check_jbench cluster_chaos 42 4c089958424e993b
check_jbench cluster_chaos 7919 3fb133fc5d1e07e5
echo "jbench: box_paper, cluster_steady and cluster_chaos match their pinned digests at seeds 42 and 7919"

echo "== perf-smoke: abl_recovery determinism + audit gate =="
# Same seed + schedule must give byte-identical stdout regardless of
# worker count; the bench itself exits 1 if any durability audit
# fails, and at default ramp/steady the recovery time must be
# monotone in the checkpoint interval.
rec_args=(seed=11)
"$BUILD/bench/abl_recovery" "${rec_args[@]}" --jobs 4 >"$tmp/rec_a.txt" 2>/dev/null
"$BUILD/bench/abl_recovery" "${rec_args[@]}" --jobs 2 >"$tmp/rec_b.txt" 2>/dev/null
if ! cmp -s "$tmp/rec_a.txt" "$tmp/rec_b.txt"; then
    echo "FAIL: abl_recovery output differs across job counts (recovery determinism broken):" >&2
    diff "$tmp/rec_a.txt" "$tmp/rec_b.txt" >&2 || true
    exit 1
fi
if ! grep -q "monotone in interval: yes" "$tmp/rec_a.txt"; then
    echo "FAIL: abl_recovery recovery time not monotone in checkpoint interval" >&2
    exit 1
fi
check_golden "$tmp/rec_a.txt" "$RECOVERY_GOLDEN" abl_recovery
echo "recovery: byte-identical across job counts and to the golden, audits pass, monotone in interval"

echo "== perf-smoke: abl_replication determinism + failover audit gate =="
# Scaled-down sweep (the full default takes minutes): the
# bench itself exits 1 unless sync-mode points lose ZERO acked
# commits across the scripted primary crash + failover, every
# replicated point reports a nonzero bounded blackout, no point
# resurrects or duplicates an effect, and its in-band same-seed
# re-run point is bit-identical. On top of that, stdout must be
# byte-identical across worker counts.
repl_args=(steady=4 ramp=2 ir=60 nodes=2 seed=11)
"$BUILD/bench/abl_replication" "${repl_args[@]}" --jobs 2 >"$tmp/repl_a.txt"
"$BUILD/bench/abl_replication" "${repl_args[@]}" --jobs 1 >"$tmp/repl_b.txt"
if ! cmp -s "$tmp/repl_a.txt" "$tmp/repl_b.txt"; then
    echo "FAIL: abl_replication output differs across job counts (replication determinism broken):" >&2
    diff "$tmp/repl_a.txt" "$tmp/repl_b.txt" >&2 || true
    exit 1
fi
if ! grep -q "sync zero-loss: yes" "$tmp/repl_a.txt"; then
    echo "FAIL: abl_replication lost a sync-acked commit across failover" >&2
    exit 1
fi
if ! grep -q "blackouts nonzero+bounded: yes" "$tmp/repl_a.txt"; then
    echo "FAIL: abl_replication failover blackout missing or unbounded" >&2
    exit 1
fi
check_golden "$tmp/repl_a.txt" "$REPLICATION_GOLDEN" abl_replication
echo "replication: byte-identical across job counts and to the golden, sync acks survive failover, blackouts bounded"

echo "== perf-smoke: abl_partition lease/fencing gate =="
# Scaled-down partition sweep: the bench itself exits 1 unless
# sync-mode points lose ZERO acked commits across partition + heal,
# every decisive cut promotes exactly once and rewinds the deposed
# primary's tail, some stale shipment bounces off the fence, the
# planned switchover's blackout stays under one lease interval, and
# its in-band same-seed re-run point is bit-identical. On top of
# that, stdout must be byte-identical across worker counts.
part_args=(steady=12 ramp=2 ir=80 nodes=2 seed=11)
"$BUILD/bench/abl_partition" "${part_args[@]}" --jobs 2 >"$tmp/part_a.txt"
"$BUILD/bench/abl_partition" "${part_args[@]}" --jobs 1 >"$tmp/part_b.txt"
if ! cmp -s "$tmp/part_a.txt" "$tmp/part_b.txt"; then
    echo "FAIL: abl_partition output differs across job counts (partition determinism broken):" >&2
    diff "$tmp/part_a.txt" "$tmp/part_b.txt" >&2 || true
    exit 1
fi
if ! grep -q "Sync zero-loss: yes" "$tmp/part_a.txt"; then
    echo "FAIL: abl_partition lost a sync-acked commit across partition + heal" >&2
    exit 1
fi
if ! grep -q "switchover under one lease: yes" "$tmp/part_a.txt"; then
    echo "FAIL: abl_partition planned switchover blackout exceeded one lease" >&2
    exit 1
fi
check_golden "$tmp/part_a.txt" "$PARTITION_GOLDEN" abl_partition
echo "partition: byte-identical across job counts and to the golden, sync acks survive the split, switchover under one lease"

echo "== perf-smoke: chaos soak smoke (3 seeds) =="
# The quick arm of scripts/soak.sh: three randomized schedules must
# hold every invariant (clean audits, monotone fencing tokens, >= 90%
# goodput recovery, bit-identical re-run). The bench exits 1 itself.
"$BUILD/bench/soak_chaos" seeds=3 >"$tmp/soak.txt" || {
    echo "FAIL: chaos soak smoke violated an invariant:" >&2
    cat "$tmp/soak.txt" >&2
    exit 1
}
check_golden "$tmp/soak.txt" "$SOAK_GOLDEN" soak_chaos
echo "soak: 3 randomized schedules held every invariant and match the golden"

echo "== perf-smoke: abl_faults escalating chaos (breaker path) =="
# Scaled-down fault ladder: node crashes, degraded links, a slow DB
# disk and a pool kill against an unreplicated tier, the only run that
# drives the circuit breaker's per-attempt checks.
"$BUILD/bench/abl_faults" nodes=2 steady=20 ramp=5 seed=7 >"$tmp/faults.txt"
check_golden "$tmp/faults.txt" "$FAULTS_GOLDEN" abl_faults
echo "faults: matches the golden"

echo "== perf-smoke: abl_burst graceful degradation + determinism gate =="
# Scaled-down overload sweep: the bench itself exits 1 unless the
# adaptive policy holds p99 inside the SLA at 4x burst with goodput
# >= 80% of no-burst capacity while `none` collapses (p99 >= 10x
# baseline), and its in-band same-seed re-run point is bit-identical.
# On top of that, stdout must be byte-identical across repeat runs
# and worker counts.
burst_args=(nodes=2 steady=40 ramp=10 seed=11)
"$BUILD/bench/abl_burst" "${burst_args[@]}" --jobs 4 >"$tmp/burst_a.txt"
"$BUILD/bench/abl_burst" "${burst_args[@]}" --jobs 1 >"$tmp/burst_b.txt"
if ! cmp -s "$tmp/burst_a.txt" "$tmp/burst_b.txt"; then
    echo "FAIL: abl_burst output differs across runs/job counts (overload determinism broken):" >&2
    diff "$tmp/burst_a.txt" "$tmp/burst_b.txt" >&2 || true
    exit 1
fi
if ! grep -q "deterministic re-run: yes" "$tmp/burst_a.txt"; then
    echo "FAIL: abl_burst in-band same-seed re-run diverged" >&2
    exit 1
fi
check_golden "$tmp/burst_a.txt" "$BURST_GOLDEN" abl_burst
echo "overload: byte-identical across job counts and to the golden, adaptive holds the SLA, none collapses"

python3 - out/BENCH_abl_l2size_serial.json out/BENCH_abl_l2size.json <<'EOF'
import json, sys
serial = json.load(open(sys.argv[1]))
par = json.load(open(sys.argv[2]))
micro = json.load(open("out/BENCH_micro_eventqueue.json"))
memwalk = json.load(open("out/BENCH_micro_memwalk.json"))
kernel = micro["metrics"]["speedup"]
mem = memwalk["metrics"]["speedup"]
sweep = serial["wall_seconds"] / par["wall_seconds"] if par["wall_seconds"] else 0.0
print(f"microbench kernel speedup: {kernel:.2f}x (target >= 1.5x)")
print(f"memory-path fastpath speedup: {mem:.2f}x (target >= 1.5x)")
print(f"sweep wall-clock speedup (--jobs 4 vs 1): {sweep:.2f}x (target >= 2x on >= 4 cores)")
if kernel < 1.5:
    print("WARNING: kernel speedup below target (noisy/loaded machine?)")
if mem < 1.5:
    print("WARNING: memory-path speedup below target (noisy/loaded machine?)")
if sweep < 2.0:
    print("WARNING: sweep speedup below target (needs >= 4 idle cores)")
EOF

echo "== perf-smoke: done =="
