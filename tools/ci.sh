#!/usr/bin/env bash
# CI gate: Release build + full test suite, then a ThreadSanitizer build
# running the concurrent stress tests (sharded IDG hot path, inline PCD
# replays racing inline collections, fault-injection paths), a Debug
# build that runs the collector, detector, Octet, streaming and fault suites
# with assertions on, an AddressSanitizer build, and an
# UndefinedBehaviorSanitizer build of the fault-injection tests. Run from
# the repository root:
#
#   tools/ci.sh [jobs]
#
# Build trees land in build-ci/, build-ci-tsan/, build-ci-debug/,
# build-ci-asan/ and build-ci-ubsan/ so a developer's existing build/
# directory is left alone; the mutant gate builds each mutant in a
# temporary build-ci-mutant/ that it removes afterwards.
set -euo pipefail

JOBS="${1:-$(nproc)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== Release build + full ctest =="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j 1

echo "== Determinism under parallel and pinned scheduling =="
# The degradation report and the fault-injection outcomes are keyed to
# schedule-determined values, so they must not depend on how many cores
# the host has or on which tests share them. Run both suites 10 times at
# full ctest parallelism, then 10 times pinned to one CPU; any failure
# fails the gate.
for PIN in "" "taskset -c 0"; do
  for RUN in $(seq 1 10); do
    # $PIN is unquoted on purpose: empty means unpinned.
    if ! $PIN ctest --test-dir build-ci -j "$(nproc)" \
        -R "DegradationProperty|FaultInjection" >/dev/null; then
      echo "error: determinism suites failed (run $RUN, ${PIN:-unpinned})"
      $PIN ctest --test-dir build-ci --rerun-failed --output-on-failure
      exit 1
    fi
  done
done

echo "== Reproducible --det --stats =="
# A deterministic run is reproducible down to its statistics: two runs of
# one configuration must print the same report, counters and NDJSON
# events, apart from the *_ns timings and the wall-clock "ran ... in ...s"
# line. Every checker component that touches the graph runs on a program
# thread, so nothing may depend on another thread's timing.
det_stats() {
  local OUT RC
  set +e
  OUT=$(build-ci/tools/dcheck --workload xalan6 --scale 0.35 --seed 3 --det \
    --stats "$@")
  RC=$?
  set -e
  printf '%s\nexit %s\n' "$OUT" "$RC" |
    grep -v -E '^ran [0-9]+ instructions in [0-9.]+s$|^  [a-z0-9_.]+_ns +[0-9]+$'
}
for CFG in "" "--engine vc" "--mode velodrome" "--serve --window-txs 64"; do
  # $CFG is unquoted on purpose: it is a list of flags (empty = single-run).
  DET_A=$(det_stats $CFG)
  DET_B=$(det_stats $CFG)
  if [ "$DET_A" != "$DET_B" ]; then
    echo "error: two --det --stats runs differ (${CFG:-single-run}):"
    diff <(echo "$DET_A") <(echo "$DET_B") | head -20
    exit 1
  fi
done

echo "== Logging hot-path bench (smoke) =="
# A tiny-scale run to catch regressions that only show up under the bench
# harness (chunk recycling, batch refills from the shared pool). The sweep
# spawns real OS threads up to 256 — far past any CI host's cores — so
# even the smoke run exercises oversubscribed 64/128/256-thread rows. The
# JSON goes to a throwaway path so the checked-in BENCH_logging.json keeps
# the numbers recorded on a quiet machine at full scale.
DC_BENCH_SCALE=0.02 DC_BENCH_TRIALS=1 \
  build-ci/bench/logging_throughput build-ci/bench_logging_smoke.json
DC_BENCH_SCALE=0.02 DC_BENCH_TRIALS=1 \
  build-ci/bench/schedule_coverage build-ci/bench_schedule_smoke.json
# Coordination ping-pong: real OS threads through the pipelined Octet
# fan-out — catches wakeup/parking regressions that only bite with
# preemptive scheduling.
DC_BENCH_SCALE=0.02 DC_BENCH_TRIALS=1 \
  build-ci/bench/octet_coordination build-ci/bench_octet_smoke.json

echo "== Fig. 7 ordering (structural gate) =="
# A reduced-scale Fig. 7 run must keep the geomean orderings whose
# min-max ranges were disjoint in every process recorded for
# BENCH_fig7.json (EXPERIMENTS.md, Fig. 7): first run below single-run,
# single-run below Velodrome, and vc below Velodrome. Magnitudes are not
# gated, and neither is an ordering whose recorded ranges overlapped
# (first run vs second run, second run vs single-run, single-run vs vc).
DC_BENCH_SCALE=0.1 DC_BENCH_TRIALS=3 \
  build-ci/bench/fig7_performance build-ci/bench_fig7_smoke.json >/dev/null
fig7_geomean() {
  awk -v C="\"config\": \"$1\"" -F'"median": ' \
    'index($0, "\"benchmark\": \"geomean\"") && index($0, C) {
       split($2, V, ","); print V[1] }' build-ci/bench_fig7_smoke.json
}
fig7_below() {
  local LO HI
  LO=$(fig7_geomean "$1")
  HI=$(fig7_geomean "$2")
  if [ -z "$LO" ] || [ -z "$HI" ] || \
     ! awk -v A="$LO" -v B="$HI" 'BEGIN { exit !(A < B) }'; then
    echo "error: Fig. 7 geomean $1 (${LO:-?}x) is not below $2 (${HI:-?}x)"
    exit 1
  fi
}
fig7_below first-run single-run
fig7_below single-run velodrome
fig7_below vc velodrome

echo "== Incremental cycle detection (bounded) =="
# Detector microbench at smoke scale: catches hot path regressions
# (cross-edge latency, order maintenance) and asserts nothing crashed on
# either workload shape or in the real-thread contention rows.
DC_BENCH_SCALE=0.02 DC_BENCH_TRIALS=1 \
  build-ci/bench/cycle_detection build-ci/bench_icd_smoke.json

echo "== ICD lock-free fast path (default-mode stats gate) =="
# A consistent-only workload (sor at this scale produces no reorders) must
# complete every cross edge on the seqlock fast path without ever touching
# the detector lock: icd.lock_waits stays 0 and icd.fastpath_lockfree
# covers the full cross-edge count. A regression that silently reroutes
# consistent edges through Mu shows up here, not just in the bench tables.
ICD_STATS=$(build-ci/tools/dcheck --workload sor --scale 0.4 --det --seed 1 \
  --stats)
LOCK_WAITS=$(echo "$ICD_STATS" | awk '$1 == "icd.lock_waits" {print $2}')
LF_EDGES=$(echo "$ICD_STATS" | awk '$1 == "icd.fastpath_lockfree" {print $2}')
CROSS_EDGES=$(echo "$ICD_STATS" | awk '$1 == "icd.idg_cross_edges" {print $2}')
if [ "$LOCK_WAITS" != "0" ]; then
  echo "error: consistent-only workload took the ICD lock ($LOCK_WAITS waits)"
  exit 1
fi
if [ -z "$LF_EDGES" ] || [ "$LF_EDGES" = "0" ] || \
   [ "$LF_EDGES" != "$CROSS_EDGES" ]; then
  echo "error: ICD fast path covered $LF_EDGES of $CROSS_EDGES cross edges"
  exit 1
fi

echo "== Vector-clock engine smoke (engine axis) =="
# The third backend end-to-end: a clean workload, the paper's outlier with
# a known violation (expected exit 1), and the generated-from-enum mode
# listing. The fuzz stages below then sweep the engine through the full
# differential matrix (the vc config rides in every checkPair) and the
# vc fault case in every fault sweep.
build-ci/tools/dcheck --workload philo --scale 0.05 --engine vc --det --seed 3
set +e
build-ci/tools/dcheck --workload xalan6 --scale 0.2 --engine vc --det --seed 1 \
  >/dev/null
RC=$?
set -e
if [ "$RC" -ne 1 ]; then
  echo "error: vc engine missed the xalan6 violation (exit $RC)"; exit 1
fi
build-ci/tools/dcheck --list-modes >/dev/null

echo "== Vector-clock window retirement (count gate) =="
# Service-mode flushes must actually retire vc transactions: a collection
# seals every transaction whose clock can no longer grow (DESIGN.md §14,
# "Collection"), so an idle thread's interrupted unary transaction or a
# never-overwritten field does not pin the rest of the run. Counts, not
# timings: at window-16 on tsp at least 90% of all transactions must be
# swept, with the same violations and cross edges as the batch run.
stat_of() { echo "$1" | awk -v K="$2" '$1 == K {print $2}'; }
set +e
VC_BATCH=$(build-ci/tools/dcheck --workload tsp --scale 0.2 --engine vc \
  --det --seed 1 --stats)
VC_SERVE=$(build-ci/tools/dcheck --workload tsp --scale 0.2 --engine vc \
  --det --seed 1 --serve --window-txs 16 --stats)
set -e
VC_TXS=$(stat_of "$VC_SERVE" vc.txs)
VC_SWEPT=$(stat_of "$VC_SERVE" vc.txs_swept)
if [ -z "$VC_TXS" ] || [ -z "$VC_SWEPT" ] || \
   [ $((VC_SWEPT * 10)) -lt $((VC_TXS * 9)) ]; then
  echo "error: vc window flushes swept $VC_SWEPT of $VC_TXS transactions"
  exit 1
fi
for K in vc.violations vc.cross_edges; do
  if [ "$(stat_of "$VC_SERVE" $K)" != "$(stat_of "$VC_BATCH" $K)" ] || \
     [ -z "$(stat_of "$VC_BATCH" $K)" ]; then
    echo "error: windowed $K $(stat_of "$VC_SERVE" $K) differs from" \
      "batch $(stat_of "$VC_BATCH" $K)"
    exit 1
  fi
done

echo "== DoubleChecker window retirement (count gate) =="
# The collector traces only from current transactions that can still gain
# an in-edge (DESIGN.md §7, "Collector"): main's unary transaction, which
# the fork edges interrupt and which stays current while main waits in
# join, is sealed instead of rooting every worker's history. Counts, not
# timings: at window-16 on montecarlo no flush may carry more than 64
# transactions (tracing from main carried 3,889), with the same SCCs,
# precise cycles and violations as the batch run.
set +e
DC_BATCH=$(build-ci/tools/dcheck --workload montecarlo --scale 0.1 --det \
  --seed 2 --window-txs 0 --stats)
DC_SERVE=$(build-ci/tools/dcheck --workload montecarlo --scale 0.1 --det \
  --seed 2 --window-txs 16 --stats)
set -e
DC_PINNED=$(stat_of "$DC_SERVE" governor.window_pinned_peak)
if [ -z "$DC_PINNED" ] || [ "$DC_PINNED" -gt 64 ]; then
  echo "error: window flushes carried up to ${DC_PINNED:-?} transactions"
  exit 1
fi
for K in icd.sccs pcd.cycles; do
  if [ "$(stat_of "$DC_SERVE" $K)" != "$(stat_of "$DC_BATCH" $K)" ] || \
     [ -z "$(stat_of "$DC_BATCH" $K)" ]; then
    echo "error: windowed $K $(stat_of "$DC_SERVE" $K) differs from" \
      "batch $(stat_of "$DC_BATCH" $K)"
    exit 1
  fi
done
# The violation report: everything before the statistics block.
if [ "$(echo "$DC_SERVE" | sed -n '2,/^statistics:/p')" != \
     "$(echo "$DC_BATCH" | sed -n '2,/^statistics:/p')" ]; then
  echo "error: windowed violations differ from the batch run"
  exit 1
fi

echo "== Differential schedule fuzz (bounded) =="
# Fixed seed set, wall-clock bounded: PCT + bounded-exhaustive schedules on
# tiny generated programs, every pair swept through the config matrix
# against the ground-truth oracle. The matrix is the engine axis
# (single-run and multi-run DoubleChecker, a region-capped ICD config,
# Velodrome, and the vector-clock engine), so every pair differential-tests
# all three checking algorithms. Every fuzz invocation below runs under a
# per-pair wall timeout: a wedged pair is written as a witness and dcfuzz
# exits 3, failing the gate instead of hanging it.
# DC_FUZZ_BUDGET_SECONDS=600 (or more) is the nightly setting; the default
# keeps the gate fast.
FUZZ_BUDGET="${DC_FUZZ_BUDGET_SECONDS:-30}"
PAIR_TIMEOUT=60
build-ci/tools/dcfuzz --seed 1 --budget-seconds "$FUZZ_BUDGET" \
  --pairs 1000000 --strategy mixed --progress 5000 \
  --pair-timeout-seconds "$PAIR_TIMEOUT" \
  --witness-out build-ci/fuzz_timeout_witness.dcw
# The gate must also prove the harness *can* catch an unsound checker:
# the injected ICD-filter bug has to be found, minimized, and replayed
# (both commands are expected to exit 1 = divergence).
set +e
build-ci/tools/dcfuzz --seed 1 --inject-icd-bug --pairs 20000 \
  --pair-timeout-seconds "$PAIR_TIMEOUT" \
  --witness-out build-ci/injected_witness.dcw >/dev/null
RC=$?
set -e
if [ "$RC" -ne 1 ]; then
  echo "error: injected ICD bug was NOT detected (exit $RC)"; exit 1
fi
set +e
build-ci/tools/dcfuzz --replay build-ci/injected_witness.dcw \
  --pair-timeout-seconds "$PAIR_TIMEOUT" >/dev/null
RC=$?
set -e
if [ "$RC" -ne 1 ]; then
  echo "error: injected-bug witness did not replay (exit $RC)"; exit 1
fi

echo "== Mutant gate (seeded bugs) =="
# Each patch under tools/mutants/ plants one bug that the differential
# matrix cannot see (its replayed schedules never interleave inside a
# hook, or the bug changes counts but no verdict, such as a dropped
# duplicate edge) and names the test that must catch it in a
# "Caught-by: <test binary> <gtest filter>" line. The patch goes onto a
# temporary copy of the tree, only that test binary is built, and the test
# must fail (gtest exit 1): a mutant that survives, does not apply or does
# not build fails the gate.
MUTANT_TREE="$ROOT/build-ci-mutant"
for MUTANT in tools/mutants/*.patch; do
  CAUGHT_BY=$(sed -n 's/^Caught-by: //p' "$MUTANT")
  MUTANT_BIN=${CAUGHT_BY%% *}
  MUTANT_FILTER=${CAUGHT_BY#* }
  if [ -z "$CAUGHT_BY" ] || [ "$MUTANT_BIN" = "$CAUGHT_BY" ]; then
    echo "error: $MUTANT names no 'Caught-by: <binary> <filter>' test"
    exit 1
  fi
  rm -rf "$MUTANT_TREE"
  mkdir -p "$MUTANT_TREE/src"
  git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - |
    tar -C "$MUTANT_TREE/src" -xf -
  patch -p1 --quiet -d "$MUTANT_TREE/src" < "$MUTANT"
  cmake -B "$MUTANT_TREE/build" -S "$MUTANT_TREE/src" \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$MUTANT_TREE/build" -j "$JOBS" --target "$MUTANT_BIN" \
    >/dev/null
  set +e
  "$MUTANT_TREE/build/tests/$MUTANT_BIN" --gtest_filter="$MUTANT_FILTER" \
    >/dev/null 2>&1
  RC=$?
  set -e
  if [ "$RC" -ne 1 ]; then
    echo "error: mutant $MUTANT was not caught by $CAUGHT_BY (exit $RC)"
    exit 1
  fi
  echo "$(basename "$MUTANT"): caught by $CAUGHT_BY"
done
rm -rf "$MUTANT_TREE"

echo "== Fault-injection sweep (bounded) =="
# Every agreeing (program, schedule) pair re-runs under the deterministic
# fault matrix (alloc failure, window-flush stall, oversized-SCC and
# region caps, seqlock retry storms, the vc collect cadence): degradation must
# stay sound — nothing the fault-free run blames may be lost, and every
# run terminates with a structured RunResult. DC_FAULT_BUDGET_SECONDS=300
# (or more) is the nightly setting; the default keeps the gate fast.
FAULT_BUDGET="${DC_FAULT_BUDGET_SECONDS:-20}"
build-ci/tools/dcfuzz --seed 3 --budget-seconds "$FAULT_BUDGET" \
  --pairs 1000000 --fault-sweep --progress 2000 \
  --pair-timeout-seconds "$PAIR_TIMEOUT" \
  --witness-out build-ci/fault_timeout_witness.dcw

echo "== Streaming service-mode soak (bounded) =="
# Service mode end to end (DESIGN.md §15): churn generated programs
# through both windowed engines at an aggressive retirement cadence with
# the rotating fault matrix layered over window boundaries, asserting
# bounded RSS, zero missed seeded violations, batch-vs-streaming verdict
# equality, and structured (never hanging) fault surfacing. The committed
# SOAK.json records a full-length run; DC_SOAK_BUDGET_SECONDS=300 (or
# more) is the nightly setting, the default keeps the gate fast. The
# min-windows floor scales with the budget (the contract's 100-epoch floor
# is calibrated to >= 60-second runs; the smoke slice still flushes
# hundreds).
SOAK_BUDGET="${DC_SOAK_BUDGET_SECONDS:-15}"
build-ci/tools/dcsoak --seconds "$SOAK_BUDGET" --seed 11 \
  --json-out build-ci/soak_smoke.json --progress 500

echo "== ThreadSanitizer build + concurrency stress tests =="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDC_SANITIZE=thread >/dev/null
cmake --build build-ci-tsan -j "$JOBS" --target idg_stress_test \
  octet_stress_test octet_coord_test log_elision_test log_srcpos_test \
  fault_injection_test icd_test vc_test property_test streaming_test \
  dcfuzz dcsoak

echo "== Differential schedule fuzz under TSan (smoke) =="
# Much slower per pair under TSan; a short fixed-seed slice is enough to
# catch data races in the scheduler/gate/oracle plumbing itself. The
# fault-sweep slice covers the degradation/watchdog machinery (shed
# flags, eager inline collection, window-flush stalls).
# TSan's slowdown gets a proportionally longer pair timeout.
TSAN_PAIR_TIMEOUT=$((PAIR_TIMEOUT * 10))
build-ci-tsan/tools/dcfuzz --seed 7 --pairs 40 --strategy mixed \
  --pair-timeout-seconds "$TSAN_PAIR_TIMEOUT" \
  --witness-out build-ci-tsan/fuzz_timeout_witness.dcw
build-ci-tsan/tools/dcfuzz --seed 7 --pairs 10 --fault-sweep \
  --pair-timeout-seconds "$TSAN_PAIR_TIMEOUT" \
  --witness-out build-ci-tsan/fault_timeout_witness.dcw
# The seqlock fast path's memory-ordering argument (DESIGN.md §12) is
# exactly the kind of claim TSan falsifies: hammer concurrent consistent
# edges from real OS threads against a chaos thread forcing reorders, with
# the reorder hook widening the writer sections. Runs here explicitly (in
# addition to the Icd slice of the ctest run below) so a fast-path race is
# attributed to this stage by name.
build-ci-tsan/tests/icd_test \
  --gtest_filter='IcdStressTest.LockFreeFastPathSurvivesForcedReorders'
# The vc engine's stress tests: window flushes every two transactions seal
# a parked thread's interrupted unary transaction and the workers' unary
# spans, racing the access path's rotate-on-sealed recheck; one access
# waiting for a field lock, which another thread holds by blocking in its
# access callback, has its transaction sealed mid-access; reader-slot
# stores made without the engine lock race a sweep after every finished
# transaction; a write lands while a validated read, which holds no
# lock, is blocked between its slot check and its re-check; and one
# thread's txEnd, which takes no lock, races another thread's edge from
# the finishing transaction while window flushes fall due.
build-ci-tsan/tests/vc_test --gtest_filter='VcStress.*'
# A TSan slice of the service-mode soak: window flushes synchronize the
# mutator, inline PCD replays (through their pins), and the collector —
# exactly the cross-thread seams TSan exists for. Iteration-bounded
# (TSan's slowdown makes wall-clock budgets unpredictable), with the fault
# rotation on and the min-windows floor scaled to the short slice.
build-ci-tsan/tools/dcsoak --iterations 60 --seconds 0 --seed 13 \
  --min-windows 20
# TSan slows execution ~5-15x; restrict to the tests whose whole point is
# cross-thread synchronization rather than re-running the full suite. The
# logging tests are in that set: LogSrcPos races a lock-free LogLen
# sampler against an appender, and LogElision replays the log with
# elision on and off against Velodrome and the oracle.
# FaultInjection exercises the degradation ladder (shed flags, the live
# budget's eager inline collections); Streaming the watchdog's
# window-stall conversion. Icd covers the
# detector's lock-free hot path (atomic order keys, program-order chain
# pointers) plus the stripe-locality stress test. The Vc suites drive the
# vector-clock engine's hooks from free-running OS threads: accesses that
# add no cross edge store field metadata under the field lock alone, racing
# the mark-sweep collector's acquire-load scan of the same slots under the
# engine lock (DESIGN.md §14, "Collection"), and the
# three-way EngineAgreement property replays one recorded schedule through
# all engines under TSan.
ctest --test-dir build-ci-tsan --output-on-failure \
  -R "Idg|Octet|ElisionFilter|LogDifferential|SrcPosSampling|FaultInjection|Icd|Vc|EngineAgreement|Streaming"

echo "== Assertions enabled: collection, ICD, Octet, streaming, faults =="
# Every other build here is Release or RelWithDebInfo, and both compile
# assert() out. The collector's sealing rule rests on asserted invariants:
# aboutToBlock/unblocked pair up, no edge targets a sealed transaction, and
# the sweep never frees a live one. So a Debug build runs the suites that
# drive the collector, the detector, Octet's blocked states, window
# flushes and the fault paths.
cmake -B build-ci-debug -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-ci-debug -j "$JOBS" --target analysis_test icd_test \
  idg_stress_test octet_test octet_stress_test octet_coord_test \
  streaming_test fault_injection_test
ctest --test-dir build-ci-debug --output-on-failure -j "$JOBS" \
  -R "IcdScenario|SealedCycle|Icd|Idg|Octet|Streaming|FaultInjection"

echo "== AddressSanitizer build + abort-mid-coordination + log-pool teardown =="
# An aborted roundtrip must retire its posted request before returning, or
# the responder's eventual drain writes into a slot its requester already
# abandoned — OctetCoordAbortTest drives the protocol through that window
# under ASan. The logging tests tear down checkers whose per-thread chunk
# caches recycle into the shared chunk pool on destruction; ASan's leak
# check fails them if the pool dies first and strands those chunks. The
# Vc suites read field metadata that a concurrent window sweep may have
# displaced: a transaction read after its sweep is a use-after-free here.
# The DoubleChecker collector's suites get the same treatment: a
# collection that traced a transaction whose successors an earlier pass
# swept, or swept a member of a detected cycle before its claim, reads
# freed memory in the ICD and IDG stress tests, the fault paths, the
# window-flush tests and the sealed-cycle scenario.
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDC_SANITIZE=address >/dev/null
cmake --build build-ci-asan -j "$JOBS" --target octet_coord_test \
  octet_stress_test log_elision_test vc_test icd_test idg_stress_test \
  fault_injection_test streaming_test analysis_test
ctest --test-dir build-ci-asan --output-on-failure \
  -R "Octet|ElisionFilter|ChunkedLog|ChunkPool|LogDifferential|Vc|Icd|Idg|FaultInjection|Streaming|SealedCycle"

echo "== UndefinedBehaviorSanitizer build + fault-injection tests =="
# UBSan (fail-fast: -fno-sanitize-recover=all) over the paths the fault
# plans push through rare branches — degraded SCCs, timed-out enqueues,
# shed/re-arm transitions.
cmake -B build-ci-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDC_SANITIZE=undefined >/dev/null
cmake --build build-ci-ubsan -j "$JOBS" --target fault_injection_test \
  pcd_test dcfuzz
ctest --test-dir build-ci-ubsan --output-on-failure \
  -R "FaultInjection|Pcd"
build-ci-ubsan/tools/dcfuzz --seed 5 --pairs 20 --fault-sweep \
  --pair-timeout-seconds "$PAIR_TIMEOUT" \
  --witness-out build-ci-ubsan/fault_timeout_witness.dcw

echo "== CI gate passed =="
