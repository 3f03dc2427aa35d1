//===- tests/icd_test.cpp - Incremental cycle detection tests -------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the incremental online cycle detector (DESIGN.md §12), at
/// three levels:
///
///  1. *Unit*: hand-built transaction graphs driven straight through
///     IncrementalCycleDetector — fast-path edges, reorders, cycle merges,
///     nested enlargement, the last-member-retires claim discipline, the
///     region-cap soundness valve, and collector unlinking.
///  2. *Equivalence*: on recorded schedules, the incremental detector's
///     verdicts must match a batched reference — the ground-truth oracle's
///     single whole-trace SCC pass (src/support/Oracle.h) — and Velodrome's
///     precise online graph: a violation is reported iff the oracle proves
///     the trace non-serializable, every blamed method lies on one of the
///     oracle's dependence cycles, and DoubleChecker and Velodrome blame
///     identical method sets. Checked on built-in workloads, on random
///     programs, with the lock-free fast path forced onto its locked
///     fallback, and under a delayed collector racing live order
///     maintenance. The method sets are the paper's unit of report.
///  3. *Concurrency*: real threads hammering shared objects while a
///     reorder hook asserts the reordering thread only ever holds the
///     stripes its edge-writer path already took — never the full stripe
///     set (the whole point of retiring the stop-the-world pass); run
///     under TSan in CI.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "analysis/DoubleChecker.h"
#include "analysis/IncrementalCycles.h"
#include "core/Checker.h"
#include "ir/Builder.h"
#include "rt/Runtime.h"
#include "support/Oracle.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

using namespace dc;
using namespace dc::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Unit tests: the detector alone, on hand-built graphs
//===----------------------------------------------------------------------===//

struct DetectorHarness {
  explicit DetectorHarness(uint32_t MaxRegion = 1u << 20) {
    IncrementalCycleDetector::Options O;
    O.MaxRegion = MaxRegion;
    D = std::make_unique<IncrementalCycleDetector>(O);
  }
  explicit DetectorHarness(const IncrementalCycleDetector::Options &O) {
    D = std::make_unique<IncrementalCycleDetector>(O);
  }

  Transaction *node(uint32_t Tid = 0) {
    auto Tx = std::make_unique<Transaction>(NextId, Tid, NextId, 0,
                                            /*Regular=*/true);
    ++NextId;
    D->addNode(Tx.get());
    Owned.push_back(std::move(Tx));
    return Owned.back().get();
  }

  IncrementalCycleDetector::ClaimList edge(Transaction *Src,
                                           Transaction *Dst) {
    IncrementalCycleDetector::ClaimList Claims;
    D->addEdge(Src, Dst, Claims);
    return Claims;
  }

  /// The lock-free program-order link (runtime hot path). \p Next must
  /// have been created after \p Prev so its key is larger.
  void chain(Transaction *Prev, Transaction *Next) {
    D->addChainEdge(Prev, Next);
  }

  IncrementalCycleDetector::ClaimList retire(Transaction *Tx) {
    IncrementalCycleDetector::ClaimList Claims;
    Tx->Finished.store(true, std::memory_order_release);
    D->retire(Tx, Claims);
    return Claims;
  }

  std::unique_ptr<IncrementalCycleDetector> D;
  std::vector<std::unique_ptr<Transaction>> Owned;
  uint64_t NextId = 1;
};

std::set<Transaction *>
members(const IncrementalCycleDetector::Claim &C) {
  return std::set<Transaction *>(C.Members.begin(), C.Members.end());
}

TEST(IcdDetectorTest, ForwardChainNeverClaims) {
  DetectorHarness H;
  Transaction *A = H.node(0), *B = H.node(1), *C = H.node(2);
  // Creation order == topological order: every edge is the O(1) fast path.
  EXPECT_TRUE(H.edge(A, B).empty());
  EXPECT_TRUE(H.edge(B, C).empty());
  EXPECT_TRUE(H.edge(A, C).empty());
  EXPECT_TRUE(H.retire(A).empty());
  EXPECT_TRUE(H.retire(B).empty());
  EXPECT_TRUE(H.retire(C).empty());
  IncrementalCycleDetector::ClaimList Leftover;
  H.D->finalize(Leftover);
  EXPECT_TRUE(Leftover.empty());
}

TEST(IcdDetectorTest, BackEdgeReordersWithoutClaiming) {
  DetectorHarness H;
  Transaction *A = H.node(0), *B = H.node(1);
  // ord(B) > ord(A), so B→A is inconsistent — but acyclic: the search
  // regions are disjoint and the keys just permute.
  EXPECT_TRUE(H.edge(B, A).empty());
  // The permuted order admits the same edge as a fast path now.
  EXPECT_TRUE(H.edge(B, A).empty());
  EXPECT_TRUE(H.retire(A).empty());
  EXPECT_TRUE(H.retire(B).empty());
  EXPECT_EQ(A->IcdG, nullptr);
  EXPECT_EQ(B->IcdG, nullptr);
}

TEST(IcdDetectorTest, TwoCycleClaimedByLastRetiringMember) {
  DetectorHarness H;
  Transaction *A = H.node(0), *B = H.node(1);
  EXPECT_TRUE(H.edge(A, B).empty());
  // Closing the cycle merges the condensation vertex but must not claim:
  // both members are still running.
  EXPECT_TRUE(H.edge(B, A).empty());
  ASSERT_NE(A->IcdG, nullptr);
  EXPECT_EQ(A->IcdG, B->IcdG);
  EXPECT_TRUE(H.retire(A).empty());
  IncrementalCycleDetector::ClaimList Claims = H.retire(B);
  ASSERT_EQ(Claims.size(), 1u);
  EXPECT_FALSE(Claims[0].Oversized);
  EXPECT_EQ(members(Claims[0]), (std::set<Transaction *>{A, B}));
  // The detector pinned the claimed members for the PCD hand-off.
  EXPECT_EQ(A->Pins.load(), 1u);
  EXPECT_EQ(B->Pins.load(), 1u);
  IncrementalCycleDetector::ClaimList Leftover;
  H.D->finalize(Leftover);
  EXPECT_TRUE(Leftover.empty());
}

TEST(IcdDetectorTest, NestedCycleEnlargesIntoOneComponent) {
  DetectorHarness H;
  Transaction *A = H.node(0), *B = H.node(1), *C = H.node(2);
  H.edge(A, B);
  H.edge(B, A); // {A,B} merged.
  ASSERT_EQ(A->IcdG, B->IcdG);
  H.edge(B, C);
  EXPECT_TRUE(H.edge(C, A).empty()); // Enlarges to {A,B,C}; all running.
  ASSERT_NE(C->IcdG, nullptr);
  EXPECT_EQ(C->IcdG, A->IcdG);
  EXPECT_TRUE(H.retire(B).empty());
  EXPECT_TRUE(H.retire(C).empty());
  IncrementalCycleDetector::ClaimList Claims = H.retire(A);
  ASSERT_EQ(Claims.size(), 1u);
  EXPECT_EQ(members(Claims[0]), (std::set<Transaction *>{A, B, C}));
}

TEST(IcdDetectorTest, RegionCapDegradesToOversizedClaims) {
  DetectorHarness H(/*MaxRegion=*/1);
  Transaction *A = H.node(0), *B = H.node(1), *C = H.node(2);
  H.edge(A, B);
  // Any would-be cycle has an affected region of ≥ 2 > 1: the valve fires
  // immediately, poisoning the region and claiming it as Oversized.
  IncrementalCycleDetector::ClaimList Claims = H.edge(B, A);
  ASSERT_EQ(Claims.size(), 1u);
  EXPECT_TRUE(Claims[0].Oversized);
  EXPECT_EQ(members(Claims[0]), (std::set<Transaction *>{A, B}));
  ASSERT_NE(A->IcdG.load(), nullptr);
  EXPECT_TRUE(A->IcdG.load()->Oversized);
  // Any edge touching the poisoned region absorbs the other endpoint (and
  // its undirected closure) — reported as a fresh Oversized claim.
  Claims = H.edge(C, A);
  ASSERT_EQ(Claims.size(), 1u);
  EXPECT_TRUE(Claims[0].Oversized);
  EXPECT_EQ(members(Claims[0]), (std::set<Transaction *>{C}));
  // Absorbed members never produce precise claims.
  EXPECT_TRUE(H.retire(A).empty());
  EXPECT_TRUE(H.retire(B).empty());
  EXPECT_TRUE(H.retire(C).empty());
}

TEST(IcdDetectorTest, CycleThroughProgramOrderChain) {
  DetectorHarness H;
  // Thread 0 runs A0 then A1 (lock-free chain link); thread 1 runs B.
  // Cross edges A1→B and B→A0 close a cycle whose middle hop is the
  // chain edge — searches must traverse the chain pointers.
  Transaction *A0 = H.node(0), *A1 = H.node(0), *B = H.node(1);
  H.chain(A0, A1);
  EXPECT_TRUE(H.edge(A1, B).empty());
  EXPECT_TRUE(H.edge(B, A0).empty()); // Inconsistent: merges {A0,A1,B}.
  ASSERT_NE(A0->IcdG, nullptr);
  EXPECT_EQ(A0->IcdG, A1->IcdG);
  EXPECT_EQ(A0->IcdG, B->IcdG);
  EXPECT_TRUE(H.retire(A0).empty());
  EXPECT_TRUE(H.retire(A1).empty());
  IncrementalCycleDetector::ClaimList Claims = H.retire(B);
  ASSERT_EQ(Claims.size(), 1u);
  EXPECT_EQ(members(Claims[0]), (std::set<Transaction *>{A0, A1, B}));
}

TEST(IcdDetectorTest, LazyPoisonRepairAbsorbsChainContact) {
  DetectorHarness H(/*MaxRegion=*/2);
  Transaction *Y = H.node(0);
  Transaction *X1 = H.node(1), *X2 = H.node(2), *X3 = H.node(3);
  H.edge(X1, X2);
  H.edge(X2, X3);
  // Closing the 3-cycle needs a region of 3 > 2: {X1,X2,X3} is poisoned.
  IncrementalCycleDetector::ClaimList Claims = H.edge(X3, X1);
  ASSERT_EQ(Claims.size(), 1u);
  EXPECT_TRUE(Claims[0].Oversized);
  EXPECT_EQ(members(Claims[0]), (std::set<Transaction *>{X1, X2, X3}));
  // A chain link onto the poisoned node is lock-free and checks nothing —
  // the contact is repaired by the first search that reaches the region.
  Transaction *C = H.node(1);
  H.chain(X3, C);
  EXPECT_EQ(C->IcdG, nullptr);
  // ord(C) > ord(Y): the back edge's search walks C's chain predecessor,
  // touches the poisoned group, and absorbs both endpoints instead of
  // reordering. The old members are not re-reported.
  Claims = H.edge(C, Y);
  ASSERT_EQ(Claims.size(), 1u);
  EXPECT_TRUE(Claims[0].Oversized);
  EXPECT_EQ(members(Claims[0]), (std::set<Transaction *>{C, Y}));
  EXPECT_EQ(C->IcdG, X1->IcdG);
  EXPECT_TRUE(H.retire(Y).empty());
  EXPECT_TRUE(H.retire(X1).empty());
  EXPECT_TRUE(H.retire(X2).empty());
  EXPECT_TRUE(H.retire(X3).empty());
  EXPECT_TRUE(H.retire(C).empty());
}

TEST(IcdDetectorTest, RemoveNodesUnlinksSweptTransactions) {
  DetectorHarness H;
  Transaction *A = H.node(0), *B = H.node(1), *C = H.node(2);
  H.edge(A, B);
  H.edge(B, C);
  H.retire(A);
  H.retire(B);
  // Sweep the middle of the chain (in the runtime only unreachable
  // finished transactions are doomed; the detector must not care which).
  H.D->removeNodes({B});
  EXPECT_EQ(A->IcdOutHead.load(), nullptr);
  EXPECT_EQ(C->IcdInHead.load(), nullptr);
  // The survivors keep working: a back edge among them still reorders.
  EXPECT_TRUE(H.edge(C, A).empty());
  EXPECT_TRUE(H.retire(C).empty());
}

//===----------------------------------------------------------------------===//
// The lock-free consistent-edge fast path (seqlock validation)
//===----------------------------------------------------------------------===//

TEST(IcdDetectorTest, ConsistentEdgesCompleteLockFree) {
  DetectorHarness H;
  Transaction *A = H.node(0), *B = H.node(1), *C = H.node(2);
  EXPECT_TRUE(H.edge(A, B).empty());
  EXPECT_TRUE(H.edge(B, C).empty());
  EXPECT_TRUE(H.edge(A, C).empty());
  // A consecutive duplicate also rides the fast path (the existing cell
  // already carries the edge; nothing new is published).
  EXPECT_TRUE(H.edge(A, C).empty());
  StatisticRegistry Stats;
  H.D->flushStats(Stats);
  EXPECT_EQ(Stats.value("icd.inc_edges"), 4u);
  EXPECT_EQ(Stats.value("icd.fastpath_lockfree"), 4u);
  EXPECT_EQ(Stats.value("icd.inc_fast_edges"), 4u);
  EXPECT_EQ(Stats.value("icd.seqlock_retries"), 0u);
  EXPECT_EQ(Stats.value("icd.lock_waits"), 0u);
}

TEST(IcdDetectorTest, RetryStormCountsRetriesThenCompletesLockFree) {
  IncrementalCycleDetector::Options O;
  O.RetryStorm = 3; // Below the retry cap: the attempt still succeeds.
  DetectorHarness H(O);
  Transaction *A = H.node(0), *B = H.node(1);
  EXPECT_TRUE(H.edge(A, B).empty());
  StatisticRegistry Stats;
  H.D->flushStats(Stats);
  EXPECT_EQ(Stats.value("icd.seqlock_retries"), 3u);
  EXPECT_EQ(Stats.value("icd.fastpath_lockfree"), 1u);
  EXPECT_EQ(Stats.value("icd.lock_waits"), 0u);
}

TEST(IcdDetectorTest, RetryStormPastCapFallsBackToSlowPath) {
  IncrementalCycleDetector::Options O;
  O.RetryStorm = 100; // Exhausts every fast-path attempt.
  DetectorHarness H(O);
  Transaction *A = H.node(0), *B = H.node(1);
  EXPECT_TRUE(H.edge(A, B).empty());
  StatisticRegistry Stats;
  H.D->flushStats(Stats);
  // Eight attempts (the liveness cap), then classification under Mu: the
  // edge is still recorded and still consistent, just not lock-free.
  EXPECT_EQ(Stats.value("icd.seqlock_retries"), 8u);
  EXPECT_EQ(Stats.value("icd.fastpath_lockfree"), 0u);
  EXPECT_EQ(Stats.value("icd.inc_edges"), 1u);
  EXPECT_EQ(Stats.value("icd.inc_fast_edges"), 1u);
}

/// Satellite fix: lock-wait accounting. A blocked lockMu() must charge the
/// wait only after the lock is held (ns before count; flush drains count
/// before ns), so a racing flush can never observe a torn pair. The hook
/// runs under Mu, so the main thread's retire() below provably blocks.
TEST(IcdDetectorTest, LockWaitAccountingChargesHeldWaits) {
  DetectorHarness H;
  Transaction *A = H.node(0), *B = H.node(1);
  std::atomic<bool> InHook{false};
  std::atomic<bool> Retiring{false};
  H.D->setReorderHook([&](size_t) {
    InHook.store(true, std::memory_order_release);
    // Hold Mu until the test thread is about to retire A, then long
    // enough that a loaded host cannot delay its acquisition past the hook.
    while (!Retiring.load(std::memory_order_acquire))
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  std::thread T([&] { H.edge(B, A); }); // Inconsistent: reorders under Mu.
  while (!InHook.load(std::memory_order_acquire))
    std::this_thread::yield();
  // Mu is held for the rest of the hook's sleep: this acquisition waits.
  Retiring.store(true, std::memory_order_release);
  H.retire(A);
  T.join();
  StatisticRegistry Stats;
  H.D->flushStats(Stats);
  EXPECT_GE(Stats.value("icd.lock_waits"), 1u);
  EXPECT_GT(Stats.value("icd.lock_wait_ns"), 0u);
  // The counters drain: a second flush starts from zero.
  StatisticRegistry Drained;
  H.D->flushStats(Drained);
  EXPECT_EQ(Drained.value("icd.lock_waits"), 0u);
  EXPECT_EQ(Drained.value("icd.lock_wait_ns"), 0u);
}

//===----------------------------------------------------------------------===//
// Equivalence: incremental detection vs. the oracle and Velodrome
//===----------------------------------------------------------------------===//

core::RunOutcome runWorkload(const ir::Program &P, uint64_t Seed,
                             core::RunConfig Cfg = core::RunConfig()) {
  Cfg.M = core::Mode::SingleRun;
  Cfg.RunOpts.Deterministic = true;
  Cfg.RunOpts.ScheduleSeed = Seed;
  return core::runChecker(P, core::AtomicitySpec::initial(P), Cfg);
}

/// One schedule recorded by the oracle, with its offline verdict.
struct RecordedRun {
  oracle::RecordedTrace Trace;
  oracle::OracleVerdict Truth;
};

RecordedRun record(const ir::Program &P, uint64_t Seed) {
  rt::RunOptions RO;
  RO.Deterministic = true;
  RO.ScheduleSeed = Seed;
  RecordedRun R;
  R.Trace = oracle::recordTrace(P, core::AtomicitySpec::initial(P), RO);
  EXPECT_FALSE(R.Trace.Result.Aborted);
  R.Truth = oracle::decideSerializability(P, R.Trace);
  return R;
}

/// Replays \p R's schedule exactly (every mode compiles to the same
/// instruction stream, so exhaustion is itself a failure).
core::RunOutcome replay(const ir::Program &P, const RecordedRun &R,
                        core::Mode M = core::Mode::SingleRun,
                        core::RunConfig Cfg = core::RunConfig()) {
  Cfg.M = M;
  Cfg.RunOpts.Deterministic = true;
  Cfg.RunOpts.ExplicitSchedule = R.Trace.Schedule;
  Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
  core::RunOutcome O =
      core::runChecker(P, core::AtomicitySpec::initial(P), Cfg);
  EXPECT_FALSE(O.Result.Aborted);
  EXPECT_FALSE(O.Result.ScheduleDiverged);
  return O;
}

/// The three-way agreement every equivalence test below asserts: \p Inc
/// reports iff the oracle proves a violation, blames only methods on the
/// oracle's dependence cycles, and blames exactly what Velodrome blames.
void expectMatchesOracleAndVelodrome(const core::RunOutcome &Inc,
                                     const core::RunOutcome &Velo,
                                     const oracle::OracleVerdict &Truth,
                                     const std::string &Tag) {
  EXPECT_EQ(Inc.Violations.empty(), Truth.Serializable) << Tag;
  for (const std::string &M : Inc.BlamedMethods)
    EXPECT_TRUE(Truth.CycleMethods.count(M))
        << Tag << ": blamed '" << M << "' outside the oracle's cycles";
  EXPECT_EQ(Inc.BlamedMethods, Velo.BlamedMethods) << Tag;
  EXPECT_TRUE(Inc.PotentialMethods.empty()) << Tag;
  EXPECT_EQ(Inc.stat("icd.finalize_claims"), 0u) << Tag;
  if (!Truth.Serializable) {
    EXPECT_GT(Inc.stat("icd.cycles_incremental"), 0u) << Tag;
  }
}

/// Acceptance criterion: a cycle-free run performs no stop-the-world SCC
/// work — cross edges ride the incremental order entirely.
TEST(IcdTest, CycleFreeRunNeedsNoSccPasses) {
  ir::Program P = workloads::build("sor", 0.4);
  core::RunOutcome O = runWorkload(P, 1);
  EXPECT_GT(O.stat("icd.idg_cross_edges"), 0u);
  EXPECT_GT(O.stat("icd.inc_edges"), 0u);
  EXPECT_EQ(O.stat("icd.sccs"), 0u);
  EXPECT_EQ(O.stat("icd.finalize_claims"), 0u);
  EXPECT_TRUE(O.BlamedMethods.empty());
  // This workload is consistent-only (zero reorders), so the lock-free
  // fast path must carry *every* cross edge and the detector lock must
  // never be contended — the structural form of the perf claim.
  EXPECT_EQ(O.stat("icd.reorders"), 0u);
  EXPECT_EQ(O.stat("icd.fastpath_lockfree"), O.stat("icd.idg_cross_edges"));
  EXPECT_EQ(O.stat("icd.lock_waits"), 0u);
}

/// The batched reference here is the oracle's offline whole-trace SCC pass.
TEST(IcdTest, IncrementalMatchesBatchedOnWorkloads) {
  struct Case {
    const char *Workload;
    double Scale;
    uint64_t Seed;
  };
  const Case Cases[] = {
      {"xalan6", 0.3, 1}, {"hsqldb6", 0.3, 7}, {"elevator", 0.5, 3}};
  for (const Case &C : Cases) {
    ir::Program P = workloads::build(C.Workload, C.Scale);
    RecordedRun R = record(P, C.Seed);
    core::RunOutcome Inc = replay(P, R);
    core::RunOutcome Velo = replay(P, R, core::Mode::Velodrome);
    expectMatchesOracleAndVelodrome(Inc, Velo, R.Truth, C.Workload);
  }
}

/// Random mix of racy read-modify-writes, correctly locked updates, and
/// thread-local churn (the property_test generator, trimmed): enough to
/// produce both serializable and violating traces.
ir::Program randomProgram(uint64_t Seed) {
  SplitMix64 Rng(Seed * 2654435761u + 17);
  ir::ProgramBuilder B("icdprop" + std::to_string(Seed), Seed);
  const uint32_t Workers = 2 + Rng.nextBelow(2);
  ir::PoolId Shared = B.addPool("shared", 4, 2);
  ir::PoolId Lock = B.addPool("lock", 1, 1);
  ir::PoolId Local = B.addPool("local", Workers + 1, 4);

  std::vector<ir::MethodId> Methods;
  const uint32_t NumMethods = 3 + Rng.nextBelow(3);
  for (uint32_t M = 0; M < NumMethods; ++M) {
    std::string Name = "op" + std::to_string(M);
    switch (Rng.nextBelow(4)) {
    case 0: // Racy read-modify-write (potential violation).
      Methods.push_back(B.beginMethod(Name, true)
                            .read(Shared, ir::idxParam(1, 0, 4), 0u)
                            .work(2 + Rng.nextBelow(6))
                            .write(Shared, ir::idxParam(1, 0, 4), 0u)
                            .endMethod());
      break;
    case 1: // Two-phase locked update under the global lock.
      Methods.push_back(B.beginMethod(Name, true)
                            .acquire(Lock, ir::idxConst(0))
                            .read(Shared, ir::idxParam(1, 0, 4), 0u)
                            .write(Shared, ir::idxParam(1, 0, 4), 0u)
                            .release(Lock, ir::idxConst(0))
                            .endMethod());
      break;
    case 2: // Unlocked multi-read (racy against writers).
      Methods.push_back(B.beginMethod(Name, true)
                            .read(Shared, ir::idxParam(1, 0, 4), 0u)
                            .work(1 + Rng.nextBelow(4))
                            .read(Shared, ir::idxParam(1, 1, 4), 0u)
                            .endMethod());
      break;
    default: // Thread-local churn.
      Methods.push_back(B.beginMethod(Name, true)
                            .beginLoop(ir::idxConst(4 + Rng.nextBelow(8)))
                            .read(Local, ir::idxThread(), ir::idxRandom(4))
                            .write(Local, ir::idxThread(), ir::idxRandom(4))
                            .endLoop()
                            .endMethod());
      break;
    }
  }

  auto &Worker = B.beginMethod("worker", false)
                     .beginLoop(ir::idxConst(20 + Rng.nextBelow(20)));
  for (uint32_t C = 0; C < 3; ++C)
    Worker.call(Methods[Rng.nextBelow(Methods.size())], ir::idxRandom(4));
  Worker.endLoop();
  ir::MethodId WorkerId = Worker.endMethod();

  auto &Main = B.beginMethod("main", false);
  for (uint32_t W = 1; W <= Workers; ++W)
    Main.forkThread(ir::idxConst(W));
  for (uint32_t W = 1; W <= Workers; ++W)
    Main.joinThread(ir::idxConst(W));
  ir::MethodId MainId = Main.endMethod();
  B.addThread(MainId);
  for (uint32_t W = 0; W < Workers; ++W)
    B.addThread(WorkerId);
  return B.build();
}

class IcdEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

/// Property: on any program and any recorded schedule, the incremental
/// detector's verdicts match the batched reference — the oracle's offline
/// whole-trace SCC pass — and Velodrome (expectMatchesOracleAndVelodrome).
TEST_P(IcdEquivalenceProperty, IncrementalMatchesBatchedOnSameSchedule) {
  ir::Program P = randomProgram(GetParam());
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    RecordedRun R = record(P, Seed);
    core::RunOutcome Inc = replay(P, R);
    core::RunOutcome Velo = replay(P, R, core::Mode::Velodrome);
    expectMatchesOracleAndVelodrome(Inc, Velo, R.Truth,
                                    "program " + std::to_string(GetParam()) +
                                        " schedule " + std::to_string(Seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, IcdEquivalenceProperty,
                         ::testing::Range<uint64_t>(1, 16));

/// Contract for the lock-free fast path: on any recorded schedule, the
/// default (lock-free), a retry storm below the cap (every fast-path
/// attempt re-validates), and a retry storm past the cap (every consistent
/// edge falls back to the detector lock) all match the oracle and
/// Velodrome — and so blame identical method sets.
TEST(IcdTest, LockFreeFastPathMatchesLockedAndBatchedOnReplayedSchedules) {
  for (uint64_t Prog : {2u, 5u, 9u}) {
    ir::Program P = randomProgram(Prog);
    for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
      RecordedRun R = record(P, Seed);
      core::RunOutcome Velo = replay(P, R, core::Mode::Velodrome);
      core::RunOutcome Inc = replay(P, R);
      core::RunConfig StormCfg;
      StormCfg.IcdSeqRetryStorm = 3;
      core::RunOutcome Storm = replay(P, R, core::Mode::SingleRun, StormCfg);
      core::RunConfig LockedCfg;
      LockedCfg.IcdSeqRetryStorm = 100;
      core::RunOutcome Locked =
          replay(P, R, core::Mode::SingleRun, LockedCfg);
      const std::string Tag =
          "program " + std::to_string(Prog) + " schedule " +
          std::to_string(Seed);
      expectMatchesOracleAndVelodrome(Inc, Velo, R.Truth, Tag);
      expectMatchesOracleAndVelodrome(Storm, Velo, R.Truth, Tag + " storm");
      expectMatchesOracleAndVelodrome(Locked, Velo, R.Truth, Tag + " locked");
      // The locked fallback really stayed on Mu, and the storm really
      // retried.
      EXPECT_EQ(Locked.stat("icd.fastpath_lockfree"), 0u) << Tag;
      if (Locked.stat("icd.inc_edges") > 0) {
        EXPECT_GT(Locked.stat("icd.seqlock_retries"), 0u) << Tag;
      }
      if (Storm.stat("icd.fastpath_lockfree") > 0) {
        EXPECT_GT(Storm.stat("icd.seqlock_retries"), 0u) << Tag;
      }
    }
  }
}

/// Regression: a delayed collector (CollectorDelayMs fault) racing live
/// order maintenance under a tiny live-transaction budget — sweeps overlap
/// reorders, and removeNodes must keep the maintained order valid, so the
/// verdicts stay equivalent to the oracle's and Velodrome's.
TEST(IcdTest, CollectorRacingOrderMaintenanceStaysEquivalent) {
  ir::Program P = workloads::build("xalan6", 0.3);
  RecordedRun R = record(P, 1);
  core::RunConfig Cfg;
  Cfg.Faults.CollectorDelayMs = 5;
  Cfg.MaxLiveTxs = 64; // Force eager, frequent collections.
  core::RunOutcome Inc = replay(P, R, core::Mode::SingleRun, Cfg);
  core::RunOutcome Velo = replay(P, R, core::Mode::Velodrome);
  EXPECT_GT(Inc.stat("icd.collector_runs"), 0u);
  EXPECT_GT(Inc.stat("icd.txs_swept"), 0u);
  expectMatchesOracleAndVelodrome(Inc, Velo, R.Truth, "xalan6");
}

/// The region-cap valve on a real workload: precision degrades (cycles
/// surface as Potential), soundness does not (everything the healthy run
/// blames is still reported somewhere).
TEST(IcdTest, RegionCapDegradesSoundly) {
  ir::Program P = workloads::build("xalan6", 0.3);
  core::RunOutcome Healthy = runWorkload(P, 1);
  core::RunConfig Cfg;
  Cfg.IcdMaxRegion = 1;
  core::RunOutcome Capped = runWorkload(P, 1, Cfg);
  ASSERT_FALSE(Capped.Result.Aborted);
  EXPECT_GT(Capped.stat("icd.region_cap_degrades"), 0u);
  std::set<std::string> Reported = Capped.BlamedMethods;
  Reported.insert(Capped.PotentialMethods.begin(),
                  Capped.PotentialMethods.end());
  for (const std::string &M : Healthy.BlamedMethods)
    EXPECT_TRUE(Reported.count(M)) << "lost " << M;
}

//===----------------------------------------------------------------------===//
// Concurrency: stripe locality of reorders (run under TSan in CI)
//===----------------------------------------------------------------------===//

ir::Program hammerProgram(uint32_t Threads, uint32_t Objects) {
  ir::ProgramBuilder B("icd_stress");
  B.addPool("objs", Objects, 2);
  B.beginMethod("m0", true).work(1).endMethod();
  B.beginMethod("m1", true).work(1).endMethod();
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  for (uint32_t T = 0; T < Threads; ++T)
    B.addThread(Main);
  return B.build();
}

/// Real concurrent threads, heavy shared traffic (lots of inconsistent
/// edges), background collection — and a reorder hook asserting the core
/// perf property the tentpole exists for: a reorder runs under only the
/// stripes its edge-writer path already holds (at most four: the RdSh
/// upgrade takes stripe 0 plus the three endpoint-thread stripes before
/// inserting its edges), never the stop-the-world full set.
TEST(IcdStressTest, ReorderNeverHoldsAllStripes) {
  constexpr uint32_t Threads = 6;
  constexpr uint32_t SharedObjects = 8;
  constexpr uint64_t OpsPerThread = 6000;

  ir::Program P = hammerProgram(Threads, SharedObjects + Threads);
  StatisticRegistry Stats;
  ViolationLog Violations;
  DoubleCheckerOptions Opts;
  Opts.CollectEveryTx = 64; // Sweeps race the order maintenance.
  auto DC =
      std::make_unique<DoubleCheckerRuntime>(P, Opts, Violations, Stats);
  rt::Runtime RT(P, DC.get());
  DC->beginRun(RT);

  ASSERT_NE(DC->icdDetector(), nullptr);
  const uint32_t NumStripes = DC->stripeCount();
  ASSERT_GT(NumStripes, 4u); // Threads+1 stripes; bound below is meaningful.
  std::atomic<uint64_t> Reorders{0};
  std::atomic<uint32_t> MaxStripesHeld{0};
  DC->icdDetector()->setReorderHook([&](size_t) {
    Reorders.fetch_add(1, std::memory_order_relaxed);
    uint32_t Held = DC->stripesHeldByCurrentThread();
    uint32_t Prev = MaxStripesHeld.load(std::memory_order_relaxed);
    while (Held > Prev &&
           !MaxStripesHeld.compare_exchange_weak(Prev, Held,
                                                 std::memory_order_relaxed))
      ;
  });

  const ir::Method &M0 = P.Methods[P.findMethod("m0")];
  const ir::Method &M1 = P.Methods[P.findMethod("m1")];

  std::atomic<uint32_t> Ready{0};
  std::vector<std::thread> Workers;
  for (uint32_t T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      rt::ThreadContext TC;
      TC.Tid = T;
      TC.RT = &RT;
      TC.Checker = DC.get();
      DC->threadStarted(TC);
      Ready.fetch_add(1);
      while (Ready.load() < Threads)
        std::this_thread::yield();
      SplitMix64 Rng(T * 7919 + 3);
      bool InTx = false;
      for (uint64_t Op = 0; Op < OpsPerThread; ++Op) {
        if (Op % 8 == 0) {
          if (InTx)
            DC->txEnd(TC, T % 2 ? M1 : M0);
          DC->txBegin(TC, T % 2 ? M1 : M0);
          InTx = true;
        }
        // 60% shared traffic: ping-pong conflicts between threads create
        // edges in both directions, i.e. plenty of inconsistent inserts.
        rt::ObjectId Obj =
            Rng.chancePercent(60)
                ? static_cast<rt::ObjectId>(Rng.nextBelow(SharedObjects))
                : static_cast<rt::ObjectId>(SharedObjects + T);
        rt::AccessInfo Info;
        Info.Obj = Obj;
        Info.Addr = RT.heap().fieldAddr(Obj, Rng.nextBelow(2));
        Info.IsWrite = Rng.chancePercent(50);
        Info.Flags = ir::IF_OctetBarrier | ir::IF_LogAccess;
        DC->instrumentedAccess(TC, Info, [] {});
        DC->safePoint(TC);
        if (Rng.chancePercent(1)) {
          DC->aboutToBlock(TC);
          std::this_thread::yield();
          DC->unblocked(TC);
        }
      }
      if (InTx)
        DC->txEnd(TC, T % 2 ? M1 : M0);
      DC->threadExiting(TC);
    });
  }
  for (std::thread &W : Workers)
    W.join();
  DC->endRun(RT);

  // The stress actually exercised the slow path…
  EXPECT_GT(Stats.value("icd.idg_cross_edges"), 0u);
  EXPECT_GT(Reorders.load(), 0u);
  EXPECT_GT(Stats.value("icd.reorders"), 0u);
  // …and no reorder ever froze the graph: only the stripes the edge
  // writer already held — conflict edges take two, the RdSh-upgrade path
  // takes up to four (stripe 0 + three endpoint threads) — never all.
  EXPECT_LE(MaxStripesHeld.load(), 4u);
  EXPECT_LT(MaxStripesHeld.load(), NumStripes);
  // Every claim happened at a retire, none deferred to finalize.
  EXPECT_EQ(Stats.value("icd.finalize_claims"), 0u);
}

/// The tentpole's race: concurrent lock-free consistent-edge publications
/// hammered against forced reorders (the hook widens every writer section
/// so fast-path snapshots observably fail validation and reconcile).
/// After quiescence the Pearce–Kelly invariant must hold for every
/// recorded edge — either internal to a merged component or pointing up
/// the maintained order. Run under TSan in CI.
TEST(IcdStressTest, LockFreeFastPathSurvivesForcedReorders) {
  constexpr uint32_t FastThreads = 4;
  constexpr uint32_t Universe = 192;
  constexpr uint32_t Block = 8;
  constexpr uint64_t EdgesPerThread = 3000;

  DetectorHarness H;
  std::vector<Transaction *> Nodes;
  Nodes.reserve(Universe);
  for (uint32_t I = 0; I < Universe; ++I)
    Nodes.push_back(H.node(I % 8)); // Creation order == initial key order.

  std::atomic<uint64_t> Reorders{0};
  H.D->setReorderHook([&](size_t) {
    Reorders.fetch_add(1, std::memory_order_relaxed);
    // Stretch the seqlock writer section so concurrent fast paths land
    // inside it and take the retry/reconcile route.
    for (volatile int Spin = 0; Spin < 400; ++Spin) {
    }
  });

  std::atomic<bool> Stop{false};
  std::thread Chaos([&] {
    SplitMix64 Rng(97);
    while (!Stop.load(std::memory_order_relaxed)) {
      // Back edges stay inside disjoint blocks of Block nodes. Forward
      // edges only climb in creation order, so every cycle lies within one
      // block: merged components stay small at any parallelism, and the
      // cross-block edges the audit below checks keep existing.
      const uint32_t Base = Rng.nextBelow(Universe / Block) * Block;
      const uint32_t I = Base + Rng.nextBelow(Block - 1);
      const uint32_t J = I + 1 + Rng.nextBelow(Base + Block - I - 1);
      IncrementalCycleDetector::ClaimList Claims;
      // Against creation order: inconsistent unless a prior reorder or
      // merge already fixed it — a steady supply of writer sections.
      H.D->addEdge(Nodes[J], Nodes[I], Claims);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> Fast;
  for (uint32_t T = 0; T < FastThreads; ++T) {
    Fast.emplace_back([&, T] {
      SplitMix64 Rng(T * 7919 + 11);
      for (uint64_t E = 0; E < EdgesPerThread; ++E) {
        const uint32_t I = Rng.nextBelow(Universe - 1);
        const uint32_t J = I + 1 + Rng.nextBelow(Universe - I - 1);
        IncrementalCycleDetector::ClaimList Claims;
        // With creation order: consistent (the lock-free fast path)
        // unless a reorder has permuted the pair since.
        H.D->addEdge(Nodes[I], Nodes[J], Claims);
      }
    });
  }
  for (std::thread &W : Fast)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Chaos.join();

  EXPECT_GT(Reorders.load(), 0u);
  // Post-quiescence order audit over the real published chains.
  const auto KeyOf = [](Transaction *Tx) {
    IcdGroup *G = Tx->IcdG.load();
    return G != nullptr ? G->Ord.load() : Tx->IcdOrd.load();
  };
  uint64_t Audited = 0;
  for (Transaction *Tx : Nodes) {
    IcdGroup *G = Tx->IcdG.load();
    for (IcdEdgeNode *C = Tx->IcdOutHead.load(); C != nullptr;
         C = C->Next) {
      Transaction *Peer = C->Peer;
      if (G != nullptr && G == Peer->IcdG.load())
        continue; // Internal to a merged component.
      EXPECT_LT(KeyOf(Tx), KeyOf(Peer))
          << "edge " << Tx->Id << "->" << Peer->Id
          << " violates the maintained order";
      ++Audited;
    }
  }
  EXPECT_GT(Audited, 0u);
  StatisticRegistry Stats;
  H.D->flushStats(Stats);
  EXPECT_GT(Stats.value("icd.fastpath_lockfree"), 0u);
  EXPECT_GT(Stats.value("icd.reorders"), 0u);
  EXPECT_EQ(Stats.value("icd.finalize_claims"), 0u);
}

} // namespace
