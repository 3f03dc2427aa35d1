//===- tests/vc_test.cpp - Vector-clock engine unit tests -----------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the vector-clock atomicity engine (DESIGN.md §14): the
/// clock representation's epoch/spill fast paths, transaction-boundary
/// sequence advance, the push-based propagation that keeps late-arriving
/// edges exact, the collector's root discipline, the lock-free validated
/// read and its fallback, and a free-running OS-thread stress that gives
/// TSan real concurrency to bite on.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "ir/Builder.h"
#include "rt/Runtime.h"
#include "vc/VectorClock.h"
#include "vc/VectorClockChecker.h"

using namespace dc;
using namespace dc::vc;

namespace {

//===----------------------------------------------------------------------===//
// VectorClock representation
//===----------------------------------------------------------------------===//

TEST(VcClock, SetAndGetRoundTrip) {
  VectorClock C(4);
  EXPECT_EQ(C.width(), 4u);
  for (uint32_t T = 0; T < 4; ++T)
    EXPECT_EQ(C.get(T), 0u);
  C.set(2, 7);
  EXPECT_EQ(C.get(2), 7u);
  EXPECT_TRUE(C.isEpoch()) << "one nonzero entry is an epoch";
  C.set(0, 3);
  EXPECT_EQ(C.get(0), 3u);
  EXPECT_FALSE(C.isEpoch()) << "two nonzero entries cannot be an epoch";
}

TEST(VcClock, EpochJoinFastPathGrowsOneSlot) {
  VectorClock Src(4), Dst(4);
  Src.set(1, 5); // Epoch 5@1.
  ASSERT_TRUE(Src.isEpoch());
  EXPECT_TRUE(Dst.joinFrom(Src));
  EXPECT_EQ(Dst.get(1), 5u);
  // Same join again: nothing grows.
  EXPECT_FALSE(Dst.joinFrom(Src));
  // A stale epoch (lower sequence) never shrinks the target.
  VectorClock Old(4);
  Old.set(1, 2);
  EXPECT_FALSE(Dst.joinFrom(Old));
  EXPECT_EQ(Dst.get(1), 5u);
}

TEST(VcClock, WideJoinIsSlotwiseMax) {
  VectorClock A(4), B(4);
  A.set(0, 4);
  A.set(1, 1);
  B.set(1, 6);
  B.set(2, 2);
  EXPECT_TRUE(A.joinFrom(B));
  EXPECT_EQ(A.get(0), 4u);
  EXPECT_EQ(A.get(1), 6u);
  EXPECT_EQ(A.get(2), 2u);
  EXPECT_EQ(A.get(3), 0u);
  // B already dominated by A on every slot it holds: no growth.
  EXPECT_FALSE(A.joinFrom(B));
}

TEST(VcClock, JoinFromEmptyIsNoop) {
  VectorClock A(4), Empty(4);
  A.set(3, 9);
  EXPECT_FALSE(A.joinFrom(Empty));
  EXPECT_EQ(A.get(3), 9u);
}

TEST(VcClock, SpillBeyondInlineSlots) {
  const uint32_t Wide = VectorClock::InlineSlots * 4; // Forces heap spill.
  VectorClock A(Wide), B(Wide);
  A.set(0, 1);
  A.set(Wide - 1, 11);
  B.set(VectorClock::InlineSlots + 1, 5);
  ASSERT_TRUE(B.isEpoch());
  EXPECT_TRUE(A.joinFrom(B)) << "epoch fast path must work on spilled clocks";
  EXPECT_EQ(A.get(VectorClock::InlineSlots + 1), 5u);
  EXPECT_EQ(A.get(Wide - 1), 11u);
  VectorClock C(Wide);
  EXPECT_TRUE(C.joinFrom(A));
  EXPECT_TRUE(C == A);
}

TEST(VcClock, EqualityComparesAllSlots) {
  VectorClock A(3), B(3);
  EXPECT_TRUE(A == B);
  A.set(1, 2);
  EXPECT_FALSE(A == B);
  B.set(1, 2);
  EXPECT_TRUE(A == B);
}

//===----------------------------------------------------------------------===//
// Engine scenarios (direct hook driving, same harness shape as
// velodrome_test.cpp — the two engines must behave alike on these)
//===----------------------------------------------------------------------===//

ir::Program scenarioProgram(uint32_t Threads = 2) {
  ir::ProgramBuilder B("vc");
  B.addPool("objs", 8, 2);
  ir::MethodId M1 = B.beginMethod("m1", true).work(1).endMethod();
  ir::MethodId M2 = B.beginMethod("m2", true).work(1).endMethod();
  ir::MethodId M3 = B.beginMethod("m3", true).work(1).endMethod();
  (void)M1;
  (void)M2;
  (void)M3;
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  for (uint32_t T = 0; T < Threads; ++T)
    B.addThread(Main);
  return B.build();
}

/// Drives one engine instance hook by hook over three threads.
struct VcHarness {
  VcHarness() : P(scenarioProgram(3)) {}

  void start(VectorClockOptions Opts = VectorClockOptions()) {
    VC = std::make_unique<VectorClockRuntime>(P, Opts, Violations, Stats);
    RT = std::make_unique<rt::Runtime>(P, VC.get());
    VC->beginRun(*RT);
    for (uint32_t T = 0; T < 3; ++T) {
      Tc[T].Tid = T;
      Tc[T].RT = RT.get();
      Tc[T].Checker = VC.get();
      VC->threadStarted(Tc[T]);
    }
  }

  void finish() {
    for (uint32_t T = 0; T < 3; ++T)
      VC->threadExiting(Tc[T]);
    VC->endRun(*RT);
  }

  /// \p Access runs where the program's load or store would, which is
  /// under the field's lock.
  void access(uint32_t Tid, rt::ObjectId Obj, uint32_t Field, bool IsWrite,
              function_ref<void()> Access = [] {}) {
    rt::AccessInfo Info;
    Info.Obj = Obj;
    Info.Addr = RT->heap().fieldAddr(Obj, Field);
    Info.IsWrite = IsWrite;
    Info.Flags = ir::IF_VelodromeBarrier;
    VC->instrumentedAccess(Tc[Tid], Info, Access);
  }

  void begin(uint32_t Tid, const char *M) {
    VC->txBegin(Tc[Tid], P.Methods[P.findMethod(M)]);
  }
  void end(uint32_t Tid, const char *M) {
    VC->txEnd(Tc[Tid], P.Methods[P.findMethod(M)]);
  }

  ir::Program P;
  StatisticRegistry Stats;
  analysis::ViolationLog Violations;
  std::unique_ptr<VectorClockRuntime> VC;
  std::unique_ptr<rt::Runtime> RT;
  rt::ThreadContext Tc[3];
};

class VcScenario : public ::testing::Test, protected VcHarness {};

TEST_F(VcScenario, DetectsInterleavedRmwCycle) {
  start();
  begin(0, "m1");
  begin(1, "m2");
  access(0, 0, 0, false); // T0 rd f.
  access(1, 0, 0, false); // T1 rd f.
  access(1, 0, 0, true);  // T1 wr f: edge m1 -> m2 (rd-wr).
  access(0, 0, 0, true);  // T0 wr f: edge m2 -> m1 => cycle.
  end(1, "m2");
  end(0, "m1");
  finish();
  EXPECT_GE(Violations.count(), 1u);
  EXPECT_GE(Stats.value("vc.violations"), 1u);
}

TEST_F(VcScenario, OneDirectionalDependenceIsClean) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  end(0, "m1");
  begin(1, "m2");
  access(1, 0, 0, false);
  end(1, "m2");
  finish();
  EXPECT_EQ(Violations.count(), 0u);
  EXPECT_GE(Stats.value("vc.cross_edges"), 1u);
}

TEST_F(VcScenario, BlameFallsOnClosingEdge) {
  start();
  begin(0, "m1");
  begin(1, "m2");
  access(0, 0, 0, false);
  access(1, 0, 0, true); // m1 -> m2.
  access(0, 0, 0, true); // m2 -> m1 closes the cycle inside m1's access.
  end(1, "m2");
  end(0, "m1");
  finish();
  ASSERT_GE(Violations.count(), 1u);
  auto Blamed = Violations.blamedMethods();
  // The closing edge targets m1 (the accessing transaction) — both
  // endpoints sit on the cycle, so either way blame stays inside it.
  EXPECT_TRUE(Blamed.count(P.findMethod("m1")) ||
              Blamed.count(P.findMethod("m2")));
}

TEST_F(VcScenario, TransactionBoundaryAdvancesSequence) {
  start();
  const uint64_t N = 5;
  for (uint64_t I = 0; I < N; ++I) {
    begin(0, "m1");
    access(0, 1, 0, true);
    end(0, "m1");
  }
  finish();
  // Exact accounting: one unary transaction per threadStarted (3), then a
  // regular + a unary per begin/end pair. Nothing is double-counted and no
  // boundary is merged away — each boundary advances the thread sequence.
  EXPECT_EQ(Stats.value("vc.txs"), 3u + 2 * N);
  EXPECT_EQ(Stats.value("vc.accesses"), N);
  EXPECT_EQ(Violations.count(), 0u);
}

TEST_F(VcScenario, ReentrantTxBeginStartsFreshTransaction) {
  // The runtime flattens reentrant atomic calls: an inner txBegin retires
  // the outer transaction (same demarcation the graph engines use). The
  // engine must neither crash nor leak a violation out of the harmless
  // sequence below.
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  begin(0, "m2"); // Reentrant begin without an end(m1).
  access(0, 0, 0, true);
  end(0, "m2");
  end(0, "m1"); // Unbalanced end degrades to a unary boundary.
  finish();
  EXPECT_EQ(Violations.count(), 0u);
  // threadStarted x3 + m1 + m2 + two unary spans from the two ends.
  EXPECT_EQ(Stats.value("vc.txs"), 3u + 4u);
}

TEST_F(VcScenario, RepeatedAccessSkipsMetadataUpdate) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  for (int I = 0; I < 10; ++I)
    access(0, 0, 0, true); // Already last writer: no metadata change.
  access(0, 0, 1, false);
  for (int I = 0; I < 10; ++I)
    access(0, 0, 1, false); // Already this thread's reader: validated.
  end(0, "m1");
  finish();
  EXPECT_EQ(Stats.value("vc.accesses"), 22u);
  EXPECT_EQ(Stats.value("vc.cross_edges"), 0u);
  EXPECT_EQ(Stats.value("vc.validated_reads"), 10u);
  EXPECT_EQ(Stats.value("vc.validated_read_retries"), 0u);
}

TEST_F(VcScenario, EngineLockOnlyForCrossEdges) {
  // Thread-private fields, re-read and re-written across transactions:
  // every metadata update records the thread's own transaction, so none
  // takes the engine lock.
  start();
  for (int I = 0; I < 4; ++I)
    for (uint32_t T = 0; T < 3; ++T) {
      begin(T, "m1");
      access(T, T, 0, false);
      access(T, T, 0, true);
      access(T, T, 1, true);
      access(T, T, 1, false);
      end(T, "m1");
      access(T, T, 0, false); // Unary span between transactions.
    }
  finish();
  EXPECT_EQ(Stats.value("vc.accesses"), 4u * 3 * 5);
  EXPECT_EQ(Stats.value("vc.engine_lock_accesses"), 0u);
  EXPECT_EQ(Stats.value("vc.cross_edges"), 0u);

  // A conflicting program: a write-read and a read-write edge each take it.
  VcHarness Conflict;
  Conflict.start();
  Conflict.begin(0, "m1");
  Conflict.access(0, 0, 0, true);
  Conflict.end(0, "m1");
  Conflict.begin(1, "m2");
  Conflict.access(1, 0, 0, false); // Foreign last writer.
  Conflict.end(1, "m2");
  Conflict.begin(2, "m3");
  Conflict.access(2, 0, 0, true); // Foreign reader.
  Conflict.end(2, "m3");
  Conflict.finish();
  EXPECT_EQ(Conflict.Stats.value("vc.engine_lock_accesses"), 2u);
  EXPECT_GE(Conflict.Stats.value("vc.cross_edges"), 2u);
  EXPECT_EQ(Conflict.Violations.count(), 0u);
}

TEST_F(VcScenario, LateEdgeCycleNeedsPropagation) {
  // The schedule that separates push-based propagation from naive eager
  // joins: the edge C->A arrives after A->B already exists, so B only
  // learns of C through A pushing its grown clock to subscribers. The
  // closing edge B->C then must see C in B's clock.
  start();
  begin(0, "m1"); // A
  begin(1, "m2"); // B
  begin(2, "m3"); // C
  access(0, 0, 0, true);  // A wr f0.
  access(1, 0, 0, false); // B rd f0: edge A->B.
  access(2, 1, 0, true);  // C wr f1.
  access(0, 1, 0, false); // A rd f1: edge C->A (late in-edge; propagates
                          // C's knowledge through A to B).
  access(1, 2, 0, true);  // B wr f2.
  access(2, 2, 0, false); // C rd f2: edge B->C closes C->A->B->C.
  end(0, "m1");
  end(1, "m2");
  end(2, "m3");
  finish();
  EXPECT_GE(Violations.count(), 1u)
      << "cycle only detectable through clock propagation";
  EXPECT_GE(Stats.value("vc.propagations"), 1u);
}

TEST_F(VcScenario, PredecessorWalkReconstructsCycleChain) {
  // Same three-transaction cycle as LateEdgeCycleNeedsPropagation
  // (C->A->B->C, closed by edge B->C), but checking the *report*: the
  // predecessor walk must name the intermediate transaction A, not just
  // the closing edge's endpoints. B learned C's clock entry through A's
  // push, so Pred chains B -> A -> C and the reported cycle lists all
  // three sites — each of which the oracle-subset property (checked by
  // the fuzzer and property_test) bounds to real cycle members.
  start();
  begin(0, "m1"); // A
  begin(1, "m2"); // B
  begin(2, "m3"); // C
  access(0, 0, 0, true);
  access(1, 0, 0, false); // A->B.
  access(2, 1, 0, true);
  access(0, 1, 0, false); // C->A.
  access(1, 2, 0, true);
  access(2, 2, 0, false); // B->C closes the cycle.
  end(0, "m1");
  end(1, "m2");
  end(2, "m3");
  finish();
  ASSERT_GE(Violations.count(), 1u);
  const std::vector<analysis::ViolationRecord> Records = Violations.records();
  const analysis::ViolationRecord &R = Records.front();
  ASSERT_GE(R.Cycle.size(), 3u)
      << "walk reported only the closing edge's endpoints";
  std::set<ir::MethodId> Sites;
  for (const analysis::CycleMember &M : R.Cycle)
    Sites.insert(M.Site);
  EXPECT_TRUE(Sites.count(P.findMethod("m1"))) << "intermediate A missing";
  EXPECT_TRUE(Sites.count(P.findMethod("m2")));
  EXPECT_TRUE(Sites.count(P.findMethod("m3")));
}

TEST_F(VcScenario, CollectorReclaimsOldTransactions) {
  VectorClockOptions Opts;
  Opts.CollectEveryTx = 4;
  start(Opts);
  for (int I = 0; I < 40; ++I) {
    begin(0, "m1");
    access(0, 1, 0, true);
    end(0, "m1");
  }
  finish();
  EXPECT_GT(Stats.value("vc.collector_runs"), 0u);
  EXPECT_GT(Stats.value("vc.txs_swept"), 10u);
}

TEST_F(VcScenario, WindowHealthCarriesEngineCounters) {
  // Each window flush publishes the engine's counters as deltas, so a
  // mid-run health snapshot carries them and endRun adds only the rest:
  // the totals match a run of the same accesses without windows.
  auto Drive = [](VcHarness &H) {
    for (int I = 0; I < 4; ++I) {
      H.begin(0, "m1");
      H.access(0, 0, 0, true);
      H.end(0, "m1");
      H.begin(1, "m2");
      H.access(1, 0, 0, false); // Write-read edge from thread 0.
      H.end(1, "m2");
    }
    H.finish();
  };
  VectorClockOptions Opts;
  Opts.WindowTxs = 2;
  std::vector<std::map<std::string, uint64_t>> Seen;
  Opts.WindowHook = [&](const rt::HealthSnapshot &H) {
    Seen.push_back(H.Stats);
  };
  start(Opts);
  Drive(*this);
  ASSERT_GE(Seen.size(), 2u);
  const std::map<std::string, uint64_t> &Mid = Seen[1];
  EXPECT_EQ(Mid.count("vc.txs"), 1u);
  EXPECT_EQ(Mid.at("vc.windows_flushed"), 2u);
  EXPECT_EQ(Mid.at("vc.collector_runs"), 2u);
  EXPECT_GT(Mid.at("vc.cross_edges"), 0u);
  EXPECT_EQ(Stats.value("vc.windows_flushed"), Seen.size());

  VcHarness Batch;
  Batch.start();
  Drive(Batch);
  for (const char *K : {"vc.txs", "vc.cross_edges", "vc.joins"})
    EXPECT_EQ(Stats.value(K), Batch.Stats.value(K)) << K;
}

TEST_F(VcScenario, MetadataRootsSurviveCollection) {
  // The last writer must never be swept while field metadata can still
  // source an edge from it: write once, churn transactions through many
  // collections, then read from another thread — the edge must appear.
  VectorClockOptions Opts;
  Opts.CollectEveryTx = 2;
  start(Opts);
  begin(0, "m1");
  access(0, 0, 0, true);
  end(0, "m1");
  for (int I = 0; I < 20; ++I) {
    begin(0, "m2");
    end(0, "m2"); // Churn to force collections.
  }
  begin(1, "m2");
  access(1, 0, 0, false); // Must find the (uncollected) last writer.
  end(1, "m2");
  finish();
  EXPECT_GE(Stats.value("vc.cross_edges"), 1u);
}

/// Both retention shapes that pin a thread's whole future history when
/// every referenced transaction is a marking root: thread 0's transaction W
/// writes field f once and nothing overwrites it, and thread 1 parks on a
/// unary transaction U that an edge interrupted. W and U both subscribe
/// their successors (program order for W, U's edge into thread 2 for U),
/// so marking forward from them reaches every later transaction of
/// threads 0 and 2. Threads 0 and 2 then churn for
/// \p ChurnTxs begin/end pairs each, and \p AfterChurn receives a health
/// snapshot. Finally a cycle A -> B -> A forms between fresh regular
/// transactions on threads 2 and 0, opened by an edge the surviving W
/// sources into A. (No cycle can pass through W itself once it is sealed:
/// nothing that can still receive an edge reaches it, DESIGN.md §14.)
void runRetentionScenario(VcHarness &H, uint32_t WindowTxs, int ChurnTxs,
                          rt::HealthSnapshot &AfterChurn) {
  const rt::ObjectId F = 0, S = 1, G = 2, Hf = 3, C = 4;
  VectorClockOptions Opts;
  Opts.WindowTxs = WindowTxs;
  H.start(Opts);
  H.begin(0, "m1"); // W
  H.access(0, F, 0, true);
  H.end(0, "m1");
  H.access(1, S, 0, true);  // U: thread 1's unary span writes s ...
  H.access(2, S, 0, false); // ... thread 2 reads it: U -> thread 2,
                            // interrupting U. Thread 1 never runs again.
  for (int I = 0; I < ChurnTxs; ++I) {
    for (uint32_t T : {0u, 2u}) {
      H.begin(T, "m2");
      H.access(T, 5 + T / 2, 0, true); // Thread-private field.
      H.access(T, C, 0, T == 0);       // Shared: edges thread 0 -> 2.
      H.end(T, "m2");
    }
  }
  H.VC->healthSnapshot(AfterChurn);
  H.begin(2, "m3"); // A
  H.access(2, F, 0, false); // W -> A: W must still exist.
  H.access(2, G, 0, true);
  H.begin(0, "m2"); // B
  H.access(0, G, 0, false); // A -> B.
  H.access(0, Hf, 0, true);
  H.access(2, Hf, 0, false); // B -> A closes the cycle inside A.
  H.end(0, "m2");
  H.end(2, "m3");
  H.finish();
}

TEST_F(VcScenario, SealedRootsDoNotPinLaterHistory) {
  const int ChurnTxs = 60;
  const uint32_t WindowTxs = 4;
  rt::HealthSnapshot Churned;
  runRetentionScenario(*this, WindowTxs, ChurnTxs, Churned);
  // 4 finished transactions per churn iteration, one flush every 4.
  ASSERT_GE(Stats.value("vc.windows_flushed"), 20u);
  // Finished transactions that may survive the churn: W, thread 2's reader
  // of s, and the latest churn transactions that field metadata still
  // names or the open current ones still reach. Everything else finished
  // must have been swept.
  const uint64_t MaxSurvivors = 8;
  EXPECT_GE(Churned.RetiredTxs + MaxSurvivors, Churned.FinishedTxs)
      << "retired " << Churned.RetiredTxs << " of " << Churned.FinishedTxs;
  EXPECT_GE(Stats.value("vc.txs_sealed"), 2u) << "W and U must be sealed";
  EXPECT_GT(Stats.value("vc.window_pinned_peak"), 0u);
  EXPECT_LE(Stats.value("vc.window_pinned_peak"), MaxSurvivors + 3);

  VcHarness Batch;
  rt::HealthSnapshot Unused;
  runRetentionScenario(Batch, /*WindowTxs=*/0, ChurnTxs, Unused);
  ASSERT_EQ(Batch.Stats.value("vc.txs_swept"), 0u);
  ASSERT_GE(Batch.Violations.count(), 1u);
  EXPECT_EQ(Violations.count(), Batch.Violations.count());
  EXPECT_EQ(Violations.blamedMethods(), Batch.Violations.blamedMethods());
  EXPECT_EQ(Violations.blamedMethods().count(P.findMethod("m3")), 1u);
  EXPECT_EQ(Stats.value("vc.cross_edges"),
            Batch.Stats.value("vc.cross_edges"));
  EXPECT_EQ(Stats.value("vc.violations"), Batch.Stats.value("vc.violations"));
  EXPECT_EQ(Stats.value("vc.txs"), Batch.Stats.value("vc.txs"));
}

TEST_F(VcScenario, SyncOpsTrackedAsAccesses) {
  start();
  begin(0, "m1");
  rt::AccessInfo Info;
  Info.Obj = 0;
  Info.Addr = RT->heap().syncAddr(0);
  Info.IsWrite = true; // Release-like.
  Info.IsSync = true;
  Info.Flags = ir::IF_VelodromeBarrier;
  VC->syncOp(Tc[0], Info, rt::SyncKind::MonitorExit);
  end(0, "m1");
  begin(1, "m2");
  Info.IsWrite = false; // Acquire-like.
  VC->syncOp(Tc[1], Info, rt::SyncKind::MonitorEnter);
  end(1, "m2");
  finish();
  EXPECT_GE(Stats.value("vc.cross_edges"), 1u)
      << "release-acquire must create a dependence edge";
}

TEST_F(VcScenario, DetectCyclesOffStillTracksClocks) {
  VectorClockOptions Opts;
  Opts.DetectCycles = false;
  start(Opts);
  begin(0, "m1");
  begin(1, "m2");
  access(0, 0, 0, false);
  access(1, 0, 0, true);
  access(0, 0, 0, true); // Would close a cycle with detection on.
  end(1, "m2");
  end(0, "m1");
  finish();
  EXPECT_EQ(Violations.count(), 0u);
  EXPECT_GE(Stats.value("vc.cross_edges"), 2u)
      << "edge tracking continues with the check disabled";
}

//===----------------------------------------------------------------------===//
// Free-running stress (the TSan target: real threads, real interleavings)
//===----------------------------------------------------------------------===//

TEST(VcStress, TransactionSealedMidAccessIsRotated) {
  // Thread 0's access passes currentForAccess with its unary transaction U
  // still open, then waits for field x's lock, which thread 2 holds by
  // blocking in its own access callback. Meanwhile thread 1 reads a field
  // U wrote, interrupting U, and ends its span, whose window flush seals U.
  // Only then does thread 2 let go of x. Under the engine lock thread 0's
  // access must find U sealed and rotate to a fresh unary transaction, as
  // currentForAccess would have. Targeting U instead would add an edge
  // into a sealed transaction and leave one transaction fewer.
  //
  // A sleep gives thread 0 time to reach x's lock, so on a loaded host it
  // may not have started its access when the flush runs. Such a run is
  // inconclusive and is retried: only a flush that completes while thread
  // 0 is inside its access can have sealed U first.
  constexpr int MaxAttempts = 5;
  for (int Attempt = 1;; ++Attempt) {
    VcHarness H;
    VectorClockOptions Opts;
    Opts.WindowTxs = 1;
    H.start(Opts);
    const rt::ObjectId X = 0, Y = 1;
    H.access(0, Y, 0, true); // U writes y.
    std::atomic<bool> T2HoldsX{false}, Flushed{false};
    std::thread T2([&] { // Holds x until the flush is done.
      H.access(2, X, 0, true, [&] {
        T2HoldsX.store(true);
        while (!Flushed.load())
          std::this_thread::yield();
      });
    });
    while (!T2HoldsX.load())
      std::this_thread::yield();
    std::atomic<bool> T0Started{false}, T0Done{false};
    std::thread T0([&] { // Waits for x.
      T0Started.store(true);
      H.access(0, X, 0, true);
      T0Done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const bool T0Waiting = T0Started.load();
    H.access(1, Y, 0, false); // U -> thread 1: interrupts U.
    H.begin(1, "m1");         // Ends thread 1's span: the flush seals U.
    H.end(1, "m1");
    const bool FlushedInTime = T0Waiting && !T0Done.load();
    Flushed.store(true);
    T2.join();
    T0.join();
    H.finish();
    if (!FlushedInTime && Attempt < MaxAttempts)
      continue;
    ASSERT_TRUE(FlushedInTime)
        << "the flush never completed while thread 0 was inside its access";
    // Three initial spans, thread 1's m1 and its unary successor, and the
    // span replacing U.
    EXPECT_EQ(H.Stats.value("vc.txs"), 6u);
    EXPECT_GE(H.Stats.value("vc.txs_sealed"), 1u);
    EXPECT_EQ(H.Violations.count(), 0u);
    break;
  }
}

TEST(VcStress, WriteDuringValidatedReadTakesLockedPath) {
  // Thread 0 reads x twice in m1. Its reader slot holds m1 at the second
  // read, so that read validates instead of taking x's lock, and it blocks
  // inside its access callback. Thread 1 then writes x in m2, which adds the
  // read-write edge m1 -> m2 and clears the slot, and ends m2. Released,
  // the read must fail its re-check, drop the value and load again on the
  // locked path, which adds the write-read edge m2 -> m1: a cycle. A read
  // that skipped the re-check would return with neither edge nor report.
  // Deterministic: thread 0 holds no lock while it blocks.
  VcHarness H;
  H.start();
  const rt::ObjectId X = 0;
  H.begin(0, "m1");
  H.access(0, X, 0, false);
  std::atomic<bool> InRead{false}, Written{false};
  int Loads = 0;
  std::thread T0([&] {
    H.access(0, X, 0, false, [&] {
      if (Loads++ != 0)
        return;
      InRead.store(true);
      while (!Written.load())
        std::this_thread::yield();
    });
    H.end(0, "m1");
  });
  while (!InRead.load())
    std::this_thread::yield();
  H.begin(1, "m2");
  H.access(1, X, 0, true);
  H.end(1, "m2");
  Written.store(true);
  T0.join();
  H.finish();
  EXPECT_EQ(Loads, 2) << "the overlapped read was not loaded again";
  EXPECT_EQ(H.Stats.value("vc.validated_reads"), 0u);
  EXPECT_EQ(H.Stats.value("vc.validated_read_retries"), 1u);
  EXPECT_EQ(H.Stats.value("vc.cross_edges"), 2u);
  ASSERT_EQ(H.Violations.count(), 1u)
      << "the write-read edge m2 -> m1 was never recorded";
}

/// Drives the engine's hooks from free-running OS threads. With \p Windowed
/// set, the engine flushes a window every two finished transactions, the
/// workers also access shared fields from unary spans between their
/// transactions, and one extra thread parks on an interrupted unary
/// transaction until the workers finish: sealing, and the access path's
/// rotate-on-sealed recheck, then race real accesses.
void runConcurrentStress(bool Windowed) {
  const uint32_t Workers = 4;
  const uint32_t NumThreads = Workers + (Windowed ? 1 : 0);
  const int TxPerThread = 400;
  ir::Program P = scenarioProgram(NumThreads);
  StatisticRegistry Stats;
  analysis::ViolationLog Violations;
  VectorClockOptions Opts;
  Opts.CollectEveryTx = 64; // Collect often: sweeps race against accesses.
  if (Windowed)
    Opts.WindowTxs = 2;
  auto VC =
      std::make_unique<VectorClockRuntime>(P, Opts, Violations, Stats);
  rt::Runtime RT(P, VC.get());
  VC->beginRun(RT);

  std::vector<rt::ThreadContext> Tc(NumThreads);
  for (uint32_t T = 0; T < NumThreads; ++T) {
    Tc[T].Tid = T;
    Tc[T].RT = &RT;
    Tc[T].Checker = VC.get();
  }
  auto Access = [&](uint32_t T, rt::ObjectId Obj, uint32_t Field,
                    bool IsWrite) {
    rt::AccessInfo Info;
    Info.Obj = Obj;
    Info.Addr = RT.heap().fieldAddr(Obj, Field);
    Info.IsWrite = IsWrite;
    Info.Flags = ir::IF_VelodromeBarrier;
    VC->instrumentedAccess(Tc[T], Info, [] {});
  };

  std::vector<std::thread> Threads;
  std::atomic<uint32_t> Done{0};
  const ir::Method &M1 = P.Methods[P.findMethod("m1")];
  for (uint32_t T = 0; T < Workers; ++T) {
    Threads.emplace_back([&, T] {
      VC->threadStarted(Tc[T]);
      uint64_t State = T * 7919 + 13;
      for (int I = 0; I < TxPerThread; ++I) {
        VC->txBegin(Tc[T], M1);
        for (int A = 0; A < 3; ++A) {
          State = State * 6364136223846793005ULL + 1442695040888963407ULL;
          // Mostly thread-private with a shared object mixed in, so the
          // stress exercises conflict edges, propagation, and collection
          // concurrently.
          rt::ObjectId Obj = (State >> 33) % 4 == 0
                                 ? static_cast<rt::ObjectId>((State >> 17) % 2)
                                 : static_cast<rt::ObjectId>(4 + T);
          Access(T, Obj, (State >> 9) % 2, (State >> 5) % 2 == 0);
        }
        VC->txEnd(Tc[T], M1);
        // Shared accesses from the unary span: its later accesses can find
        // it interrupted (by another thread's edge) and sealed (by a flush)
        // after currentForAccess returned it.
        for (int A = 0; Windowed && A < 3; ++A) {
          State = State * 6364136223846793005ULL + 1442695040888963407ULL;
          Access(T, static_cast<rt::ObjectId>((State >> 41) % 3),
                 (State >> 13) % 2, (State >> 7) % 2 == 0);
        }
      }
      VC->threadExiting(Tc[T]);
      Done.fetch_add(1);
    });
  }
  if (Windowed) {
    Threads.emplace_back([&, T = Workers] {
      VC->threadStarted(Tc[T]);
      // The workers' accesses to object 2 interrupt this unary span, and
      // the next flush seals it while the thread is parked.
      Access(T, 2, 0, true);
      Access(T, 2, 1, false);
      while (Done.load() < Workers)
        std::this_thread::yield();
      Access(T, 2, 0, true);
      VC->threadExiting(Tc[T]);
    });
  }
  for (std::thread &W : Threads)
    W.join();
  VC->endRun(RT);

  const uint64_t Accesses =
      static_cast<uint64_t>(Workers) * TxPerThread * (Windowed ? 6 : 3) +
      (Windowed ? 3 : 0);
  EXPECT_EQ(Stats.value("vc.accesses"), Accesses);
  EXPECT_GT(Stats.value("vc.collector_runs"), 0u);
  if (Windowed) {
    EXPECT_GT(Stats.value("vc.txs_sealed"), 0u);
    EXPECT_GT(Stats.value("vc.txs_swept"), Stats.value("vc.txs") / 2);
  }
}

TEST(VcStress, UnlockedMetadataRacesCollection) {
  // Workers re-read shared fields that nothing ever writes, each read from
  // a fresh transaction, and re-write a thread-private field. No access
  // adds an edge, so every metadata store skips the engine lock, while a
  // window flush after every finished transaction scans the same metadata
  // and sweeps the transactions the stores displaced. A private write reads
  // the displaced last writer's thread just before its store; TSan checks
  // that read against the sweep that frees it (release stores, acquire
  // scan), and ASan checks it is never a read of freed memory.
  const uint32_t Workers = 4;
  const int TxPerThread = 1000;
  const int ReadsPerTx = 4;
  ir::Program P = scenarioProgram(Workers);
  StatisticRegistry Stats;
  analysis::ViolationLog Violations;
  VectorClockOptions Opts;
  Opts.WindowTxs = 1;
  auto VC = std::make_unique<VectorClockRuntime>(P, Opts, Violations, Stats);
  rt::Runtime RT(P, VC.get());
  VC->beginRun(RT);

  std::vector<rt::ThreadContext> Tc(Workers);
  auto Access = [&](uint32_t T, rt::ObjectId Obj, uint32_t Field,
                    bool IsWrite) {
    rt::AccessInfo Info;
    Info.Obj = Obj;
    Info.Addr = RT.heap().fieldAddr(Obj, Field);
    Info.IsWrite = IsWrite;
    Info.Flags = ir::IF_VelodromeBarrier;
    VC->instrumentedAccess(Tc[T], Info, [] {});
  };
  const ir::Method &M1 = P.Methods[P.findMethod("m1")];
  std::vector<std::thread> Threads;
  for (uint32_t T = 0; T < Workers; ++T) {
    Tc[T].Tid = T;
    Tc[T].RT = &RT;
    Tc[T].Checker = VC.get();
    Threads.emplace_back([&, T] {
      VC->threadStarted(Tc[T]);
      for (int I = 0; I < TxPerThread; ++I) {
        VC->txBegin(Tc[T], M1);
        for (int A = 0; A < ReadsPerTx; ++A)
          Access(T, A % 2, A / 2, /*IsWrite=*/false);
        Access(T, 4 + T, 0, /*IsWrite=*/true);
        VC->txEnd(Tc[T], M1);
      }
      VC->threadExiting(Tc[T]);
    });
  }
  for (std::thread &W : Threads)
    W.join();
  VC->endRun(RT);

  EXPECT_EQ(Stats.value("vc.accesses"),
            static_cast<uint64_t>(Workers) * TxPerThread * (ReadsPerTx + 1));
  EXPECT_EQ(Stats.value("vc.engine_lock_accesses"), 0u);
  EXPECT_GT(Stats.value("vc.txs_swept"), 0u);
  EXPECT_EQ(Violations.count(), 0u);
}

TEST(VcStress, ConcurrentHookDrivingIsRaceFree) {
  runConcurrentStress(/*Windowed=*/false);
}

TEST(VcStress, WindowedSealingIsRaceFree) {
  runConcurrentStress(/*Windowed=*/true);
}

} // namespace
