//===- tests/analysis_test.cpp - ICD / logs / collector tests -------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives DoubleCheckerRuntime's hooks directly from one OS thread. Program
/// threads are parked in the blocked state right after starting and leave
/// it only for their own accesses, so every coordination uses Octet's
/// implicit protocol and runs synchronously — which makes the paper's
/// interleaving examples (notably the §3.2.3 two-transaction example)
/// exactly reproducible.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "analysis/DoubleChecker.h"
#include "ir/Builder.h"
#include "rt/Runtime.h"

using namespace dc;
using namespace dc::analysis;

namespace {

/// Two regular methods and a heap with two 2-field objects.
ir::Program scenarioProgram() {
  ir::ProgramBuilder B("icd");
  B.addPool("objs", 4, 2);
  ir::MethodId M1 = B.beginMethod("m1", true).work(1).endMethod();
  ir::MethodId M2 = B.beginMethod("m2", true).work(1).endMethod();
  (void)M1;
  (void)M2;
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  B.addThread(Main);
  B.addThread(Main);
  B.addThread(Main);
  return B.build();
}

class IcdScenario : public ::testing::Test {
protected:
  IcdScenario() : P(scenarioProgram()) {}

  void start(DoubleCheckerOptions Opts = DoubleCheckerOptions()) {
    DC = std::make_unique<DoubleCheckerRuntime>(P, Opts, Violations, Stats);
    RT = std::make_unique<rt::Runtime>(P, DC.get());
    DC->beginRun(*RT);
    for (uint32_t T = 0; T < 3; ++T) {
      Tc[T].Tid = T;
      Tc[T].RT = RT.get();
      Tc[T].Checker = DC.get();
      DC->threadStarted(Tc[T]);
      DC->aboutToBlock(Tc[T]); // Implicit protocol for everything.
    }
  }

  void finish() {
    for (uint32_t T = 0; T < 3; ++T) {
      DC->unblocked(Tc[T]);
      DC->threadExiting(Tc[T]);
    }
    DC->endRun(*RT);
  }

  void access(uint32_t Tid, rt::ObjectId Obj, uint32_t Field, bool IsWrite) {
    rt::AccessInfo Info;
    Info.Obj = Obj;
    Info.Addr = RT->heap().fieldAddr(Obj, Field);
    Info.IsWrite = IsWrite;
    Info.Flags = ir::IF_OctetBarrier | ir::IF_LogAccess;
    // A blocked thread performs no access: the collector may seal its
    // interrupted unary transaction.
    DC->unblocked(Tc[Tid]);
    DC->instrumentedAccess(Tc[Tid], Info, [] {});
    DC->aboutToBlock(Tc[Tid]);
  }

  void begin(uint32_t Tid, const char *Method) {
    DC->txBegin(Tc[Tid], P.Methods[P.findMethod(Method)]);
  }
  void end(uint32_t Tid, const char *Method) {
    DC->txEnd(Tc[Tid], P.Methods[P.findMethod(Method)]);
  }

  ir::Program P;
  StatisticRegistry Stats;
  ViolationLog Violations;
  std::unique_ptr<DoubleCheckerRuntime> DC;
  std::unique_ptr<rt::Runtime> RT;
  rt::ThreadContext Tc[3];
};

// The paper's §3.2.3 example: T1 {wr o.f; rd p.q}, T2 {wr p.q; rd o.g}.
// ICD sees an object-granularity cycle; PCD must filter it (the precise
// dependences are o: none across the used fields, p: tx2 -> tx1 only).
TEST_F(IcdScenario, ImpreciseCycleFilteredByPcd) {
  start();
  begin(0, "m1");
  begin(1, "m2");
  access(0, /*o=*/0, /*f=*/0, /*wr=*/true);
  access(1, /*p=*/1, /*q=*/1, /*wr=*/true);
  access(0, /*p=*/1, /*q=*/1, /*wr=*/false); // Conflict: edge tx2 -> tx1.
  access(1, /*o=*/0, /*g=*/1, /*wr=*/false); // Conflict: edge tx1 -> tx2.
  end(1, "m2");
  end(0, "m1"); // Both finished: SCC containing tx1 detected here.
  finish();

  EXPECT_GE(Stats.value("icd.sccs"), 1u) << "ICD must report the cycle";
  EXPECT_GE(Stats.value("pcd.sccs_processed"), 1u);
  EXPECT_EQ(Violations.count(), 0u)
      << "no precise cycle exists (different fields of o)";
}

// Same interleaving plus T2's rd o.f: now a precise cycle exists
// (o.f: tx1 -> tx2; p.q: tx2 -> tx1) and must be reported.
TEST_F(IcdScenario, PreciseCycleReported) {
  start();
  begin(0, "m1");
  begin(1, "m2");
  access(0, 0, 0, true);
  access(1, 1, 1, true);
  access(0, 1, 1, false);
  access(1, 0, 1, false);
  access(1, 0, 0, false); // rd o.f: completes the precise cycle.
  end(1, "m2");
  end(0, "m1");
  finish();

  ASSERT_GE(Violations.count(), 1u);
  auto Blamed = Violations.blamedMethods();
  EXPECT_TRUE(Blamed.count(P.findMethod("m1")) ||
              Blamed.count(P.findMethod("m2")));
}

TEST_F(IcdScenario, NoCycleNoScc) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  end(0, "m1");
  begin(1, "m2");
  access(1, 0, 0, false); // One-directional dependence only.
  end(1, "m2");
  finish();
  EXPECT_EQ(Stats.value("icd.sccs"), 0u);
  EXPECT_EQ(Violations.count(), 0u);
}

TEST_F(IcdScenario, RegularTransactionCountsTracked) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  end(0, "m1");
  begin(0, "m2");
  end(0, "m2");
  finish();
  EXPECT_EQ(Stats.value("icd.regular_transactions"), 2u);
  EXPECT_EQ(Stats.value("icd.instrumented_accesses_regular"), 1u);
}

TEST_F(IcdScenario, UnaryAccessesCountedSeparately) {
  start();
  access(0, 0, 0, true); // Outside any regular transaction.
  access(0, 0, 0, false);
  begin(0, "m1");
  access(0, 0, 1, true);
  end(0, "m1");
  finish();
  EXPECT_EQ(Stats.value("icd.instrumented_accesses_unary"), 2u);
  EXPECT_EQ(Stats.value("icd.instrumented_accesses_regular"), 1u);
}

TEST_F(IcdScenario, LogElisionDropsDuplicates) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  for (int I = 0; I < 5; ++I)
    access(0, 0, 0, false); // Reads after a write, no edges: all elided.
  access(0, 0, 0, true);    // Write after write: elided too.
  end(0, "m1");
  finish();
  EXPECT_EQ(Stats.value("icd.log_entries"), 1u);
  EXPECT_EQ(Stats.value("icd.log_entries_elided"), 6u);
}

TEST_F(IcdScenario, ElisionWindowEndsAtTransactionBoundary) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  end(0, "m1");
  begin(0, "m2");
  access(0, 0, 0, true); // New transaction: must be logged again.
  end(0, "m2");
  finish();
  EXPECT_EQ(Stats.value("icd.log_entries"), 2u);
}

TEST_F(IcdScenario, ReadThenWriteNotElided) {
  start();
  begin(0, "m1");
  access(0, 0, 0, false);
  access(0, 0, 0, true); // A write upgrades the information: logged.
  end(0, "m1");
  finish();
  EXPECT_EQ(Stats.value("icd.log_entries"), 2u);
}

TEST_F(IcdScenario, UnaryTransactionsMergeUntilInterrupted) {
  start();
  // Thread 0 performs several unary accesses: they merge into one unary
  // transaction...
  access(0, 2, 0, true);
  access(0, 2, 1, true);
  // ...until a cross-thread edge interrupts it (thread 1 conflicts).
  access(1, 2, 0, true);
  // The next access starts a fresh unary transaction.
  access(0, 3, 0, true);
  finish();
  // threadStarted creates 1 unary tx per thread (3 threads); thread 0 gets
  // one more after the interruption, thread 1's and 0's originals merged
  // everything else; plus each threadExit leaves the then-current txs.
  EXPECT_GE(Stats.value("icd.unary_transactions"), 4u);
  EXPECT_GE(Stats.value("icd.idg_cross_edges"), 1u);
}

TEST_F(IcdScenario, CollectorSweepsUnreachableTransactions) {
  DoubleCheckerOptions Opts;
  Opts.CollectEveryTx = 4; // Collect aggressively.
  start(Opts);
  for (int I = 0; I < 40; ++I) {
    begin(0, "m1");
    access(0, 0, 0, true);
    end(0, "m1");
  }
  finish();
  EXPECT_GT(Stats.value("icd.collector_runs"), 0u);
  EXPECT_GT(Stats.value("icd.txs_swept"), 20u)
      << "edge-free finished transactions must be reclaimed";
}

// The collector's cycle rule. X (thread 0's m1) and U (thread 1's unary
// transaction) form a detected cycle. X finishes; then a collection finds
// U interrupted while its thread is blocked and seals it. Nothing else
// reaches X, so X survives only because a current transaction on a
// detected cycle stays a strong root even when sealed. Were X swept, U's
// retire would claim a component missing X and the violation would be
// lost. The run without the collection is the reference.
class SealedCycleScenario : public IcdScenario,
                            public ::testing::WithParamInterface<bool> {};

TEST_P(SealedCycleScenario, SealedMemberKeepsItsComponent) {
  const bool Flush = GetParam();
  DoubleCheckerOptions Opts;
  Opts.WindowTxs = 1u << 20; // Service mode, but the test flushes by hand.
  start(Opts);
  begin(0, "m1");        // X.
  access(0, 0, 0, true); // X writes o.
  access(1, 1, 0, true); // U writes p.
  access(1, 0, 0, true); // U writes o: X -> U, interrupting U.
  access(0, 1, 0, true); // X writes p: U -> X closes the cycle.
  end(0, "m1");          // X finishes and retires; U is unretired.
  if (Flush)
    DC->windowFlush();   // Seals U; only the cycle rule keeps X.
  access(1, 2, 0, true); // Rotates U out: its retire claims {X, U}.
  finish();
  EXPECT_EQ(Stats.value("icd.txs_sealed"), Flush ? 1u : 0u);
  EXPECT_EQ(Stats.value("icd.sccs"), 1u);
  ASSERT_GE(Violations.count(), 1u);
  EXPECT_EQ(Violations.blamedMethods().count(P.findMethod("m1")), 1u);
}

INSTANTIATE_TEST_SUITE_P(Collection, SealedCycleScenario,
                         ::testing::Values(false, true));

// The exception to the cycle rule. W (thread 1's unary transaction) writes
// o and p; Y (thread 2's m1) overwrites o, interrupting W. A flush seals W
// and sweeps Y, so W's Out list now dangles. Later an inconsistent edge
// under a region cap of 1 poisons thread 0's m1, and W's edge into it
// pulls W into the oversized group. W must stay untraced: its members
// were reported Potential on absorption, and tracing W at the next flush
// would follow the dangling edge (ASan reports it).
TEST_F(IcdScenario, SealedTransactionAbsorbedIntoOversizedGroupStaysUntraced) {
  DoubleCheckerOptions Opts;
  Opts.WindowTxs = 1u << 20; // Service mode, but the test flushes by hand.
  Opts.IcdMaxRegion = 1;
  start(Opts);
  access(1, 0, 0, true);  // W writes o.
  access(1, 1, 0, true);  // W writes p.
  begin(2, "m1");         // Y.
  access(2, 0, 0, true);  // Y writes o: W -> Y, interrupting W.
  end(2, "m1");
  DC->windowFlush();      // Seals W, sweeps Y.
  begin(0, "m1");         // X.
  begin(2, "m2");         // Z, newer than X.
  access(2, 2, 0, true);  // Z writes q.
  access(0, 2, 0, true);  // X writes q: Z -> X is inconsistent; poisons X.
  access(0, 1, 0, true);  // X writes p: W -> X absorbs W.
  DC->windowFlush();      // W is sealed and oversized: not traced.
  end(0, "m1");
  end(2, "m2");
  finish();
  EXPECT_EQ(Stats.value("icd.txs_sealed"), 1u);
  EXPECT_GE(Stats.value("icd.txs_swept"), 1u);
  EXPECT_GE(Stats.value("icd.region_cap_degrades"), 1u);
}

TEST_F(IcdScenario, StaticInfoRecordsSccSites) {
  start();
  begin(0, "m1");
  begin(1, "m2");
  access(0, 0, 0, true);
  access(1, 1, 1, true);
  access(0, 1, 1, false);
  access(1, 0, 1, false);
  end(1, "m2");
  end(0, "m1");
  StaticTransactionInfo Info = DC->staticInfo();
  finish();
  EXPECT_TRUE(Info.MethodNames.count("m1"));
  EXPECT_TRUE(Info.MethodNames.count("m2"));
  EXPECT_FALSE(Info.AnyUnary);
}

TEST_F(IcdScenario, StaticInfoFlagsUnaryInvolvement) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  access(1, 0, 0, true); // Unary write conflicting with the transaction.
  access(0, 0, 0, false);
  access(1, 0, 0, true); // And back: unary <-> regular cycle.
  end(0, "m1");
  // End thread 1's unary transaction so the SCC becomes detectable.
  DC->unblocked(Tc[1]);
  DC->threadExiting(Tc[1]);
  DC->unblocked(Tc[0]);
  DC->threadExiting(Tc[0]);
  DC->unblocked(Tc[2]);
  DC->threadExiting(Tc[2]);
  StaticTransactionInfo Info = DC->staticInfo();
  DC->endRun(*RT);
  EXPECT_TRUE(Info.AnyUnary);
  EXPECT_TRUE(Info.MethodNames.count("m1"));
}

// Figure 3 mechanism: a write observed through the RdSh chain. Thread 0
// writes o; thread 1's read takes o to RdEx; thread 2's read upgrades it to
// RdSh (edges from t1's lastRdEx and from gLastRdSh); thread 2 then writes
// o back inside the same transaction while thread 0's transaction is still
// open and reads o again — a genuine cycle detectable only because the
// upgrade edges exist.
TEST_F(IcdScenario, RdShUpgradeEdgesCarryDependences) {
  start();
  begin(0, "m1");
  begin(2, "m2");
  access(0, 0, 0, true);  // t0: wr o.f (WrEx_0), inside m1.
  access(1, 0, 0, false); // t1: rd o.f -> RdEx_1 + conflict edge m1 -> u1.
  access(2, 0, 0, false); // t2: rd o.f -> RdSh + upgrade edges.
  access(2, 0, 0, true);  // t2: wr o.f -> conflict with all -> WrEx_2.
  access(0, 0, 0, false); // t0: rd o.f after t2's write: cycle m1 <-> m2.
  end(2, "m2");
  end(0, "m1");
  finish();
  EXPECT_GT(Stats.value("octet.upgrade_rdsh"), 0u);
  ASSERT_GE(Violations.count(), 1u) << "the RdSh-path cycle must be found";
}

// The gLastRdSh chain (Fig. 3): a fence transition's edge only references
// the *latest* transition to RdSh, and dependences on earlier RdSh objects
// are covered transitively by the edges between RdSh transitions.
TEST_F(IcdScenario, FenceTransitionAddsEdge) {
  start();
  access(0, 0, 0, false); // o: RdEx_0.
  access(1, 0, 0, false); // o: RdSh (upgrade by t1: edge from t0's lastRdEx).
  access(2, 0, 0, false); // t2 stale -> fence -> edge from gLastRdSh.
  finish();
  EXPECT_GT(Stats.value("octet.fence"), 0u);
  // Upgrade edge (lastRdEx -> t1) + fence edge (gLastRdSh -> t2).
  EXPECT_GE(Stats.value("icd.idg_cross_edges"), 2u);
}

// Regression: a conflicting transition whose responder thread has already
// exited must still produce an IDG edge — from the thread's *final*
// transaction. Dropping it is unsound (missed cycles) and breaks PCD's
// replay ordering (false cycles through lost lock hand-offs).
TEST_F(IcdScenario, EdgesFromExitedThreadsAreKept) {
  start();
  begin(1, "m1");
  access(1, 0, 0, true); // Thread 1 owns object 0 (WrEx).
  end(1, "m1");
  DC->unblocked(Tc[1]);
  DC->threadExiting(Tc[1]); // Thread 1 exits; object 0 stays WrEx_1.

  uint64_t Before = 0;
  {
    // Thread 0 now conflicts with the exited thread.
    begin(0, "m2");
    access(0, 0, 0, true);
    end(0, "m2");
  }
  // Finish the remaining threads and flush stats.
  DC->unblocked(Tc[0]);
  DC->threadExiting(Tc[0]);
  DC->unblocked(Tc[2]);
  DC->threadExiting(Tc[2]);
  DC->endRun(*RT);
  (void)Before;
  EXPECT_GE(Stats.value("icd.idg_cross_edges"), 1u)
      << "the conflicting transition with the exited thread must produce "
         "an edge from its final transaction";
}

TEST(StaticInfoTest, SerializeParseRoundTrip) {
  StaticTransactionInfo Info;
  Info.AnyUnary = true;
  Info.MethodNames = {"alpha", "beta"};
  StaticTransactionInfo Back =
      StaticTransactionInfo::parse(Info.serialize());
  EXPECT_EQ(Back.AnyUnary, true);
  EXPECT_EQ(Back.MethodNames, Info.MethodNames);
}

TEST(StaticInfoTest, MergeUnions) {
  StaticTransactionInfo A, B;
  A.MethodNames = {"x"};
  B.MethodNames = {"y"};
  B.AnyUnary = true;
  A.merge(B);
  EXPECT_EQ(A.MethodNames.size(), 2u);
  EXPECT_TRUE(A.AnyUnary);
}

TEST(ViolationLogTest, DedupesBlamedMethods) {
  ViolationLog Log;
  ViolationRecord R1;
  R1.Blamed = 3;
  Log.report(R1);
  Log.report(R1);
  ViolationRecord R2;
  R2.Blamed = ir::InvalidMethodId;
  Log.report(R2);
  EXPECT_EQ(Log.count(), 3u);
  EXPECT_EQ(Log.blamedMethods().size(), 1u)
      << "unblamed records do not contribute static violations";
}

TEST(TransactionTest, AppendLogPublishesLength) {
  Transaction Tx(1, 0, 0, ir::InvalidMethodId, false);
  EXPECT_EQ(Tx.LogLen.load(), 0u);
  LogEntry E;
  Tx.appendLog(E);
  Tx.appendLog(E);
  EXPECT_EQ(Tx.LogLen.load(), 2u);
  EXPECT_EQ(Tx.Log.size(), 2u);
}

} // namespace
