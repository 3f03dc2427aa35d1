//===- tests/velodrome_test.cpp - Velodrome baseline unit tests -----------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "ir/Builder.h"
#include "rt/Runtime.h"
#include "velodrome/Velodrome.h"

using namespace dc;
using namespace dc::velodrome;

namespace {

ir::Program scenarioProgram() {
  ir::ProgramBuilder B("velo");
  B.addPool("objs", 4, 2);
  ir::MethodId M1 = B.beginMethod("m1", true).work(1).endMethod();
  ir::MethodId M2 = B.beginMethod("m2", true).work(1).endMethod();
  (void)M1;
  (void)M2;
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  B.addThread(Main);
  B.addThread(Main);
  return B.build();
}

class VelodromeScenario : public ::testing::Test {
protected:
  VelodromeScenario() : P(scenarioProgram()) {}

  void start(VelodromeOptions Opts = VelodromeOptions()) {
    Velo = std::make_unique<VelodromeRuntime>(P, Opts, Violations, Stats);
    RT = std::make_unique<rt::Runtime>(P, Velo.get());
    Velo->beginRun(*RT);
    for (uint32_t T = 0; T < 2; ++T) {
      Tc[T].Tid = T;
      Tc[T].RT = RT.get();
      Tc[T].Checker = Velo.get();
      Velo->threadStarted(Tc[T]);
    }
  }

  void finish() {
    for (uint32_t T = 0; T < 2; ++T)
      Velo->threadExiting(Tc[T]);
    Velo->endRun(*RT);
  }

  void access(uint32_t Tid, rt::ObjectId Obj, uint32_t Field, bool IsWrite) {
    rt::AccessInfo Info;
    Info.Obj = Obj;
    Info.Addr = RT->heap().fieldAddr(Obj, Field);
    Info.IsWrite = IsWrite;
    Info.Flags = ir::IF_VelodromeBarrier;
    Velo->instrumentedAccess(Tc[Tid], Info, [] {});
  }

  void begin(uint32_t Tid, const char *M) {
    Velo->txBegin(Tc[Tid], P.Methods[P.findMethod(M)]);
  }
  void end(uint32_t Tid, const char *M) {
    Velo->txEnd(Tc[Tid], P.Methods[P.findMethod(M)]);
  }

  ir::Program P;
  StatisticRegistry Stats;
  analysis::ViolationLog Violations;
  std::unique_ptr<VelodromeRuntime> Velo;
  std::unique_ptr<rt::Runtime> RT;
  rt::ThreadContext Tc[2];
};

TEST_F(VelodromeScenario, DetectsInterleavedRmwCycle) {
  start();
  begin(0, "m1");
  begin(1, "m2");
  access(0, 0, 0, false); // T1 rd f.
  access(1, 0, 0, false); // T2 rd f.
  access(1, 0, 0, true);  // T2 wr f: edge m1 -> m2 (rd-wr).
  access(0, 0, 0, true);  // T1 wr f: edge m2 -> m1 => cycle.
  end(1, "m2");
  end(0, "m1");
  finish();
  EXPECT_GE(Violations.count(), 1u);
  EXPECT_GE(Stats.value("velodrome.cycles"), 1u);
}

TEST_F(VelodromeScenario, OneDirectionalDependenceIsClean) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  end(0, "m1");
  begin(1, "m2");
  access(1, 0, 0, false);
  end(1, "m2");
  finish();
  EXPECT_EQ(Violations.count(), 0u);
  EXPECT_GE(Stats.value("velodrome.cross_edges"), 1u);
}

TEST_F(VelodromeScenario, DifferentFieldsStayIndependent) {
  start();
  begin(0, "m1");
  begin(1, "m2");
  access(0, 0, 0, true);
  access(1, 0, 1, true); // Field granularity: no interaction.
  access(0, 0, 0, false);
  access(1, 0, 1, false);
  end(1, "m2");
  end(0, "m1");
  finish();
  EXPECT_EQ(Violations.count(), 0u);
  EXPECT_EQ(Stats.value("velodrome.cross_edges"), 0u);
}

TEST_F(VelodromeScenario, BlameIdentifiesEnclosingMethod) {
  start();
  begin(0, "m1");
  begin(1, "m2");
  access(0, 0, 0, false); // m1 reads first...
  access(1, 0, 0, true);  // m2's write lands inside m1.
  access(0, 0, 0, true);  // ...m1 writes: cycle completed by m1.
  end(1, "m2");
  end(0, "m1");
  finish();
  ASSERT_GE(Violations.count(), 1u);
  auto Blamed = Violations.blamedMethods();
  EXPECT_TRUE(Blamed.count(P.findMethod("m1")))
      << "the enclosing transaction (out-edge before in-edge) is blamed";
}

TEST_F(VelodromeScenario, RepeatedAccessSkipsMetadataUpdate) {
  start();
  begin(0, "m1");
  access(0, 0, 0, true);
  for (int I = 0; I < 10; ++I)
    access(0, 0, 0, true); // Already last writer: no metadata change.
  end(0, "m1");
  finish();
  EXPECT_EQ(Stats.value("velodrome.accesses"), 11u);
  EXPECT_EQ(Stats.value("velodrome.cross_edges"), 0u);
}

TEST_F(VelodromeScenario, UnsoundVariantCountsSkips) {
  VelodromeOptions Opts;
  Opts.UnsoundMetadataFastPath = true;
  start(Opts);
  begin(0, "m1");
  access(0, 0, 0, true);
  for (int I = 0; I < 5; ++I)
    access(0, 0, 0, true); // Racy pre-check passes: lock skipped.
  end(0, "m1");
  finish();
  EXPECT_GE(Stats.value("velodrome.unsound_fast_skips"), 5u);
}

TEST_F(VelodromeScenario, CollectorReclaimsOldTransactions) {
  VelodromeOptions Opts;
  Opts.CollectEveryTx = 4;
  start(Opts);
  for (int I = 0; I < 40; ++I) {
    begin(0, "m1");
    access(0, 1, 0, true);
    end(0, "m1");
  }
  finish();
  EXPECT_GT(Stats.value("velodrome.collector_runs"), 0u);
  EXPECT_GT(Stats.value("velodrome.txs_swept"), 10u);
}

TEST_F(VelodromeScenario, MetadataRootsSurviveCollection) {
  // The last writer of a field must never be swept while its metadata
  // reference can still source an edge: write once, churn transactions,
  // then read from the other thread — the edge must still appear.
  VelodromeOptions Opts;
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
  EXPECT_GE(Stats.value("velodrome.cross_edges"), 1u);
}

TEST_F(VelodromeScenario, SyncOpsTrackedAsAccesses) {
  start();
  begin(0, "m1");
  rt::AccessInfo Info;
  Info.Obj = 0;
  Info.Addr = RT->heap().syncAddr(0);
  Info.IsWrite = true; // Release-like.
  Info.IsSync = true;
  Info.Flags = ir::IF_VelodromeBarrier;
  Velo->syncOp(Tc[0], Info, rt::SyncKind::MonitorExit);
  end(0, "m1");
  begin(1, "m2");
  Info.IsWrite = false; // Acquire-like.
  Velo->syncOp(Tc[1], Info, rt::SyncKind::MonitorEnter);
  end(1, "m2");
  finish();
  EXPECT_GE(Stats.value("velodrome.cross_edges"), 1u)
      << "release-acquire must create a dependence edge";
}

} // namespace
