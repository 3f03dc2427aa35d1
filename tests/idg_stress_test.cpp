//===- tests/idg_stress_test.cpp - Concurrent IDG mutation stress ---------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the sharded IDG hot path with real concurrent threads: many
/// threads begin/end transactions, hammer shared objects (cross-thread
/// edges via both Octet protocols), trigger background collection, and
/// replay claimed SCCs inline — all simultaneously. Checks liveness,
/// pipeline accounting (every detected SCC is replayed), and — on replayed
/// schedules — that the sharded path is deterministic and agrees with the
/// ground-truth oracle.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "analysis/DoubleChecker.h"
#include "core/Checker.h"
#include "ir/Builder.h"
#include "support/Oracle.h"
#include "rt/Runtime.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

using namespace dc;
using namespace dc::analysis;

namespace {

ir::Program hammerProgram(uint32_t Threads, uint32_t Objects) {
  ir::ProgramBuilder B("idg_stress");
  B.addPool("objs", Objects, 2);
  B.beginMethod("m0", true).work(1).endMethod();
  B.beginMethod("m1", true).work(1).endMethod();
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  for (uint32_t T = 0; T < Threads; ++T)
    B.addThread(Main);
  return B.build();
}

/// Many real threads: transactions + shared-object conflicts + collection
/// + inline PCD replays racing the background collector, all concurrent.
/// The interesting assertions are "finishes at all" (no deadlock among
/// stripes / collector / replay pins) and the SCC accounting; violation
/// content is schedule-dependent here.
TEST(IdgStressTest, ConcurrentTransactionsEdgesCollectionAndInlinePcd) {
  constexpr uint32_t Threads = 4;
  constexpr uint32_t SharedObjects = 8;
  constexpr uint64_t OpsPerThread = 8000;

  ir::Program P = hammerProgram(Threads, SharedObjects + Threads);
  StatisticRegistry Stats;
  ViolationLog Violations;
  DoubleCheckerOptions Opts;
  Opts.CollectEveryTx = 64; // Hammer the background collector.
  auto DC = std::make_unique<DoubleCheckerRuntime>(P, Opts, Violations,
                                                   Stats);
  rt::Runtime RT(P, DC.get());
  DC->beginRun(RT);

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
      SplitMix64 Rng(T * 9176 + 5);
      bool InTx = false;
      for (uint64_t Op = 0; Op < OpsPerThread; ++Op) {
        if (Op % 16 == 0) {
          if (InTx)
            DC->txEnd(TC, T % 2 ? M1 : M0);
          DC->txBegin(TC, T % 2 ? M1 : M0);
          InTx = true;
        }
        // 30% shared traffic drives cross-thread edges; the rest stays on
        // a thread-private object (the paper's common case).
        rt::ObjectId Obj =
            Rng.chancePercent(30)
                ? static_cast<rt::ObjectId>(Rng.nextBelow(SharedObjects))
                : static_cast<rt::ObjectId>(SharedObjects + T);
        rt::AccessInfo Info;
        Info.Obj = Obj;
        Info.Addr = RT.heap().fieldAddr(Obj, Rng.nextBelow(2));
        Info.IsWrite = Rng.chancePercent(40);
        Info.Flags = ir::IF_OctetBarrier | ir::IF_LogAccess;
        DC->instrumentedAccess(TC, Info, [] {});
        DC->safePoint(TC);
        if (Rng.chancePercent(1)) {
          // Blocking episodes exercise the implicit protocol (edges added
          // by the requester on a held responder's behalf).
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

  // The workload must actually have exercised the concurrent machinery.
  EXPECT_GT(Stats.value("icd.idg_cross_edges"), 0u);
  EXPECT_GT(Stats.value("icd.regular_transactions"), Threads * 100u);
  EXPECT_GT(Stats.value("icd.collector_runs"), 0u);
  EXPECT_GT(Stats.value("icd.txs_swept"), 0u);

  // SCC accounting: the claiming thread replays every detected SCC
  // before it retires (or counts it as skipped for size — impossible at
  // this scale, but keep the identity).
  EXPECT_EQ(Stats.value("pcd.sccs_processed") + Stats.value("pcd.sccs_skipped"),
            Stats.value("icd.sccs"));
}

/// The sharded path on replayed schedules: the same schedule must yield the
/// same IDG, the same SCCs, and the same precise violations, and the
/// verdict must match the ground-truth oracle's offline decision on the
/// recorded trace.
TEST(IdgStressTest, ShardedPathIsDeterministicAndMatchesOracle) {
  struct Case {
    const char *Workload;
    double Scale;
    uint64_t Seed;
  };
  const Case Cases[] = {{"xalan6", 0.2, 1}, {"hsqldb6", 0.2, 7}};

  bool AnyViolating = false;
  for (const Case &C : Cases) {
    ir::Program P = workloads::build(C.Workload, C.Scale);
    core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
    rt::RunOptions RO;
    RO.Deterministic = true;
    RO.ScheduleSeed = C.Seed;
    oracle::RecordedTrace Trace = oracle::recordTrace(P, Spec, RO);
    ASSERT_FALSE(Trace.Result.Aborted) << C.Workload;
    oracle::OracleVerdict Truth = oracle::decideSerializability(P, Trace);

    auto Run = [&] {
      core::RunConfig Cfg;
      Cfg.M = core::Mode::SingleRun;
      Cfg.RunOpts.Deterministic = true;
      Cfg.RunOpts.ExplicitSchedule = Trace.Schedule;
      Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
      core::RunOutcome O = core::runChecker(P, Spec, Cfg);
      EXPECT_FALSE(O.Result.ScheduleDiverged) << C.Workload;
      return O;
    };

    core::RunOutcome First = Run();
    core::RunOutcome Second = Run();

    EXPECT_EQ(First.stat("icd.idg_cross_edges"),
              Second.stat("icd.idg_cross_edges"))
        << C.Workload;
    EXPECT_EQ(First.stat("icd.sccs"), Second.stat("icd.sccs"))
        << C.Workload;
    EXPECT_EQ(First.Violations.size(), Second.Violations.size())
        << C.Workload;
    EXPECT_EQ(First.BlamedMethods, Second.BlamedMethods) << C.Workload;

    EXPECT_EQ(First.Violations.empty(), Truth.Serializable) << C.Workload;
    if (!Truth.Serializable) {
      // The whole pipeline (cross edges, SCC claims, PCD) ran.
      AnyViolating = true;
      EXPECT_GT(First.stat("icd.sccs"), 0u) << C.Workload;
    }
    for (const std::string &M : First.BlamedMethods)
      EXPECT_TRUE(Truth.CycleMethods.count(M))
          << C.Workload << ": blamed '" << M
          << "' outside the oracle's dependence cycles";
  }
  EXPECT_TRUE(AnyViolating) << "no case exercised a violating schedule";
}

} // namespace
