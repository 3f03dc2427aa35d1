//===- tests/rt_test.cpp - dc_rt unit tests -------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>

#include "ir/Builder.h"
#include "rt/Runtime.h"

using namespace dc;
using namespace dc::ir;
using namespace dc::rt;

namespace {

TEST(HeapTest, LayoutAndAddressing) {
  ProgramBuilder B("heap");
  PoolId PoolA = B.addPool("a", 2, 3); // Objects 0,1; fields+sync = 4 each.
  PoolId PoolB = B.addPool("b", 1, 1); // Object 2.
  MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  B.addThread(Main);
  Program P = B.build();
  Heap H(P, /*NumThreads=*/2);

  EXPECT_EQ(H.objectOf(PoolA, 0), 0u);
  EXPECT_EQ(H.objectOf(PoolA, 1), 1u);
  EXPECT_EQ(H.objectOf(PoolA, 5), 1u) << "index reduces modulo pool size";
  EXPECT_EQ(H.objectOf(PoolB, 0), 2u);

  EXPECT_EQ(H.fieldAddr(0, 0), 0u);
  EXPECT_EQ(H.fieldAddr(0, 2), 2u);
  EXPECT_EQ(H.fieldAddr(0, 3), 0u) << "field reduces modulo field count";
  EXPECT_EQ(H.syncAddr(0), 3u);
  EXPECT_EQ(H.fieldAddr(1, 0), 4u);
  EXPECT_EQ(H.syncAddr(2), 9u);

  // Thread objects come last, one sync slot each.
  EXPECT_EQ(H.threadObject(0), 3u);
  EXPECT_EQ(H.threadObject(1), 4u);
  EXPECT_EQ(H.numFieldAddrs(), 12u);

  EXPECT_EQ(H.objectOfField(5), 1u);
  EXPECT_EQ(H.objectOfField(8), 2u);

  H.store(5, 42);
  EXPECT_EQ(H.load(5), 42);
}

/// Counts every hook invocation.
class CountingChecker : public CheckerRuntime {
public:
  std::atomic<uint64_t> Accesses{0}, Reads{0}, Writes{0}, Syncs{0},
      TxBegins{0}, TxEnds{0}, Started{0}, Exited{0}, SafePoints{0},
      Blocks{0}, Unblocks{0};

  void threadStarted(ThreadContext &TC) override { ++Started; }
  void threadExiting(ThreadContext &TC) override { ++Exited; }
  void txBegin(ThreadContext &TC, const ir::Method &M) override {
    ++TxBegins;
  }
  void txEnd(ThreadContext &TC, const ir::Method &M) override { ++TxEnds; }
  void instrumentedAccess(ThreadContext &TC, const AccessInfo &Info,
                          function_ref<void()> Access) override {
    ++Accesses;
    (Info.IsWrite ? Writes : Reads)++;
    Access();
  }
  void syncOp(ThreadContext &TC, const AccessInfo &Info,
              SyncKind Kind) override {
    ++Syncs;
  }
  void safePoint(ThreadContext &TC) override { ++SafePoints; }
  void aboutToBlock(ThreadContext &TC) override { ++Blocks; }
  void unblocked(ThreadContext &TC) override { ++Unblocks; }
};

Program forkJoinProgram(uint32_t Loops) {
  ProgramBuilder B("fj");
  PoolId Pool = B.addPool("data", 4, 2);
  MethodId Work = B.beginMethod("work", true)
                      .read(Pool, idxThread(1, 0, 4), 0u)
                      .write(Pool, idxThread(1, 0, 4), 0u)
                      .endMethod();
  MethodId Worker = B.beginMethod("worker", false)
                        .beginLoop(idxConst(Loops))
                        .call(Work)
                        .endLoop()
                        .endMethod();
  MethodId Main = B.beginMethod("main", false)
                      .forkThread(idxConst(1))
                      .forkThread(idxConst(2))
                      .joinThread(idxConst(1))
                      .joinThread(idxConst(2))
                      .endMethod();
  B.addThread(Main);
  B.addThread(Worker);
  B.addThread(Worker);
  // Mark accesses instrumented and the methods transactional so hooks fire.
  Program P = B.build();
  for (Method &M : P.Methods)
    if (M.Name == "work") {
      M.StartsTransaction = true;
      for (Instr &I : M.Body)
        I.Flags = IF_OctetBarrier;
    }
  return P;
}

TEST(RuntimeTest, HooksFireWithExpectedCounts) {
  Program P = forkJoinProgram(10);
  CountingChecker Checker;
  Runtime RT(P, &Checker);
  RunResult R = RT.run();
  EXPECT_FALSE(R.Aborted);
  EXPECT_EQ(Checker.Started.load(), 3u);
  EXPECT_EQ(Checker.Exited.load(), 3u);
  EXPECT_EQ(Checker.TxBegins.load(), 20u);
  EXPECT_EQ(Checker.TxEnds.load(), 20u);
  EXPECT_EQ(Checker.Accesses.load(), 40u);
  EXPECT_EQ(Checker.Reads.load(), 20u);
  EXPECT_EQ(Checker.Writes.load(), 20u);
  // Sync events: 3x thread begin/end + 2 forks + 2 joins = 10.
  EXPECT_EQ(Checker.Syncs.load(), 10u);
  EXPECT_EQ(Checker.Blocks.load(), Checker.Unblocks.load());
  EXPECT_GT(Checker.SafePoints.load(), 0u);
}

TEST(RuntimeTest, DeterministicModeSameSeedSameInterleaving) {
  // The observable heap state of a racy program depends on the
  // interleaving; identical seeds must produce identical results.
  ProgramBuilder B("det");
  PoolId Pool = B.addPool("shared", 1, 1);
  MethodId Worker = B.beginMethod("worker", false)
                        .beginLoop(idxConst(50))
                        .read(Pool, idxConst(0), 0u)
                        .write(Pool, idxConst(0), 0u)
                        .endLoop()
                        .endMethod();
  MethodId Main = B.beginMethod("main", false)
                      .forkThread(idxConst(1))
                      .forkThread(idxConst(2))
                      .joinThread(idxConst(1))
                      .joinThread(idxConst(2))
                      .read(Pool, idxConst(0), 0u)
                      .endMethod();
  B.addThread(Main);
  B.addThread(Worker);
  B.addThread(Worker);
  Program P = B.build();

  auto FinalValue = [&](uint64_t Seed) {
    RunOptions Opts;
    Opts.Deterministic = true;
    Opts.ScheduleSeed = Seed;
    Runtime RT(P, nullptr, Opts);
    RT.run();
    return RT.heap().load(0);
  };
  EXPECT_EQ(FinalValue(5), FinalValue(5));
  EXPECT_EQ(FinalValue(9), FinalValue(9));
}

TEST(RuntimeTest, ExplicitScheduleIsHonored) {
  // Threads 1 and 2 each write their tid-derived value once; with an
  // explicit schedule running thread 2 last, its value must win.
  ProgramBuilder B("sched");
  PoolId Pool = B.addPool("cell", 1, 1);
  PoolId Seeds = B.addPool("seeds", 3, 1);
  // Each writer loads a thread-distinct seed value into its accumulator
  // and stores it to the shared cell, so the final value reveals order.
  MethodId Writer = B.beginMethod("writer", false)
                        .read(Seeds, idxThread(), 0u)
                        .write(Pool, idxConst(0), 0u)
                        .endMethod();
  MethodId Main = B.beginMethod("main", false)
                      .write(Seeds, idxConst(1), 0u) // = 1
                      .read(Seeds, idxConst(1), 0u)  // acc = 1
                      .write(Seeds, idxConst(2), 0u) // = 2
                      .forkThread(idxConst(1))
                      .forkThread(idxConst(2))
                      .joinThread(idxConst(1))
                      .joinThread(idxConst(2))
                      .endMethod();
  B.addThread(Main);
  B.addThread(Writer);
  B.addThread(Writer);
  Program P = B.build();

  auto Run = [&](std::vector<uint32_t> Schedule) {
    RunOptions Opts;
    Opts.Deterministic = true;
    Opts.ExplicitSchedule = std::move(Schedule);
    Opts.ScheduleSeed = 0;
    Runtime RT(P, nullptr, Opts);
    RT.run();
    return RT.heap().load(0);
  };
  // Run main past the forks, then t1 fully, then t2 fully; and the mirror
  // image. The last writer's seed-derived value wins.
  int64_t V12 =
      Run({0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0});
  int64_t V21 =
      Run({0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0});
  EXPECT_NE(V12, V21);
}

TEST(RuntimeTest, MonitorsAreReentrantAndExclusive) {
  ProgramBuilder B("mon");
  PoolId Lock = B.addPool("lock", 1, 1);
  PoolId Data = B.addPool("data", 1, 1);
  MethodId Worker = B.beginMethod("worker", false)
                        .beginLoop(idxConst(200))
                        .acquire(Lock, idxConst(0))
                        .acquire(Lock, idxConst(0)) // Reentrant.
                        .read(Data, idxConst(0), 0u)
                        .write(Data, idxConst(0), 0u)
                        .release(Lock, idxConst(0))
                        .release(Lock, idxConst(0))
                        .endLoop()
                        .endMethod();
  MethodId Main = B.beginMethod("main", false)
                      .forkThread(idxConst(1))
                      .forkThread(idxConst(2))
                      .joinThread(idxConst(1))
                      .joinThread(idxConst(2))
                      .endMethod();
  B.addThread(Main);
  B.addThread(Worker);
  B.addThread(Worker);
  Program P = B.build();
  Runtime RT(P, nullptr);
  RunResult R = RT.run();
  EXPECT_FALSE(R.Aborted);
}

TEST(RuntimeTest, WaitNotifyHandshake) {
  // Thread 1 waits; main notifies after forking. Must terminate.
  ProgramBuilder B("wn");
  PoolId Cond = B.addPool("cond", 1, 1);
  MethodId Waiter = B.beginMethod("waiter", false)
                        .acquire(Cond, idxConst(0))
                        .wait(Cond, idxConst(0))
                        .release(Cond, idxConst(0))
                        .endMethod();
  MethodId Main = B.beginMethod("main", false)
                      .forkThread(idxConst(1))
                      .work(2000) // Give the waiter time to park (free mode).
                      .acquire(Cond, idxConst(0))
                      .notifyAll(Cond, idxConst(0))
                      .release(Cond, idxConst(0))
                      .joinThread(idxConst(1))
                      .endMethod();
  B.addThread(Main);
  B.addThread(Waiter);
  Program P = B.build();

  {
    Runtime RT(P, nullptr);
    EXPECT_FALSE(RT.run().Aborted);
  }
  {
    RunOptions Opts;
    Opts.Deterministic = true;
    Opts.ScheduleSeed = 3;
    Runtime RT(P, nullptr, Opts);
    EXPECT_FALSE(RT.run().Aborted);
  }
}

TEST(RuntimeTest, DeadlockAbortsViaStepBudget) {
  // Classic lock-order deadlock; the step budget must fire (threads
  // busy-retry under the deterministic scheduler, consuming steps).
  ProgramBuilder B("dead");
  PoolId Locks = B.addPool("locks", 2, 1);
  MethodId W1 = B.beginMethod("w1", false)
                    .acquire(Locks, idxConst(0))
                    .work(50)
                    .acquire(Locks, idxConst(1))
                    .release(Locks, idxConst(1))
                    .release(Locks, idxConst(0))
                    .endMethod();
  MethodId W2 = B.beginMethod("w2", false)
                    .acquire(Locks, idxConst(1))
                    .work(50)
                    .acquire(Locks, idxConst(0))
                    .release(Locks, idxConst(0))
                    .release(Locks, idxConst(1))
                    .endMethod();
  MethodId Main = B.beginMethod("main", false)
                      .forkThread(idxConst(1))
                      .forkThread(idxConst(2))
                      .joinThread(idxConst(1))
                      .joinThread(idxConst(2))
                      .endMethod();
  B.addThread(Main);
  B.addThread(W1);
  B.addThread(W2);
  Program P = B.build();

  RunOptions Opts;
  Opts.Deterministic = true;
  // Schedule engineered to interleave the two acquires: each thread gets a
  // couple of steps, enough to take its first lock.
  Opts.ExplicitSchedule = {0, 0, 0, 1, 1, 2, 2};
  Opts.ScheduleSeed = 1;
  Opts.MaxSteps = 20000;
  Runtime RT(P, nullptr, Opts);
  RunResult R = RT.run();
  EXPECT_TRUE(R.Aborted) << "deadlock must trip the step budget";
}

TEST(RuntimeTest, AbortDuringReplayIsNotReportedAsDivergence) {
  // A replay aborted part-way (here by the step budget; in the field by a
  // gate-stall watchdog) stops short of its recorded schedule. The unused
  // tail must not read as "the recorded schedule did not replay": that
  // verdict is reserved for executions the recording fails to describe.
  Program P = forkJoinProgram(2000);
  std::vector<uint32_t> Recorded;
  RunOptions Opts;
  Opts.Deterministic = true;
  Opts.ScheduleSeed = 1;
  Opts.ScheduleOut = &Recorded;
  {
    Runtime RT(P, nullptr, Opts);
    ASSERT_FALSE(RT.run().Aborted);
  }
  Opts.ScheduleOut = nullptr;
  Opts.ExplicitSchedule = Recorded;
  Opts.OnScheduleExhausted = ScheduleExhaustPolicy::HardError;
  {
    // The full replay is faithful...
    Runtime RT(P, nullptr, Opts);
    RunResult R = RT.run();
    EXPECT_FALSE(R.Aborted);
    EXPECT_FALSE(R.ScheduleDiverged);
  }
  // ...and cutting it short is an abort, not a divergence.
  Opts.MaxSteps = 4096;
  ASSERT_GT(Recorded.size(), 2 * Opts.MaxSteps);
  Runtime RT(P, nullptr, Opts);
  RunResult R = RT.run();
  EXPECT_TRUE(R.Aborted);
  EXPECT_FALSE(R.ScheduleDiverged);
}

TEST(RuntimeTest, StepsAreCounted) {
  Program P = forkJoinProgram(5);
  Runtime RT(P, nullptr);
  RunResult R = RT.run();
  EXPECT_GT(R.Steps, 30u);
  EXPECT_GT(R.WallSeconds, 0.0);
}

TEST(RuntimeTest, AccumulatorCarriesLoadedValues) {
  // main writes 123 to a cell... accumulator semantics: write stores
  // Accumulator+1; read XORs the loaded value in. Verify a write-then-read
  // round trip changes the accumulator-derived stored value.
  ProgramBuilder B("acc");
  PoolId Pool = B.addPool("p", 1, 2);
  MethodId Main = B.beginMethod("main", false)
                      .write(Pool, idxConst(0), 0u) // stores acc+1 = 1
                      .read(Pool, idxConst(0), 0u)  // acc ^= 1
                      .write(Pool, idxConst(0), 1u) // stores acc+1
                      .endMethod();
  B.addThread(Main);
  Program P = B.build();
  Runtime RT(P, nullptr);
  RT.run();
  EXPECT_EQ(RT.heap().load(0), 1);
  EXPECT_EQ(RT.heap().load(1), 2); // (0 ^ 1) + 1.
}

} // namespace
