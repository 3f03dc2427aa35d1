//===- tests/schedule_fuzz_test.cpp - Scheduler + oracle + fuzzer tests ---===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the schedule-exploration harness end to end: the ground-truth
// oracle against hand-built programs, PCT determinism and diversity,
// bounded-exhaustive termination and coverage, explicit-schedule exhaustion
// policies, the config-matrix differential fuzzer (clean sweep and
// injected-bug catch + minimize + witness replay), and the three-thread
// RdSh-upgrade regression under PCT.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/Checker.h"
#include "ir/Builder.h"
#include "rt/Scheduler.h"
#include "tests/oracle.h"
#include "tools/FuzzLib.h"

using namespace dc;

namespace {

/// Two workers call `update` (read x, work, write x): the classic lost
/// update. Interleavings both expose and avoid the cycle; \p Locked wraps
/// the body in a lock, making every interleaving serializable.
ir::Program lostUpdate(bool Locked) {
  ir::ProgramBuilder B(Locked ? "lu_locked" : "lu");
  ir::PoolId Shared = B.addPool("shared", 1, 1);
  ir::PoolId Lock = B.addPool("lock", 1, 1);
  auto &M = B.beginMethod("update", /*Atomic=*/true);
  if (Locked)
    M.acquire(Lock, ir::idxConst(0));
  M.read(Shared, ir::idxConst(0), 0u).work(2).write(Shared, ir::idxConst(0),
                                                    0u);
  if (Locked)
    M.release(Lock, ir::idxConst(0));
  ir::MethodId Update = M.endMethod();
  ir::MethodId W0 =
      B.beginMethod("w0", false).call(Update).endMethod();
  ir::MethodId W1 =
      B.beginMethod("w1", false).call(Update).endMethod();
  ir::MethodId Main = B.beginMethod("main", false)
                          .forkThread(ir::idxConst(1))
                          .forkThread(ir::idxConst(2))
                          .joinThread(ir::idxConst(1))
                          .joinThread(ir::idxConst(2))
                          .endMethod();
  B.addThread(Main);
  B.addThread(W0);
  B.addThread(W1);
  return B.build();
}

rt::RunOptions detOpts(uint64_t Seed) {
  rt::RunOptions RO;
  RO.Deterministic = true;
  RO.ScheduleSeed = Seed;
  RO.MaxSteps = 1ull << 20;
  return RO;
}

} // namespace

//===----------------------------------------------------------------------===//
// Oracle vs the checkers on hand-built programs
//===----------------------------------------------------------------------===//

TEST(OracleTest, RacyLostUpdateBothVerdictsAndNoDivergence) {
  ir::Program P = lostUpdate(/*Locked=*/false);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  bool SawViolation = false, SawSerializable = false;
  rt::ExhaustiveExplorer Ex;
  while (Ex.beginRun()) {
    rt::RunOptions RO = detOpts(0);
    rt::ExhaustiveExplorer *Sched = &Ex;
    RO.CustomScheduler = Sched;
    oracle::RecordedTrace T = oracle::recordTrace(P, Spec, RO);
    Ex.endRun();
    ASSERT_FALSE(T.Result.Aborted);
    fuzz::PairResult R = fuzz::checkPair(P, T, /*InjectIcdBug=*/false);
    EXPECT_FALSE(R.Divergence) << *R.Divergence;
    (R.OracleViolation ? SawViolation : SawSerializable) = true;
  }
  EXPECT_TRUE(Ex.exhausted());
  // Preemption bound 2 is enough to both hit and miss the lost update.
  EXPECT_TRUE(SawViolation);
  EXPECT_TRUE(SawSerializable);
}

TEST(OracleTest, LockedProgramAlwaysSerializable) {
  ir::Program P = lostUpdate(/*Locked=*/true);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  rt::ExhaustiveExplorer Ex;
  uint64_t Runs = 0;
  while (Ex.beginRun()) {
    rt::RunOptions RO = detOpts(0);
    RO.CustomScheduler = &Ex;
    oracle::RecordedTrace T = oracle::recordTrace(P, Spec, RO);
    Ex.endRun();
    ASSERT_FALSE(T.Result.Aborted);
    fuzz::PairResult R = fuzz::checkPair(P, T, /*InjectIcdBug=*/false);
    EXPECT_FALSE(R.Divergence) << *R.Divergence;
    EXPECT_FALSE(R.OracleViolation);
    ++Runs;
  }
  EXPECT_TRUE(Ex.exhausted());
  EXPECT_GE(Runs, 2u);
}

//===----------------------------------------------------------------------===//
// PCT: deterministic per seed, diverse across seeds
//===----------------------------------------------------------------------===//

TEST(PctTest, SameSeedSameSchedule) {
  ir::Program P = lostUpdate(false);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  rt::RunOptions RO = detOpts(7);
  RO.Strategy = rt::ScheduleStrategy::Pct;
  RO.PctChangePoints = 3;
  RO.PctExpectedSteps = 64;
  oracle::RecordedTrace A = oracle::recordTrace(P, Spec, RO);
  oracle::RecordedTrace B = oracle::recordTrace(P, Spec, RO);
  ASSERT_FALSE(A.Result.Aborted);
  EXPECT_EQ(A.Schedule, B.Schedule);
}

TEST(PctTest, SeedsProduceDiverseSchedules) {
  ir::Program P = lostUpdate(false);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  std::set<std::vector<uint32_t>> Distinct;
  for (uint64_t S = 0; S < 8; ++S) {
    rt::RunOptions RO = detOpts(S);
    RO.Strategy = rt::ScheduleStrategy::Pct;
    RO.PctChangePoints = 3;
    RO.PctExpectedSteps = 64;
    Distinct.insert(oracle::recordTrace(P, Spec, RO).Schedule);
  }
  EXPECT_GE(Distinct.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Bounded-exhaustive explorer: terminates, covers, unique schedules
//===----------------------------------------------------------------------===//

TEST(ExhaustiveTest, TerminatesWithUniqueSchedules) {
  ir::Program P = lostUpdate(false);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  rt::ExhaustiveExplorer::Options Opts;
  Opts.PreemptionBound = 2;
  Opts.MaxRuns = 10000;
  rt::ExhaustiveExplorer Ex(Opts);
  std::set<std::vector<uint32_t>> Distinct;
  while (Ex.beginRun()) {
    rt::RunOptions RO = detOpts(0);
    RO.CustomScheduler = &Ex;
    oracle::recordTrace(P, Spec, RO);
    Ex.endRun();
    EXPECT_FALSE(Ex.diverged());
    Distinct.insert(Ex.lastSchedule());
  }
  EXPECT_TRUE(Ex.exhausted());
  EXPECT_LT(Ex.runsCompleted(), Opts.MaxRuns) << "hit the safety valve";
  // Every DFS run forces a fresh alternative: schedules never repeat.
  EXPECT_EQ(Distinct.size(), Ex.runsCompleted());
  EXPECT_GE(Distinct.size(), 3u);
}

//===----------------------------------------------------------------------===//
// Explicit-schedule exhaustion: documented fallback vs hard error
//===----------------------------------------------------------------------===//

TEST(ScheduleExhaustionTest, FallbackCompletesTheRun) {
  ir::Program P = lostUpdate(false);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  oracle::RecordedTrace Full = oracle::recordTrace(P, Spec, detOpts(5));
  ASSERT_FALSE(Full.Result.Aborted);
  ASSERT_GT(Full.Schedule.size(), 4u);

  std::vector<uint32_t> Prefix(Full.Schedule.begin(),
                               Full.Schedule.begin() +
                                   Full.Schedule.size() / 2);
  core::RunConfig Cfg;
  Cfg.M = core::Mode::SingleRun;
  Cfg.RunOpts = detOpts(99);
  Cfg.RunOpts.ExplicitSchedule = Prefix;
  ASSERT_EQ(Cfg.RunOpts.OnScheduleExhausted,
            rt::ScheduleExhaustPolicy::Fallback)
      << "fallback must stay the default for existing replay users";
  core::RunOutcome O = core::runChecker(P, Spec, Cfg);
  EXPECT_FALSE(O.Result.Aborted);
  EXPECT_FALSE(O.Result.ScheduleDiverged);
}

TEST(ScheduleExhaustionTest, HardErrorFlagsShortSchedule) {
  ir::Program P = lostUpdate(false);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  oracle::RecordedTrace Full = oracle::recordTrace(P, Spec, detOpts(5));
  std::vector<uint32_t> Prefix(Full.Schedule.begin(),
                               Full.Schedule.begin() +
                                   Full.Schedule.size() / 2);
  core::RunConfig Cfg;
  Cfg.M = core::Mode::SingleRun;
  Cfg.RunOpts = detOpts(99);
  Cfg.RunOpts.ExplicitSchedule = Prefix;
  Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
  core::RunOutcome O = core::runChecker(P, Spec, Cfg);
  EXPECT_TRUE(O.Result.ScheduleDiverged);
}

TEST(ScheduleExhaustionTest, HardErrorAcceptsCompleteSchedule) {
  ir::Program P = lostUpdate(false);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  oracle::RecordedTrace Full = oracle::recordTrace(P, Spec, detOpts(5));
  core::RunConfig Cfg;
  Cfg.M = core::Mode::SingleRun;
  Cfg.RunOpts = detOpts(0);
  Cfg.RunOpts.ExplicitSchedule = Full.Schedule;
  Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
  core::RunOutcome O = core::runChecker(P, Spec, Cfg);
  EXPECT_FALSE(O.Result.ScheduleDiverged);
  EXPECT_FALSE(O.Result.Aborted);
}

TEST(ScheduleExhaustionTest, ScheduleFileRoundTrip) {
  std::vector<uint32_t> S = {0, 1, 1, 2, 0, 33, 2, 1};
  std::string Path = ::testing::TempDir() + "roundtrip.sched";
  ASSERT_TRUE(rt::writeScheduleFile(Path, S));
  std::vector<uint32_t> Back;
  ASSERT_TRUE(rt::readScheduleFile(Path, Back));
  EXPECT_EQ(S, Back);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The differential fuzzer
//===----------------------------------------------------------------------===//

TEST(FuzzTest, CleanSweepOnFixedSeeds) {
  fuzz::FuzzOptions O;
  O.Seed = 1;
  O.MaxPairs = 200;
  O.Strat = fuzz::FuzzOptions::Strategy::Mixed;
  fuzz::FuzzReport R = fuzz::runFuzz(O);
  ASSERT_FALSE(R.Div) << R.Div->Description;
  EXPECT_GE(R.Pairs, 200u);
  EXPECT_GT(R.ExhaustivePairs, 0u);
  EXPECT_GT(R.PctPairs, 0u);
  EXPECT_GT(R.RandomPairs, 0u);
  // Schedule quality: the sweep must actually reach non-serializable
  // interleavings, not just confirm the no-op case.
  EXPECT_GT(R.OracleViolations, 0u);
}

TEST(FuzzTest, InjectedIcdBugIsCaughtMinimizedAndReplayable) {
  fuzz::FuzzOptions O;
  O.Seed = 1;
  O.MaxPairs = 5000;
  O.InjectIcdBug = true;
  O.Minimize = true;
  fuzz::FuzzReport R = fuzz::runFuzz(O);
  ASSERT_TRUE(R.Div) << "unsound ICD filter survived " << R.Pairs
                     << " pairs";
  // Acceptance bar: the delta-debugged witness is tiny.
  EXPECT_LE(R.Div->DataAccesses, 6u);
  EXPECT_GE(R.Div->Spec.Workers.size(), 2u);

  std::string Path = ::testing::TempDir() + "witness.dcw";
  ASSERT_TRUE(fuzz::writeWitness(Path, *R.Div, /*InjectIcdBug=*/true));
  fuzz::Witness W;
  std::string Error;
  ASSERT_TRUE(fuzz::readWitness(Path, W, Error)) << Error;
  EXPECT_TRUE(W.InjectIcdBug);
  EXPECT_EQ(W.Schedule, R.Div->Schedule);

  // The witness reproduces with the bug...
  std::optional<std::string> Div = fuzz::replayWitness(W);
  EXPECT_TRUE(Div.has_value());
  // ...and vanishes without it: the divergence really is the injected
  // filter, not an environment artifact.
  W.InjectIcdBug = false;
  EXPECT_FALSE(fuzz::replayWitness(W).has_value());
  std::remove(Path.c_str());
}

/// The per-pair wall timeout (dcfuzz --pair-timeout-seconds): a pair
/// wedged past it is written as a replayable witness and dcfuzz exits
/// fuzz::ExitPairTimeout. The wedge is an existing fault plan — the first
/// retirement-window flush stalls (a one-transaction window makes the tiny
/// program cross a boundary), and the stall timeout (5 s) is far above the
/// pair timeout (1 s), so the replay is still waiting for the watchdog
/// when the pair timeout expires. Under the default pair timeout the same
/// witness completes and degrades soundly.
TEST(FuzzTest, PairTimeoutWritesWitnessAndExitsThree) {
  fuzz::Witness Seed;
  std::string Error;
  ASSERT_TRUE(fuzz::readWitness(std::string(DC_CORPUS_DIR) +
                                    "/violating_pair.witness",
                                Seed, Error))
      << Error;
  fuzz::Divergence Wedge;
  Wedge.Description = "window flush stall above the pair timeout";
  Wedge.Schedule = Seed.Schedule;
  Wedge.Program = Seed.P;
  Wedge.Fault.Plan.WindowStallAt = 1;
  Wedge.Fault.WindowTxs = 1;
  Wedge.Fault.StallTimeoutMs = 5000;
  const std::string In = ::testing::TempDir() + "/pair_timeout_in.dcw";
  const std::string Out = ::testing::TempDir() + "/pair_timeout_out.dcw";
  ASSERT_TRUE(fuzz::writeWitness(In, Wedge, /*InjectIcdBug=*/false));
  std::remove(Out.c_str());

  auto RunDcfuzz = [](const std::string &Args) {
    const std::string Cmd =
        std::string(DC_DCFUZZ_BIN) + " " + Args + " >/dev/null 2>&1";
    const int Rc = std::system(Cmd.c_str());
    return WIFEXITED(Rc) ? WEXITSTATUS(Rc) : -1;
  };
  EXPECT_EQ(RunDcfuzz("--replay " + In + " --pair-timeout-seconds 1 " +
                      "--witness-out " + Out),
            fuzz::ExitPairTimeout);

  // The dump is the wedged pair itself: same schedule, same fault case.
  fuzz::Witness Dumped;
  ASSERT_TRUE(fuzz::readWitness(Out, Dumped, Error)) << Error;
  EXPECT_EQ(Dumped.Schedule, Seed.Schedule);
  EXPECT_TRUE(Dumped.Fault.Plan == Wedge.Fault.Plan);
  EXPECT_EQ(Dumped.Fault.WindowTxs, 1u);
  EXPECT_EQ(Dumped.Fault.StallTimeoutMs, 5000u);
  std::ifstream DumpText(Out);
  std::string FirstLines, Line;
  for (int L = 0; L < 3 && std::getline(DumpText, Line); ++L)
    FirstLines += Line + "\n";
  EXPECT_NE(FirstLines.find("pair timeout"), std::string::npos) << FirstLines;

  // Not wedged, only slow: under the default pair timeout the replay
  // waits out the stall, degrades soundly, and the witness does not
  // reproduce a divergence.
  EXPECT_EQ(RunDcfuzz("--replay " + In), 0);
}

//===----------------------------------------------------------------------===//
// Regression: three-thread cycle across a RdSh upgrade under PCT
//===----------------------------------------------------------------------===//

TEST(RdShRegressionTest, CycleAcrossReadSharedUpgradeUnderPct) {
  // Three workers: two pure readers push x's Octet state to RdSh, a
  // reader-writer closes a cycle with the double-read method when its
  // write lands between the two reads. The write must conflict against a
  // read-SHARED state, exercising the stripe-0 RdSh path.
  ir::ProgramBuilder B("rdsh3");
  ir::PoolId Shared = B.addPool("shared", 1, 1);
  ir::MethodId Mrr = B.beginMethod("m_rr", true)
                         .read(Shared, ir::idxConst(0), 0u)
                         .work(3)
                         .read(Shared, ir::idxConst(0), 0u)
                         .endMethod();
  ir::MethodId Mr = B.beginMethod("m_r", true)
                        .read(Shared, ir::idxConst(0), 0u)
                        .endMethod();
  ir::MethodId Mrw = B.beginMethod("m_rw", true)
                         .read(Shared, ir::idxConst(0), 0u)
                         .write(Shared, ir::idxConst(0), 0u)
                         .endMethod();
  ir::MethodId W0 = B.beginMethod("w0", false).call(Mrr).endMethod();
  ir::MethodId W1 = B.beginMethod("w1", false).call(Mr).endMethod();
  ir::MethodId W2 = B.beginMethod("w2", false).call(Mrw).endMethod();
  ir::MethodId Main = B.beginMethod("main", false)
                          .forkThread(ir::idxConst(1))
                          .forkThread(ir::idxConst(2))
                          .forkThread(ir::idxConst(3))
                          .joinThread(ir::idxConst(1))
                          .joinThread(ir::idxConst(2))
                          .joinThread(ir::idxConst(3))
                          .endMethod();
  B.addThread(Main);
  B.addThread(W0);
  B.addThread(W1);
  B.addThread(W2);
  ir::Program P = B.build();
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);

  bool Found = false;
  for (uint64_t Seed = 0; Seed < 300 && !Found; ++Seed) {
    rt::RunOptions RO = detOpts(Seed);
    RO.Strategy = rt::ScheduleStrategy::Pct;
    RO.PctChangePoints = 3;
    // Sample change points over the actual run length (~90 admissions).
    RO.PctExpectedSteps = 96;
    oracle::RecordedTrace T = oracle::recordTrace(P, Spec, RO);
    if (T.Result.Aborted)
      continue;
    oracle::OracleVerdict V = oracle::decideSerializability(P, T);
    if (V.Serializable)
      continue;

    // Replay the violating schedule: the run must blame something and
    // have performed at least one WrEx/RdEx -> RdSh upgrade, and the whole
    // config matrix must agree with the oracle on it.
    core::RunConfig Cfg;
    Cfg.M = core::Mode::SingleRun;
    Cfg.RunOpts = detOpts(0);
    Cfg.RunOpts.ExplicitSchedule = T.Schedule;
    Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
    core::RunOutcome Sharded = core::runChecker(P, Spec, Cfg);
    ASSERT_FALSE(Sharded.Result.ScheduleDiverged);
    if (Sharded.stat("octet.upgrade_rdsh") == 0)
      continue; // Cycle without the RdSh state; keep searching.
    EXPECT_FALSE(Sharded.BlamedMethods.empty());

    fuzz::PairResult PR = fuzz::checkPair(P, T, false);
    EXPECT_FALSE(PR.Divergence) << *PR.Divergence;
    Found = true;
  }
  EXPECT_TRUE(Found)
      << "no PCT seed produced a cycle spanning a RdSh upgrade";
}
