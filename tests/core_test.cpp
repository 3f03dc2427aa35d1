//===- tests/core_test.cpp - Core façade and refinement tests -------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/Checker.h"
#include "core/Refinement.h"
#include "tests/TestPrograms.h"

using namespace dc;
using namespace dc::core;

namespace {

TEST(AtomicitySpecTest, InitialExcludesEntriesAndInterruptingMethods) {
  using namespace ir;
  ProgramBuilder B("spec");
  PoolId Pool = B.addPool("p", 1, 1);
  MethodId Quiet = B.beginMethod("quiet", true)
                       .read(Pool, idxConst(0), 0u)
                       .endMethod();
  MethodId Waity = B.beginMethod("waity", true)
                       .acquire(Pool, idxConst(0))
                       .wait(Pool, idxConst(0))
                       .release(Pool, idxConst(0))
                       .endMethod();
  MethodId Notifier = B.beginMethod("notifier", true)
                          .acquire(Pool, idxConst(0))
                          .beginLoop(idxConst(2))
                          .notifyOne(Pool, idxConst(0))
                          .endLoop()
                          .release(Pool, idxConst(0))
                          .endMethod();
  (void)Quiet;
  (void)Waity;
  (void)Notifier;
  MethodId Worker = B.beginMethod("run", false).work(1).endMethod();
  MethodId Main = B.beginMethod("main", false)
                      .forkThread(idxConst(1))
                      .joinThread(idxConst(1))
                      .endMethod();
  B.addThread(Main);
  B.addThread(Worker);
  Program P = B.build();

  AtomicitySpec Spec = AtomicitySpec::initial(P);
  EXPECT_FALSE(Spec.isAtomic("main")) << "thread entry + fork/join";
  EXPECT_FALSE(Spec.isAtomic("run")) << "thread entry";
  EXPECT_FALSE(Spec.isAtomic("waity")) << "contains wait";
  EXPECT_FALSE(Spec.isAtomic("notifier")) << "contains notify (in a loop)";
  EXPECT_TRUE(Spec.isAtomic("quiet"));
  EXPECT_TRUE(Spec.atomicMethods(P).count("quiet"));
}

TEST(AtomicitySpecTest, ExcludeIsIdempotent) {
  AtomicitySpec Spec;
  EXPECT_TRUE(Spec.exclude("m"));
  EXPECT_FALSE(Spec.exclude("m"));
  EXPECT_FALSE(Spec.isAtomic("m"));
}

TEST(ModeTest, AllModesHaveNames) {
  for (Mode M : {Mode::Unmodified, Mode::Velodrome, Mode::VelodromeUnsound,
                 Mode::SingleRun, Mode::FirstRun, Mode::SecondRun,
                 Mode::SecondRunVelodrome, Mode::PcdOnly})
    EXPECT_NE(toString(M), "?");
}

TEST(RunCheckerTest, EveryModeRunsRacyBank) {
  ir::Program P = testprogs::racyBank(2, 100, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  analysis::StaticTransactionInfo Info;
  Info.MethodNames.insert("deposit");
  Info.AnyUnary = true;
  for (Mode M : {Mode::Unmodified, Mode::Velodrome, Mode::VelodromeUnsound,
                 Mode::SingleRun, Mode::FirstRun, Mode::SecondRun,
                 Mode::SecondRunVelodrome, Mode::PcdOnly}) {
    RunConfig Cfg;
    Cfg.M = M;
    Cfg.RunOpts.Deterministic = true;
    Cfg.RunOpts.ScheduleSeed = 4;
    Cfg.StaticInfo = &Info;
    RunOutcome O = runChecker(P, Spec, Cfg);
    EXPECT_FALSE(O.Result.Aborted) << toString(M);
    EXPECT_GT(O.Result.Steps, 0u) << toString(M);
  }
}

TEST(RunCheckerTest, FirstRunProducesStaticInfoNotViolations) {
  ir::Program P = testprogs::racyBank(3, 400, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  bool SawSites = false;
  for (uint64_t Seed = 0; Seed < 8 && !SawSites; ++Seed) {
    RunConfig Cfg;
    Cfg.M = Mode::FirstRun;
    Cfg.RunOpts.Deterministic = true;
    Cfg.RunOpts.ScheduleSeed = Seed;
    RunOutcome O = runChecker(P, Spec, Cfg);
    EXPECT_TRUE(O.Violations.empty()) << "first run never reports";
    SawSites = O.StaticInfo.MethodNames.count("deposit") != 0;
  }
  EXPECT_TRUE(SawSites);
}

TEST(RunCheckerTest, SecondRunHonorsEmptyStaticInfo) {
  ir::Program P = testprogs::racyBank(2, 200, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  analysis::StaticTransactionInfo Empty;
  RunConfig Cfg;
  Cfg.M = Mode::SecondRun;
  Cfg.RunOpts.Deterministic = true;
  Cfg.StaticInfo = &Empty;
  RunOutcome O = runChecker(P, Spec, Cfg);
  EXPECT_EQ(O.stat("icd.regular_transactions"), 0u);
  EXPECT_EQ(O.stat("icd.instrumented_accesses_regular"), 0u);
  EXPECT_EQ(O.stat("icd.instrumented_accesses_unary"), 0u);
  EXPECT_TRUE(O.Violations.empty());
}

TEST(RunCheckerTest, StatsSurfaceOctetCounters) {
  ir::Program P = testprogs::racyBank(2, 200, 2);
  RunConfig Cfg;
  Cfg.M = Mode::SingleRun;
  Cfg.RunOpts.Deterministic = true;
  RunOutcome O = runChecker(P, AtomicitySpec::initial(P), Cfg);
  EXPECT_GT(O.stat("octet.fast_read") + O.stat("octet.fast_write"), 0u);
  EXPECT_GT(O.stat("icd.log_entries"), 0u);
}

TEST(RefinementTest, RemovesExactlyTheBuggyMethod) {
  ir::Program P = testprogs::racyBank(3, 400, 2);
  RefinementOptions Opts;
  Opts.Checker = RefinementChecker::SingleRun;
  Opts.QuietTrials = 3;
  Opts.Deterministic = true;
  RefinementResult R = iterativeRefinement(P, Opts);
  EXPECT_EQ(R.AllBlamed, std::set<std::string>{"deposit"});
  EXPECT_FALSE(R.FinalSpec.isAtomic("deposit"));
  EXPECT_GE(R.Trials, Opts.QuietTrials);
}

TEST(RefinementTest, CleanProgramConvergesWithNoBlame) {
  ir::Program P = testprogs::lockedBank(2, 150, 4);
  RefinementOptions Opts;
  Opts.Checker = RefinementChecker::SingleRun;
  Opts.QuietTrials = 2;
  Opts.Deterministic = true;
  RefinementResult R = iterativeRefinement(P, Opts);
  EXPECT_TRUE(R.AllBlamed.empty());
  EXPECT_EQ(R.Trials, Opts.QuietTrials);
}

TEST(RefinementTest, MultiRunRefinementFindsBug) {
  ir::Program P = testprogs::racyBank(3, 400, 2);
  RefinementOptions Opts;
  Opts.Checker = RefinementChecker::MultiRun;
  Opts.QuietTrials = 3;
  Opts.FirstRunsPerTrial = 3;
  Opts.Deterministic = true;
  RefinementResult R = iterativeRefinement(P, Opts);
  EXPECT_TRUE(R.AllBlamed.count("deposit"));
}

TEST(RefinementTest, RefinedSpecificationIsQuiet) {
  ir::Program P = testprogs::racyBank(2, 300, 2);
  RefinementOptions Opts;
  Opts.Checker = RefinementChecker::SingleRun;
  Opts.QuietTrials = 2;
  Opts.Deterministic = true;
  RefinementResult R = iterativeRefinement(P, Opts);
  for (uint64_t Seed = 100; Seed < 103; ++Seed) {
    RunConfig Cfg;
    Cfg.M = Mode::SingleRun;
    Cfg.RunOpts.Deterministic = true;
    Cfg.RunOpts.ScheduleSeed = Seed;
    RunOutcome O = runChecker(P, R.FinalSpec, Cfg);
    EXPECT_TRUE(O.BlamedMethods.empty());
  }
}

} // namespace
