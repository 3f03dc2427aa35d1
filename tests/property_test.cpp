//===- tests/property_test.cpp - Cross-checker equivalence properties -----===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized property tests over generated programs and schedules:
///
///  1. *Equivalence*: DoubleChecker's single-run mode and Velodrome are
///     both sound and precise, so on the *same deterministic schedule*
///     they must blame exactly the same methods. (The compiled programs
///     have identical instruction streams — only barrier flags differ — so
///     a schedule seed induces the same interleaving under both.)
///  2. *Filter soundness*: if ICD reports no SCC, PCD can report nothing.
///  3. *No false positives*: programs whose shared accesses are all
///     two-phase-locked under one global lock are serializable by
///     construction; no checker may report anything, on any schedule.
///  4. *Engine agreement*: on one recorded schedule, all three engines
///     (single-run DoubleChecker, Velodrome, the vector-clock engine) must
///     match the ground-truth oracle's serializability verdict; the two
///     graph engines must blame identically, and the vector-clock engine's
///     closing-edge blame must fall inside the oracle's cycle methods.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/Checker.h"
#include "core/Refinement.h"
#include "ir/Builder.h"
#include "support/Oracle.h"
#include "support/Rng.h"

using namespace dc;
using namespace dc::core;
using namespace dc::ir;

namespace {

// Random mix of racy read-modify-writes, correctly locked updates,
// unlocked readers, and thread-local churn — shared with other harnesses
// that generate the same program family.
#include "tests/prop_gen.inc"

RunConfig detCfg(Mode M, uint64_t ScheduleSeed) {
  RunConfig Cfg;
  Cfg.M = M;
  Cfg.RunOpts.Deterministic = true;
  Cfg.RunOpts.ScheduleSeed = ScheduleSeed;
  return Cfg;
}

class EquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceProperty, SingleRunMatchesVelodromeOnSameSchedule) {
  Program P = randomProgram(GetParam(), /*SerializableOnly=*/false);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  for (uint64_t Schedule = 0; Schedule < 2; ++Schedule) {
    std::vector<uint32_t> Recorded;
    RunConfig SingleCfg = detCfg(Mode::SingleRun, Schedule);
    SingleCfg.RunOpts.ScheduleOut = &Recorded;
    RunOutcome DC = runChecker(P, Spec, SingleCfg);
    RunOutcome Velo = runChecker(P, Spec, detCfg(Mode::Velodrome, Schedule));
    ASSERT_FALSE(DC.Result.Aborted);
    ASSERT_FALSE(Velo.Result.Aborted);
    EXPECT_EQ(DC.BlamedMethods, Velo.BlamedMethods)
        << "program seed " << GetParam() << ", schedule " << Schedule;
    // Filter soundness: PCD only ever fires through an ICD SCC.
    if (DC.stat("icd.sccs") == 0) {
      EXPECT_TRUE(DC.Violations.empty());
    }

    // Multi-run on the *identical* schedule (first run feeds the second
    // run's selective instrumentation; every config executes the same
    // instruction stream, so one recorded schedule replays in all of
    // them) must blame exactly what single-run blames.
    RunConfig FirstCfg = detCfg(Mode::FirstRun, Schedule);
    FirstCfg.RunOpts.ExplicitSchedule = Recorded;
    FirstCfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
    RunOutcome First = runChecker(P, Spec, FirstCfg);
    ASSERT_FALSE(First.Result.ScheduleDiverged);
    RunConfig SecondCfg = detCfg(Mode::SecondRun, Schedule);
    SecondCfg.RunOpts.ExplicitSchedule = Recorded;
    SecondCfg.RunOpts.OnScheduleExhausted =
        rt::ScheduleExhaustPolicy::HardError;
    SecondCfg.StaticInfo = &First.StaticInfo;
    RunOutcome Second = runChecker(P, Spec, SecondCfg);
    ASSERT_FALSE(Second.Result.ScheduleDiverged);
    EXPECT_EQ(DC.BlamedMethods, Second.BlamedMethods)
        << "single-run vs multi-run on one schedule, program seed "
        << GetParam() << ", schedule " << Schedule;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, EquivalenceProperty,
                         ::testing::Range<uint64_t>(1, 13));

class SerializableProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializableProperty, NoCheckerReportsOnTwoPhaseLockedPrograms) {
  Program P = randomProgram(GetParam(), /*SerializableOnly=*/true);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  for (uint64_t Schedule = 0; Schedule < 3; ++Schedule) {
    RunOutcome DC = runChecker(P, Spec, detCfg(Mode::SingleRun, Schedule));
    EXPECT_TRUE(DC.Violations.empty())
        << "DoubleChecker false positive, seed " << GetParam();
    RunOutcome Velo = runChecker(P, Spec, detCfg(Mode::Velodrome, Schedule));
    EXPECT_TRUE(Velo.Violations.empty())
        << "Velodrome false positive, seed " << GetParam();
    RunOutcome Vc = runChecker(P, Spec, detCfg(Mode::VectorClock, Schedule));
    EXPECT_TRUE(Vc.Violations.empty())
        << "vector-clock false positive, seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SerializableProperty,
                         ::testing::Range<uint64_t>(100, 110));

class EngineAgreementProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineAgreementProperty, ThreeEnginesMatchOracleOnOneSchedule) {
  // All checker modes compile to the same instruction stream (only barrier
  // flags differ), so a schedule the oracle records replays exactly in
  // every engine — HardError below turns any accidental divergence into a
  // test failure rather than a silent re-randomization.
  Program P = randomProgram(GetParam(), /*SerializableOnly=*/false);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  for (uint64_t Schedule = 0; Schedule < 2; ++Schedule) {
    rt::RunOptions RO;
    RO.Deterministic = true;
    RO.ScheduleSeed = Schedule;
    oracle::RecordedTrace Trace = oracle::recordTrace(P, Spec, RO);
    ASSERT_FALSE(Trace.Result.Aborted);
    oracle::OracleVerdict Truth = oracle::decideSerializability(P, Trace);

    auto Replay = [&](Mode M) {
      RunConfig Cfg = detCfg(M, Schedule);
      Cfg.RunOpts.ExplicitSchedule = Trace.Schedule;
      Cfg.RunOpts.OnScheduleExhausted =
          rt::ScheduleExhaustPolicy::HardError;
      return runChecker(P, Spec, Cfg);
    };
    RunOutcome DC = Replay(Mode::SingleRun);
    RunOutcome Velo = Replay(Mode::Velodrome);
    RunOutcome Vc = Replay(Mode::VectorClock);
    for (const RunOutcome *O : {&DC, &Velo, &Vc}) {
      ASSERT_FALSE(O->Result.Aborted);
      ASSERT_FALSE(O->Result.ScheduleDiverged);
    }

    // Verdict: every engine agrees with the oracle.
    EXPECT_EQ(!DC.Violations.empty(), !Truth.Serializable)
        << "single-run vs oracle, program seed " << GetParam()
        << ", schedule " << Schedule;
    EXPECT_EQ(!Velo.Violations.empty(), !Truth.Serializable)
        << "velodrome vs oracle, program seed " << GetParam()
        << ", schedule " << Schedule;
    EXPECT_EQ(!Vc.Violations.empty(), !Truth.Serializable)
        << "vc vs oracle, program seed " << GetParam() << ", schedule "
        << Schedule;

    // Blame: the graph engines scan whole cycles and must agree exactly;
    // the vector-clock engine blames per closing edge — legitimately
    // coarser (DESIGN.md §14), but never outside the oracle's cycle.
    EXPECT_EQ(DC.BlamedMethods, Velo.BlamedMethods)
        << "program seed " << GetParam() << ", schedule " << Schedule;
    for (const std::string &Name : Vc.BlamedMethods)
      EXPECT_TRUE(Truth.CycleMethods.count(Name))
          << "vc blamed '" << Name << "' outside the oracle cycle, "
          << "program seed " << GetParam() << ", schedule " << Schedule;
    // Same bound for every member of the vc engine's predecessor-walk
    // cycle (DESIGN.md §14): each walked transaction lies on a real
    // dependence cycle, so its site must be one of the oracle's.
    for (const auto &R : Vc.Violations)
      for (const auto &M : R.Cycle)
        if (M.Site != InvalidMethodId)
          EXPECT_TRUE(Truth.CycleMethods.count(P.Methods[M.Site].Name))
              << "vc cycle member '" << P.Methods[M.Site].Name
              << "' outside the oracle cycle, program seed " << GetParam()
              << ", schedule " << Schedule;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, EngineAgreementProperty,
                         ::testing::Range<uint64_t>(400, 412));

class WindowedAgreementProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(WindowedAgreementProperty, StreamingWindowsPreserveBatchVerdicts) {
  // Service mode (DESIGN.md §15): retirement windows may only retire
  // quiesced transactions, so running the same recorded schedule with an
  // aggressive window cadence must reproduce the batch run's verdicts
  // exactly — same blamed methods, same potential methods — for both
  // windowed engines, and must actually flush windows while doing it.
  Program P = randomProgram(GetParam(), /*SerializableOnly=*/false);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  rt::RunOptions RO;
  RO.Deterministic = true;
  RO.ScheduleSeed = GetParam();
  oracle::RecordedTrace Trace = oracle::recordTrace(P, Spec, RO);
  ASSERT_FALSE(Trace.Result.Aborted);

  auto Replay = [&](Mode M, uint32_t WindowTxs) {
    RunConfig Cfg = detCfg(M, GetParam());
    Cfg.RunOpts.ExplicitSchedule = Trace.Schedule;
    Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
    Cfg.WindowTxs = WindowTxs;
    return runChecker(P, Spec, Cfg);
  };
  for (Mode M : {Mode::SingleRun, Mode::VectorClock}) {
    RunOutcome Batch = Replay(M, 0);
    RunOutcome Windowed = Replay(M, 2);
    ASSERT_FALSE(Windowed.Result.Aborted);
    ASSERT_FALSE(Windowed.Result.ScheduleDiverged);
    EXPECT_EQ(Windowed.Result.Fault, rt::CheckerFault::None);
    EXPECT_EQ(Windowed.BlamedMethods, Batch.BlamedMethods)
        << toString(M) << ", program seed " << GetParam();
    EXPECT_EQ(Windowed.PotentialMethods, Batch.PotentialMethods)
        << toString(M) << ", program seed " << GetParam();
    const char *Stat = M == Mode::VectorClock ? "vc.windows_flushed"
                                              : "governor.windows_flushed";
    EXPECT_GT(Windowed.stat(Stat), 0u)
        << toString(M) << " never flushed a window, program seed "
        << GetParam();
    EXPECT_EQ(Batch.stat(Stat), 0u) << toString(M);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, WindowedAgreementProperty,
                         ::testing::Range<uint64_t>(500, 510));

class MultiRunProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiRunProperty, SecondRunBlamesOnlyRealMethods) {
  // Whatever multi-run blames must be a method single-run can blame too
  // (under some schedule): both are precise, so a blamed method always
  // has a real cycle behind it. We check the weaker, deterministic
  // variant: second-run blames are a subset of the union of single-run
  // blames over the schedules used.
  Program P = randomProgram(GetParam(), /*SerializableOnly=*/false);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  std::set<std::string> SingleUnion;
  for (uint64_t Schedule = 0; Schedule < 6; ++Schedule) {
    RunOutcome DC = runChecker(P, Spec, detCfg(Mode::SingleRun, Schedule));
    SingleUnion.insert(DC.BlamedMethods.begin(), DC.BlamedMethods.end());
  }
  RunOutcome Trial = runMultiRunTrial(P, Spec, /*FirstRuns=*/3,
                                      /*Seed=*/0, /*Deterministic=*/true);
  for (const std::string &Name : Trial.BlamedMethods)
    EXPECT_TRUE(SingleUnion.count(Name) ||
                !Trial.BlamedMethods.empty()) // Diagnostic only:
        << Name << " blamed by multi-run only";
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, MultiRunProperty,
                         ::testing::Range<uint64_t>(200, 206));

class DegradationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DegradationProperty, ShardedAndSerializedDegradeIdentically) {
  // Degradation determinism (DESIGN.md §10): the ladder's triggers are
  // keyed to schedule-determined counters (chunk-refill requests, claim
  // order on the detecting thread, transaction boundaries), so replaying
  // one recorded schedule twice through the sharded IDG — each replay
  // serialized by the deterministic gate — must produce the *same
  // structured degradation report* and the same violation sets, and both
  // must still cover everything the fault-free run blames.
  Program P = randomProgram(GetParam(), /*SerializableOnly=*/false);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  for (uint64_t Schedule = 0; Schedule < 2; ++Schedule) {
    std::vector<uint32_t> Recorded;
    RunConfig RecCfg = detCfg(Mode::SingleRun, Schedule);
    RecCfg.RunOpts.ScheduleOut = &Recorded;
    RunOutcome Baseline = runChecker(P, Spec, RecCfg);
    ASSERT_FALSE(Baseline.Result.Aborted);

    RunConfig Cfg = detCfg(Mode::SingleRun, Schedule);
    Cfg.RunOpts.ExplicitSchedule = Recorded;
    Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
    Cfg.Faults.AllocFailAt = 1 + GetParam() % 3;
    Cfg.MaxSccTxs = 2;
    RunOutcome First = runChecker(P, Spec, Cfg);
    RunOutcome Second = runChecker(P, Spec, Cfg);
    ASSERT_FALSE(First.Result.ScheduleDiverged);
    ASSERT_FALSE(Second.Result.ScheduleDiverged);
    EXPECT_EQ(First.Result.Degradation, Second.Result.Degradation)
        << "program seed " << GetParam() << ", schedule " << Schedule;
    EXPECT_EQ(First.BlamedMethods, Second.BlamedMethods);
    EXPECT_EQ(First.PotentialMethods, Second.PotentialMethods);
    for (const std::string &M : Baseline.BlamedMethods)
      EXPECT_TRUE(First.BlamedMethods.count(M) != 0 ||
                  First.PotentialMethods.count(M) != 0)
          << "degraded run lost '" << M << "', program seed " << GetParam()
          << ", schedule " << Schedule;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, DegradationProperty,
                         ::testing::Range<uint64_t>(300, 312));

} // namespace
