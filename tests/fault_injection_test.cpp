//===- tests/fault_injection_test.cpp - Degradation ladder under faults ---===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for the overload/fault tolerance machinery (DESIGN.md
/// §10): deterministic FaultPlan injections must convert every modelled
/// failure — allocation failure, a stalled collector, an oversized SCC, a
/// breached resource budget — into *sound degradation* (potential
/// violations + structured RunResult), never a hang, crash, or silently
/// missed violation.
///
/// Soundness is checked against a fault-free baseline on the same
/// deterministic schedule: whatever the healthy run blames, the degraded
/// run must still report, precisely or as a potential violation.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/Checker.h"
#include "tests/TestPrograms.h"

using namespace dc;
using namespace dc::core;

namespace {

RunConfig detCfg(uint64_t Seed) {
  RunConfig Cfg;
  Cfg.M = Mode::SingleRun;
  Cfg.RunOpts.Deterministic = true;
  Cfg.RunOpts.ScheduleSeed = Seed;
  return Cfg;
}

/// Every method the healthy baseline blames must show up in the degraded
/// run's report — precisely or as a potential violation.
::testing::AssertionResult covers(const RunOutcome &Degraded,
                                  const RunOutcome &Baseline) {
  for (const std::string &M : Baseline.BlamedMethods)
    if (Degraded.BlamedMethods.count(M) == 0 &&
        Degraded.PotentialMethods.count(M) == 0)
      return ::testing::AssertionFailure()
             << "degraded run lost '" << M << "' (blamed fault-free)";
  return ::testing::AssertionSuccess();
}

bool hasAction(const std::vector<rt::DegradationEvent> &Events,
               rt::DegradationEvent::Action A) {
  for (const rt::DegradationEvent &E : Events)
    if (E.A == A)
      return true;
  return false;
}

/// The program every test degrades: racy deposits guarantee real cycles,
/// so the baseline blames `deposit` and the fault paths all have SCCs to
/// chew on.
ir::Program racy() { return testprogs::racyBank(2, 120, 2); }

TEST(FaultInjection, AllocFailShedsLoggingSoundly) {
  ir::Program P = racy();
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RunOutcome Baseline = runChecker(P, Spec, detCfg(5));
  ASSERT_FALSE(Baseline.Result.Aborted);
  ASSERT_FALSE(Baseline.BlamedMethods.empty());

  RunConfig Cfg = detCfg(5);
  Cfg.Faults.AllocFailAt = 1; // Very first chunk refill fails.
  RunOutcome O = runChecker(P, Spec, Cfg);
  ASSERT_FALSE(O.Result.Aborted);
  EXPECT_EQ(O.Result.Fault, rt::CheckerFault::None);
  // The refused refill must surface as a structured shed event and a
  // counter, not as a crash or a silently truncated log.
  EXPECT_TRUE(hasAction(O.Result.Degradation,
                        rt::DegradationEvent::Action::ShedLogging));
  EXPECT_GE(O.stat("degradation.sheds"), 1u);
  EXPECT_GE(O.stat("logging.refills_refused"), 1u);
  EXPECT_TRUE(covers(O, Baseline));
}

TEST(FaultInjection, OversizedSccDegradesToPotential) {
  // Satellite regression: SCCs above MaxSccTxsForPcd used to be skipped
  // silently (an unsound hole). They must now surface as potential
  // violations. MaxSccTxs=1 degrades every multi-transaction SCC.
  ir::Program P = racy();
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RunOutcome Baseline = runChecker(P, Spec, detCfg(7));
  ASSERT_FALSE(Baseline.BlamedMethods.empty());

  RunConfig Cfg = detCfg(7);
  Cfg.MaxSccTxs = 1;
  RunOutcome O = runChecker(P, Spec, Cfg);
  ASSERT_FALSE(O.Result.Aborted);
  EXPECT_EQ(O.Result.Fault, rt::CheckerFault::None);
  EXPECT_GE(O.stat("pcd.sccs_degraded"), 1u);
  EXPECT_TRUE(hasAction(O.Result.Degradation,
                        rt::DegradationEvent::Action::PotentialOnly));
  EXPECT_FALSE(O.PotentialMethods.empty());
  EXPECT_TRUE(covers(O, Baseline));
}

TEST(FaultInjection, LiveTxBudgetForcesEagerCollectionWithoutChangingBlame) {
  // Governor path: a tiny live-transaction budget keeps the checker under
  // sustained pressure. Pressure forces eager collection, which must not
  // change what gets blamed (collection only sweeps transactions that can
  // no longer join a cycle).
  ir::Program P = racy();
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RunOutcome Baseline = runChecker(P, Spec, detCfg(13));
  ASSERT_FALSE(Baseline.BlamedMethods.empty());

  RunConfig Cfg = detCfg(13);
  Cfg.MaxLiveTxs = 4;
  RunOutcome O = runChecker(P, Spec, Cfg);
  ASSERT_FALSE(O.Result.Aborted);
  EXPECT_EQ(O.Result.Fault, rt::CheckerFault::None);
  EXPECT_GE(O.stat("governor.live_txs_peak"), 4u);
  EXPECT_EQ(O.BlamedMethods, Baseline.BlamedMethods);
  EXPECT_TRUE(covers(O, Baseline));
}

TEST(FaultInjection, LiveTxBackpressureWaitsAreBoundedAndSound) {
  // Tx-boundary backpressure: under live-tx pressure with a slowed
  // collector, transaction begin lends the collector its cycles (a
  // bounded wait) instead of letting the live graph snowball. The wait
  // must show up in the stats, terminate (liveness must not depend on the
  // collector making progress), and leave blame untouched.
  ir::Program P = racy();
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RunOutcome Baseline = runChecker(P, Spec, detCfg(13));
  ASSERT_FALSE(Baseline.BlamedMethods.empty());

  RunConfig Cfg = detCfg(13);
  Cfg.MaxLiveTxs = 4;
  Cfg.Faults.CollectorDelayMs = 5; // Far below the 10 s watchdog default.
  RunOutcome O = runChecker(P, Spec, Cfg);
  ASSERT_FALSE(O.Result.Aborted);
  EXPECT_EQ(O.Result.Fault, rt::CheckerFault::None);
  EXPECT_GE(O.stat("governor.tx_backpressure_waits"), 1u);
  EXPECT_EQ(O.BlamedMethods, Baseline.BlamedMethods);
  EXPECT_TRUE(covers(O, Baseline));
}

TEST(FaultInjection, CollectorDelayAboveTimeoutTripsWatchdog) {
  ir::Program P = racy();
  AtomicitySpec Spec = AtomicitySpec::initial(P);

  RunConfig Cfg = detCfg(17);
  Cfg.MaxLiveTxs = 4; // Keeps eager-collection requests flowing.
  // 200 ms of tolerated silence keeps a loaded CI host from reading its
  // own scheduling hiccups as a stalled gate; the injected delay stays
  // far above it, so the collector verdict is unchanged.
  Cfg.PcdTimeoutMs = 200;
  Cfg.Faults.CollectorDelayMs = 800;
  RunOutcome O = runChecker(P, Spec, Cfg);
  ASSERT_FALSE(O.Result.Aborted);
  EXPECT_EQ(O.Result.Fault, rt::CheckerFault::CollectorStall)
      << "diagnosis: " << O.Result.FaultDiagnosis;
  EXPECT_FALSE(O.Result.FaultDiagnosis.empty());
}

TEST(FaultInjection, DegradationReportIsDeterministic) {
  // Same program, same schedule seed, same FaultPlan → bit-identical
  // structured degradation report and violation sets. This is what lets
  // dcfuzz witnesses carry a '# fault-plan:' line that reproduces.
  ir::Program P = racy();
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RunConfig Cfg = detCfg(21);
  Cfg.Faults.AllocFailAt = 2;
  Cfg.MaxSccTxs = 2;
  RunOutcome A = runChecker(P, Spec, Cfg);
  RunOutcome B = runChecker(P, Spec, Cfg);
  ASSERT_FALSE(A.Result.Aborted);
  ASSERT_FALSE(B.Result.Aborted);
  EXPECT_EQ(A.Result.Degradation, B.Result.Degradation);
  EXPECT_EQ(A.BlamedMethods, B.BlamedMethods);
  EXPECT_EQ(A.PotentialMethods, B.PotentialMethods);
}

} // namespace
