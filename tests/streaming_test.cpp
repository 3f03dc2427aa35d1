//===- tests/streaming_test.cpp - Streaming service-mode tests ------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Service-mode contract tests (DESIGN.md §15): retirement windows preserve
/// batch verdicts, the StreamingSession emits a well-formed NDJSON event
/// stream whose counters match the run, health snapshots carry a consistent
/// point-in-time view, and a wedged window flush surfaces as the structured
/// WindowFlushStall fault — degrading, never aborting or hanging.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/Checker.h"
#include "rt/StreamingSession.h"
#include "support/ChromeTrace.h"
#include "support/Oracle.h"
#include "tests/TestPrograms.h"

using namespace dc;
using namespace dc::core;

namespace {

RunConfig windowedCfg(Mode M, uint32_t WindowTxs, uint64_t Seed = 7) {
  RunConfig Cfg;
  Cfg.M = M;
  Cfg.RunOpts.Deterministic = true;
  Cfg.RunOpts.ScheduleSeed = Seed;
  Cfg.WindowTxs = WindowTxs;
  return Cfg;
}

std::vector<std::string> lines(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream In(S);
  for (std::string L; std::getline(In, L);)
    if (!L.empty())
      Out.push_back(L);
  return Out;
}

TEST(StreamingWindows, RacyBankVerdictSurvivesTinyWindows) {
  ir::Program P = testprogs::racyBank(2, 40);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  for (Mode M : {Mode::SingleRun, Mode::VectorClock}) {
    RunOutcome Batch = runChecker(P, Spec, windowedCfg(M, 0));
    RunOutcome Windowed = runChecker(P, Spec, windowedCfg(M, 2));
    ASSERT_FALSE(Windowed.Result.Aborted);
    EXPECT_EQ(Windowed.Result.Fault, rt::CheckerFault::None);
    EXPECT_EQ(Windowed.BlamedMethods, Batch.BlamedMethods) << toString(M);
    EXPECT_EQ(Windowed.PotentialMethods, Batch.PotentialMethods)
        << toString(M);
    const char *Stat = M == Mode::VectorClock ? "vc.windows_flushed"
                                              : "governor.windows_flushed";
    EXPECT_GT(Windowed.stat(Stat), 10u)
        << toString(M) << ": 80+ transactions at window cadence 2";
  }
}

/// Main writes the shared table, forks the workers and joins them; each
/// worker reads the table and makes racy deposits. Every fork and
/// table-read edge leaves main's unary transaction, which stays current
/// while main waits in join.
ir::Program forkJoinReaders(uint32_t Workers, uint32_t Rounds) {
  using namespace ir;
  ProgramBuilder B("fork-join-readers", 5);
  const uint32_t Entries = 8;
  PoolId Table = B.addPool("table", Entries, 1);
  PoolId Acct = B.addPool("accounts", 2, 1);
  MethodId Lookup = B.beginMethod("lookup", /*Atomic=*/true)
                        .read(Table, idxParam(), 0u)
                        .endMethod();
  MethodId Deposit = B.beginMethod("deposit", /*Atomic=*/true)
                         .read(Acct, idxParam(), 0u)
                         .work(5)
                         .write(Acct, idxParam(), 0u)
                         .endMethod();
  MethodId Worker = B.beginMethod("worker", /*Atomic=*/false)
                        .beginLoop(idxConst(Rounds))
                        .call(Lookup, idxRandom(Entries))
                        .call(Deposit, idxRandom(2))
                        .endLoop()
                        .endMethod();
  auto &Main = B.beginMethod("main", /*Atomic=*/false);
  Main.beginLoop(idxConst(Entries)).write(Table, idxLoop(), 0u).endLoop();
  for (uint32_t W = 1; W <= Workers; ++W)
    Main.forkThread(idxConst(W));
  for (uint32_t W = 1; W <= Workers; ++W)
    Main.joinThread(idxConst(W));
  MethodId MainId = Main.endMethod();
  B.addThread(MainId);
  for (uint32_t W = 1; W <= Workers; ++W)
    B.addThread(Worker);
  return B.build();
}

/// Windows must retire the workers' history even though main's unary
/// transaction reaches all of it: main is blocked in join and its
/// transaction was interrupted, so it can gain no in-edge and the
/// collector seals it instead of tracing from it. On one replayed
/// schedule, the windowed run must sweep nearly everything and still
/// report exactly what batch mode and the oracle report.
TEST(StreamingWindows, ForkJoinHistoryRetiresBehindBlockedMain) {
  ir::Program P = forkJoinReaders(3, 60);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  rt::RunOptions RO;
  RO.Deterministic = true;
  RO.ScheduleSeed = 4;
  oracle::RecordedTrace Trace = oracle::recordTrace(P, Spec, RO);
  ASSERT_FALSE(Trace.Result.Aborted);
  oracle::OracleVerdict Truth = oracle::decideSerializability(P, Trace);
  ASSERT_FALSE(Truth.Serializable) << "the racy deposits must show";

  auto Replay = [&](uint32_t WindowTxs) {
    RunConfig Cfg = windowedCfg(Mode::SingleRun, WindowTxs);
    Cfg.RunOpts.ExplicitSchedule = Trace.Schedule;
    Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
    RunOutcome O = runChecker(P, Spec, Cfg);
    EXPECT_FALSE(O.Result.Aborted);
    EXPECT_FALSE(O.Result.ScheduleDiverged);
    return O;
  };
  RunOutcome Batch = Replay(0);
  RunOutcome Windowed = Replay(8);

  const uint64_t Txs = Windowed.stat("icd.regular_transactions") +
                       Windowed.stat("icd.unary_transactions");
  ASSERT_GT(Txs, 300u);
  EXPECT_GE(Windowed.stat("icd.txs_sealed"), 1u) << "main's transaction";
  EXPECT_GE(Windowed.stat("icd.txs_swept") * 10, Txs * 9)
      << "swept " << Windowed.stat("icd.txs_swept") << " of " << Txs;
  // A collector that traces from main's transaction carries 684
  // transactions across some boundary here; sealing it leaves 21.
  EXPECT_LE(Windowed.stat("governor.window_pinned_peak"), 32u);

  EXPECT_FALSE(Windowed.Violations.empty());
  EXPECT_EQ(Windowed.BlamedMethods, Batch.BlamedMethods);
  EXPECT_EQ(Windowed.PotentialMethods, Batch.PotentialMethods);
  EXPECT_TRUE(Windowed.PotentialMethods.empty());
  EXPECT_EQ(Windowed.Violations.size(), Batch.Violations.size());
  for (const std::string &M : Windowed.BlamedMethods)
    EXPECT_TRUE(Truth.CycleMethods.count(M))
        << "blamed '" << M << "' outside the oracle's cycles";
  EXPECT_EQ(Windowed.stat("icd.sccs"), Batch.stat("icd.sccs"));
  EXPECT_EQ(Windowed.stat("pcd.cycles"), Batch.stat("pcd.cycles"));
}

TEST(StreamingWindows, SerializableProgramStaysCleanUnderWindows) {
  ir::Program P = testprogs::disjointBank(2, 40);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  for (Mode M : {Mode::SingleRun, Mode::VectorClock}) {
    RunOutcome O = runChecker(P, Spec, windowedCfg(M, 2));
    ASSERT_FALSE(O.Result.Aborted);
    EXPECT_TRUE(O.Violations.empty()) << toString(M);
    EXPECT_TRUE(O.PotentialMethods.empty())
        << toString(M) << ": windows must retire soundly, not degrade "
        << "quiesced transactions";
  }
}

TEST(StreamingSessionTest, NdjsonStreamIsWellFormedAndCountsMatch) {
  ir::Program P = testprogs::racyBank(2, 40);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  std::ostringstream Ndjson;
  rt::StreamingSession::Options SOpts;
  SOpts.Out = &Ndjson;
  SOpts.MethodName = [&P](ir::MethodId Id) { return P.Methods[Id].Name; };
  rt::StreamingSession Session(std::move(SOpts));
  RunConfig Cfg = windowedCfg(Mode::SingleRun, 4);
  Cfg.Session = &Session;
  RunOutcome O = runChecker(P, Spec, Cfg);
  Session.finish(O.BlamedMethods, O.PotentialMethods,
                 O.Violations.size(), O.Result.Fault,
                 O.BlamedMethods.empty() ? 0 : 1);

  EXPECT_EQ(Session.violationsStreamed(), O.Violations.size())
      << "every confirmed record must be streamed, in report order";
  EXPECT_EQ(Session.windowsStreamed(), O.stat("governor.windows_flushed"));

  std::vector<std::string> Events = lines(Ndjson.str());
  ASSERT_FALSE(Events.empty());
  uint64_t Violations = 0, Windows = 0, Health = 0, Summaries = 0;
  for (const std::string &L : Events) {
    // Well-formed enough to be machine-tailed: one object per line, with
    // the event discriminator first.
    EXPECT_EQ(L.front(), '{');
    EXPECT_EQ(L.back(), '}');
    ASSERT_EQ(L.rfind("{\"event\":\"", 0), 0u) << L;
    Violations += L.rfind("{\"event\":\"violation\"", 0) == 0;
    Windows += L.rfind("{\"event\":\"window\"", 0) == 0;
    Health += L.rfind("{\"event\":\"health\"", 0) == 0;
    Summaries += L.rfind("{\"event\":\"summary\"", 0) == 0;
  }
  EXPECT_EQ(Violations, Session.violationsStreamed());
  EXPECT_EQ(Windows, Session.windowsStreamed());
  EXPECT_GT(Health, 0u) << "HealthEveryWindows defaults to every window";
  EXPECT_EQ(Summaries, 1u);
  // The summary is the last event and carries the final verdict.
  EXPECT_NE(Events.back().find("\"event\":\"summary\""), std::string::npos);
  EXPECT_NE(Events.back().find("\"exit_code\":1"), std::string::npos);
  EXPECT_NE(Events.back().find("deposit"), std::string::npos)
      << "blamed method names resolve through Options::MethodName";
  // Monotonic seq: the stream is totally ordered for downstream consumers.
  int64_t LastSeq = -1;
  for (const std::string &L : Events) {
    size_t At = L.find("\"seq\":");
    ASSERT_NE(At, std::string::npos) << L;
    int64_t Seq = std::strtoll(L.c_str() + At + 6, nullptr, 10);
    EXPECT_GT(Seq, LastSeq) << L;
    LastSeq = Seq;
  }
}

TEST(StreamingSessionTest, HealthEventsCarryLivenessCounters) {
  ir::Program P = testprogs::racyBank(2, 40);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  std::ostringstream Ndjson;
  rt::StreamingSession::Options SOpts;
  SOpts.Out = &Ndjson;
  rt::StreamingSession Session(std::move(SOpts));
  RunConfig Cfg = windowedCfg(Mode::SingleRun, 4);
  Cfg.Session = &Session;
  runChecker(P, Spec, Cfg);
  bool SawHealth = false;
  for (const std::string &L : lines(Ndjson.str())) {
    if (L.rfind("{\"event\":\"health\"", 0) != 0)
      continue;
    SawHealth = true;
    // The snapshot-consistent counters the soak and any dashboard key on.
    for (const char *Field :
         {"\"window\":", "\"finished_txs\":", "\"live_txs\":",
          "\"retired_txs\":", "\"pinned_txs\":", "\"sealed_txs\":",
          "\"stats_stable\":"})
      EXPECT_NE(L.find(Field), std::string::npos)
          << "health event missing " << Field << ": " << L;
  }
  EXPECT_TRUE(SawHealth);
}

TEST(StreamingFaults, WedgedWindowFlushDegradesStructurally) {
  // A window flush that cannot finish (injected stall held past the PCD
  // watchdog budget) must surface as the structured WindowFlushStall fault
  // with a diagnosis — and the run must still terminate with its verdict
  // intact, not abort. This is the service-mode liveness contract: a stuck
  // component inside one window becomes a fault event, never a hang.
  ir::Program P = testprogs::racyBank(2, 40);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  std::ostringstream Ndjson;
  rt::StreamingSession::Options SOpts;
  SOpts.Out = &Ndjson;
  rt::StreamingSession Session(std::move(SOpts));
  RunConfig Cfg = windowedCfg(Mode::SingleRun, 8);
  Cfg.Session = &Session;
  Cfg.Faults.WindowStallAt = 1;
  Cfg.StallTimeoutMs = 100;
  RunOutcome O = runChecker(P, Spec, Cfg);
  EXPECT_FALSE(O.Result.Aborted)
      << "a wedged flush degrades; it must not abort the run";
  EXPECT_EQ(O.Result.Fault, rt::CheckerFault::WindowFlushStall);
  EXPECT_FALSE(O.Result.FaultDiagnosis.empty());
  EXPECT_GT(O.stat("governor.windows_flushed"), 1u)
      << "windows must keep flushing after the faulted one";
  // The fault was streamed live.
  bool SawFault = false;
  for (const std::string &L : lines(Ndjson.str()))
    SawFault |= L.rfind("{\"event\":\"fault\"", 0) == 0 &&
                L.find("window-flush-stall") != std::string::npos;
  EXPECT_TRUE(SawFault);
}

TEST(StreamingTrace, TimelineExportRecordsWindowInstants) {
  ir::Program P = testprogs::racyBank(2, 30);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  TraceRecorder Trace;
  RunConfig Cfg = windowedCfg(Mode::SingleRun, 4);
  Cfg.Trace = &Trace;
  RunOutcome O = runChecker(P, Spec, Cfg);
  ASSERT_FALSE(O.Result.Aborted);
  std::ostringstream Json;
  Trace.writeJson(Json);
  const std::string Out = Json.str();
  EXPECT_NE(Out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Out.find("window-flush"), std::string::npos)
      << "chrome://tracing export must carry the window-boundary instants";
}

} // namespace
