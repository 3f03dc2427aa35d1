//===- tools/FuzzLib.cpp --------------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/FuzzLib.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/DoubleChecker.h"
#include "core/Checker.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "rt/Scheduler.h"
#include "rt/StreamingSession.h"
#include "support/Rng.h"

using namespace dc;
using namespace dc::fuzz;

//===----------------------------------------------------------------------===//
// Program generator
//===----------------------------------------------------------------------===//

ir::Program ProgSpec::build() const {
  ir::ProgramBuilder B("fuzz" + std::to_string(Seed), Seed);
  const uint32_t NumObjs = std::max(1u, Objects);
  const uint32_t NumFields = std::max(1u, Fields);
  ir::PoolId Shared = B.addPool("shared", NumObjs, NumFields);
  ir::PoolId Lock = B.addPool("lock", 1, 1);

  std::vector<ir::MethodId> Ids;
  for (size_t M = 0; M < Methods.size(); ++M) {
    auto &BB = B.beginMethod("m" + std::to_string(M), Methods[M].Atomic);
    if (Methods[M].Locked)
      BB.acquire(Lock, ir::idxConst(0));
    for (const SpecAccess &A : Methods[M].Body) {
      if (A.IsWrite)
        BB.write(Shared, ir::idxConst(A.Obj % NumObjs),
                 static_cast<uint32_t>(A.Field % NumFields));
      else
        BB.read(Shared, ir::idxConst(A.Obj % NumObjs),
                static_cast<uint32_t>(A.Field % NumFields));
      if (A.WorkAfter)
        BB.work(A.WorkAfter);
    }
    if (Methods[M].Locked)
      BB.release(Lock, ir::idxConst(0));
    Ids.push_back(BB.endMethod());
  }

  std::vector<ir::MethodId> WorkerIds;
  for (size_t W = 0; W < Workers.size(); ++W) {
    auto &BB = B.beginMethod("w" + std::to_string(W), false);
    if (!Ids.empty())
      for (uint32_t C : Workers[W].Calls)
        BB.call(Ids[C % Ids.size()]);
    WorkerIds.push_back(BB.endMethod());
  }

  auto &Main = B.beginMethod("main", false);
  for (uint32_t W = 1; W <= Workers.size(); ++W)
    Main.forkThread(ir::idxConst(W));
  for (uint32_t W = 1; W <= Workers.size(); ++W)
    Main.joinThread(ir::idxConst(W));
  ir::MethodId MainId = Main.endMethod();
  B.addThread(MainId);
  for (ir::MethodId W : WorkerIds)
    B.addThread(W);
  return B.build();
}

uint64_t ProgSpec::staticAccesses() const {
  uint64_t N = 0;
  for (const SpecThread &W : Workers)
    for (uint32_t C : W.Calls)
      if (!Methods.empty())
        N += Methods[C % Methods.size()].Body.size();
  return N;
}

ProgSpec fuzz::randomSpec(uint64_t Seed) {
  SplitMix64 Rng(Seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  ProgSpec S;
  S.Seed = Seed;
  S.Objects = 1 + static_cast<uint32_t>(Rng.nextBelow(2));
  S.Fields = 1 + static_cast<uint32_t>(Rng.nextBelow(2));
  const uint32_t NumMethods = 2 + static_cast<uint32_t>(Rng.nextBelow(3));
  for (uint32_t M = 0; M < NumMethods; ++M) {
    SpecMethod SM;
    SM.Atomic = Rng.nextBelow(10) < 8;
    SM.Locked = Rng.nextBelow(10) < 3;
    const uint32_t Accesses = 1 + static_cast<uint32_t>(Rng.nextBelow(3));
    for (uint32_t A = 0; A < Accesses; ++A) {
      SpecAccess SA;
      SA.IsWrite = Rng.nextBelow(2) == 0;
      SA.Obj = static_cast<uint8_t>(Rng.nextBelow(S.Objects));
      SA.Field = static_cast<uint8_t>(Rng.nextBelow(S.Fields));
      SA.WorkAfter = static_cast<uint8_t>(Rng.nextBelow(3));
      SM.Body.push_back(SA);
    }
    S.Methods.push_back(std::move(SM));
  }
  const uint32_t NumWorkers = 2 + static_cast<uint32_t>(Rng.nextBelow(2));
  for (uint32_t W = 0; W < NumWorkers; ++W) {
    SpecThread ST;
    const uint32_t Calls = 1 + static_cast<uint32_t>(Rng.nextBelow(3));
    for (uint32_t C = 0; C < Calls; ++C)
      ST.Calls.push_back(static_cast<uint32_t>(Rng.nextBelow(NumMethods)));
    S.Workers.push_back(std::move(ST));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Config-matrix sweep
//===----------------------------------------------------------------------===//

namespace {

struct ConfigOutcome {
  std::string Name;
  std::set<std::string> Blamed;
  bool Records = false;
};

rt::RunOptions replayOpts(const std::vector<uint32_t> &Schedule) {
  rt::RunOptions RO;
  RO.Deterministic = true;
  RO.ExplicitSchedule = Schedule;
  // The recorded schedule must cover the whole replayed execution; since
  // every config compiles to the same instruction stream, anything else is
  // itself a divergence worth reporting.
  RO.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
  RO.MaxSteps = 1ull << 22;
  return RO;
}

/// Names the checker fault that ended an aborted replay ("none" for a
/// plain step-budget abort), so a gate-stall abort under host load reads
/// as the stall it is rather than as a bare "aborted".
std::string abortCause(const rt::RunResult &R) {
  std::string Out = " (fault=" + std::string(rt::toString(R.Fault));
  if (!R.FaultDiagnosis.empty())
    Out += " " + R.FaultDiagnosis;
  return Out + ")";
}

std::string describeSet(const std::set<std::string> &S) {
  if (S.empty())
    return "{}";
  std::string Out = "{";
  for (const std::string &M : S)
    Out += M + ",";
  Out.back() = '}';
  return Out;
}

std::string describeOutcome(const ConfigOutcome &C) {
  return C.Name + ": blamed=" + describeSet(C.Blamed) +
         (C.Records ? " records=yes" : " records=no");
}

bool isSubset(const std::set<std::string> &A, const std::set<std::string> &B) {
  for (const std::string &X : A)
    if (!B.count(X))
      return false;
  return true;
}

} // namespace

PairResult fuzz::checkPair(const ir::Program &Source,
                           const oracle::RecordedTrace &Trace,
                           bool InjectIcdBug) {
  PairResult R;
  oracle::OracleVerdict V = oracle::decideSerializability(Source, Trace);
  R.OracleViolation = !V.Serializable;
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(Source);

  std::vector<ConfigOutcome> Outcomes;
  auto Fail = [&](const std::string &Msg) {
    std::string D = Msg + "\n  oracle: " +
                    (V.Serializable ? "serializable" : "NOT serializable") +
                    " cycle-methods=" + describeSet(V.CycleMethods);
    for (const ConfigOutcome &C : Outcomes)
      D += "\n  " + describeOutcome(C);
    R.Divergence = D;
  };

  // Checks one config's outcome against the oracle and the first config;
  // returns false (with R.Divergence set) on the first mismatch so callers
  // can stop sweeping early.
  auto Admit = [&](const std::string &Name,
                   const core::RunOutcome &O) -> bool {
    if (O.Result.ScheduleDiverged) {
      Fail(Name + ": recorded schedule did not replay (gate divergence)");
      return false;
    }
    if (O.Result.Aborted) {
      Fail(Name + ": replay aborted" + abortCause(O.Result));
      return false;
    }
    ConfigOutcome C{Name, O.BlamedMethods, !O.Violations.empty()};
    Outcomes.push_back(C);
    if (C.Records != !V.Serializable) {
      Fail(Name + (C.Records ? ": reports a violation on a serializable trace"
                             : ": misses a violation the oracle proves"));
      return false;
    }
    if (!isSubset(C.Blamed, V.CycleMethods)) {
      Fail(Name + ": blames methods outside the oracle's dependence cycles");
      return false;
    }
    if (Outcomes.size() > 1 && (C.Blamed != Outcomes[0].Blamed ||
                                C.Records != Outcomes[0].Records)) {
      Fail(Name + ": disagrees with " + Outcomes[0].Name);
      return false;
    }
    return true;
  };

  auto BaseCfg = [&](core::Mode M) {
    core::RunConfig Cfg;
    Cfg.M = M;
    Cfg.RunOpts = replayOpts(Trace.Schedule);
    Cfg.TestOnlyUnsoundIcdFilter = InjectIcdBug;
    return Cfg;
  };

  // Single-run DoubleChecker: the reference the other configs must match.
  {
    core::RunOutcome O =
        core::runChecker(Source, Spec, BaseCfg(core::Mode::SingleRun));
    if (!Admit("single", O))
      return R;
  }
  // Incremental detector with a region cap of 1: every inconsistent edge
  // trips the oversized valve, so *all* cycles must surface as potential
  // violations — never vanish. Checked against the oracle only (the valve
  // intentionally trades blame precision for bounded reorder cost, so the
  // blamed set legitimately differs from the precise configs).
  {
    core::RunConfig Cfg = BaseCfg(core::Mode::SingleRun);
    Cfg.IcdMaxRegion = 1;
    core::RunOutcome O = core::runChecker(Source, Spec, Cfg);
    if (O.Result.ScheduleDiverged) {
      Fail("single/icd-region-cap-1: recorded schedule did not replay");
      return R;
    }
    if (O.Result.Aborted) {
      Fail("single/icd-region-cap-1: replay aborted" + abortCause(O.Result));
      return R;
    }
    std::set<std::string> Reported = O.BlamedMethods;
    Reported.insert(O.PotentialMethods.begin(), O.PotentialMethods.end());
    if (!V.Serializable && Reported.empty()) {
      Fail("single/icd-region-cap-1: reports nothing on a trace the oracle "
           "proves non-serializable");
      return R;
    }
    // Precise blame (if any) must stay inside the oracle's cycles.
    if (!isSubset(O.BlamedMethods, V.CycleMethods)) {
      Fail("single/icd-region-cap-1: blames methods outside the oracle's "
           "dependence cycles");
      return R;
    }
  }

  // Velodrome baseline (its own instrumentation; no DC knobs, no injected
  // bug — it is one of the two references the bug must diverge from).
  {
    core::RunConfig Cfg;
    Cfg.M = core::Mode::Velodrome;
    Cfg.RunOpts = replayOpts(Trace.Schedule);
    core::RunOutcome O = core::runChecker(Source, Spec, Cfg);
    if (!Admit("velodrome", O))
      return R;
  }

  // Vector-clock engine (DESIGN.md §14): the third independent backend. Its
  // verdict must match the oracle (and hence every other config) exactly.
  // Blame is checked for oracle-subset only: the engine sees just the
  // closing edge of each cycle, so its blamed set legitimately differs from
  // the graph engines' whole-cycle blame scan.
  {
    core::RunConfig Cfg;
    Cfg.M = core::Mode::VectorClock;
    Cfg.RunOpts = replayOpts(Trace.Schedule);
    core::RunOutcome O = core::runChecker(Source, Spec, Cfg);
    if (O.Result.ScheduleDiverged) {
      Fail("vc: recorded schedule did not replay (gate divergence)");
      return R;
    }
    if (O.Result.Aborted) {
      Fail("vc: replay aborted" + abortCause(O.Result));
      return R;
    }
    ConfigOutcome C{"vc", O.BlamedMethods, !O.Violations.empty()};
    Outcomes.push_back(C);
    if (C.Records != !V.Serializable) {
      Fail("vc" + std::string(C.Records
                                  ? ": reports a violation on a serializable "
                                    "trace"
                                  : ": misses a violation the oracle proves"));
      return R;
    }
    if (!isSubset(C.Blamed, V.CycleMethods)) {
      Fail("vc: blames methods outside the oracle's dependence cycles");
      return R;
    }
    // The predecessor-walk members are a stronger claim than the blamed
    // set: every regular transaction the walk emits into a record's cycle
    // is asserted to lie on an actual dependence cycle — exactly what the
    // provenance argument in VectorClockChecker.h promises.
    for (const analysis::ViolationRecord &VR : O.Violations)
      for (const analysis::CycleMember &M : VR.Cycle)
        if (M.Site != ir::InvalidMethodId &&
            !V.CycleMethods.count(Source.Methods[M.Site].Name)) {
          Fail("vc: predecessor-walk cycle member '" +
               Source.Methods[M.Site].Name +
               "' outside the oracle's dependence cycles");
          return R;
        }
  }

  // Multi-run DoubleChecker: first run (ICD only, same schedule) feeding
  // the second run's selective instrumentation, replayed on the same
  // schedule again.
  {
    core::RunOutcome First =
        core::runChecker(Source, Spec, BaseCfg(core::Mode::FirstRun));
    if (First.Result.ScheduleDiverged) {
      Fail("multi(first): recorded schedule did not replay");
      return R;
    }
    if (First.Result.Aborted) {
      Fail("multi(first): replay aborted" + abortCause(First.Result));
      return R;
    }
    core::RunConfig Cfg = BaseCfg(core::Mode::SecondRun);
    Cfg.StaticInfo = &First.StaticInfo;
    core::RunOutcome Second = core::runChecker(Source, Spec, Cfg);
    if (!Admit("multi", Second))
      return R;
  }

  return R;
}

//===----------------------------------------------------------------------===//
// Fault-plan sweep (degradation soundness, DESIGN.md §10)
//===----------------------------------------------------------------------===//

std::string FaultCase::name() const {
  std::string N = "fault[" + Plan.spec();
  if (MaxSccTxs != 0)
    N += " max-scc-txs=" + std::to_string(MaxSccTxs);
  if (StallTimeoutMs != 0)
    N += " timeout-ms=" + std::to_string(StallTimeoutMs);
  if (IcdMaxRegion != 0)
    N += " icd-max-region=" + std::to_string(IcdMaxRegion);
  if (IcdSeqRetryStorm != 0)
    N += " icd-retry-storm=" + std::to_string(IcdSeqRetryStorm);
  if (WindowTxs != 0)
    N += " window-txs=" + std::to_string(WindowTxs);
  if (Eng == Engine::Vc)
    N += " engine=vc";
  return N + "]";
}

std::vector<FaultCase> fuzz::faultSweepCases() {
  std::vector<FaultCase> Cases;
  // Allocation failure at the first and a later refill: the thread sheds
  // logging and its SCCs degrade to potential violations.
  {
    FaultCase C;
    C.Plan.AllocFailAt = 1;
    Cases.push_back(C);
  }
  {
    FaultCase C;
    C.Plan.AllocFailAt = 3;
    Cases.push_back(C);
  }
  // Oversized-SCC cap: every real SCC (≥ 2 members) exceeds the cap and
  // must surface as potential violations, never vanish.
  {
    FaultCase C;
    C.MaxSccTxs = 1;
    Cases.push_back(C);
  }
  // Incremental region cap of 1: every inconsistent edge trips the
  // oversized valve, so cycles surface as potential violations.
  {
    FaultCase C;
    C.IcdMaxRegion = 1;
    Cases.push_back(C);
  }
  // Shedding with every consistent edge driven onto the detector lock (a
  // retry storm past the cap): degradation must stay sound on the locked
  // fallback as well as on the lock-free edge insertion path.
  {
    FaultCase C;
    C.Plan.AllocFailAt = 1;
    C.IcdSeqRetryStorm = 100;
    Cases.push_back(C);
  }
  // Seqlock retry storm: every fast-path attempt fails validation three
  // times before succeeding, exercising the snapshot-retry loop and its
  // accounting without changing any verdict.
  {
    FaultCase C;
    C.IcdSeqRetryStorm = 3;
    Cases.push_back(C);
  }
  // Retry storm past the cap: validation never succeeds within the retry
  // budget, so every consistent edge falls back to the exclusive slow
  // path — the fallback must preserve verdicts bit-for-bit.
  {
    FaultCase C;
    C.IcdSeqRetryStorm = 100;
    Cases.push_back(C);
  }
  // Wedged retirement-window flush in streaming mode: the flush goes
  // busy-silent on its watchdog slot mid-window; the watchdog must surface
  // a structured WindowFlushStall — never a hang, an abort, or a lost
  // verdict — and the flush completes once the fault is recorded. A tiny
  // cadence makes even minimal fuzz programs cross a boundary; the short
  // timeout keeps the sweep fast.
  {
    FaultCase C;
    C.Plan.WindowStallAt = 1;
    C.WindowTxs = 3;
    C.StallTimeoutMs = 100;
    Cases.push_back(C);
  }
  // Shed logging layered over streaming windows: the degradation ladder
  // must stay sound when flush-forced collection interleaves with
  // degraded SCCs.
  {
    FaultCase C;
    C.Plan.AllocFailAt = 1;
    C.WindowTxs = 3;
    Cases.push_back(C);
  }
  // The vector-clock engine under an aggressive collect cadence (every 4
  // finished transactions): mark-sweep over live subscription lists must
  // not change the verdict or blame.
  {
    FaultCase C;
    C.Eng = FaultCase::Engine::Vc;
    Cases.push_back(C);
  }
  return Cases;
}

std::optional<std::string>
fuzz::checkFaultCase(const ir::Program &Source,
                     const oracle::RecordedTrace &Trace,
                     const FaultCase &Case) {
  oracle::OracleVerdict V = oracle::decideSerializability(Source, Trace);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(Source);

  // Fault-free baseline on the same schedule: the reference for what the
  // checker reports when nothing degrades. Blame assignment names one
  // method per cycle (not every method the oracle's cycles touch), so the
  // soundness bar for a degraded run is "reports at least what the
  // healthy checker reports", not "reports every oracle cycle method".
  core::RunConfig Base;
  Base.M = Case.Eng == FaultCase::Engine::Vc ? core::Mode::VectorClock
                                             : core::Mode::SingleRun;
  Base.RunOpts = replayOpts(Trace.Schedule);
  core::RunOutcome BO = core::runChecker(Source, Spec, Base);
  if (BO.Result.ScheduleDiverged || BO.Result.Aborted)
    return std::nullopt; // Baseline itself unusable; checkPair owns that.

  core::RunConfig Cfg = Base;
  Cfg.Faults = Case.Plan;
  Cfg.WindowTxs = Case.WindowTxs;
  if (Case.Eng == FaultCase::Engine::Vc) {
    // Make the collector actually run on tiny fuzz programs.
    Cfg.VcCollectEveryTx = 4;
  } else {
    Cfg.MaxSccTxs = Case.MaxSccTxs;
    Cfg.StallTimeoutMs = Case.StallTimeoutMs;
    Cfg.IcdMaxRegion = Case.IcdMaxRegion;
    Cfg.IcdSeqRetryStorm = Case.IcdSeqRetryStorm;
  }
  core::RunOutcome O = core::runChecker(Source, Spec, Cfg);
  const std::string Name = Case.name();

  // Structured termination: the gate must still replay the schedule and
  // the run must end normally — faults may degrade results, never the
  // execution itself.
  if (O.Result.ScheduleDiverged)
    return Name + ": recorded schedule did not replay under injected faults";
  if (O.Result.Aborted)
    return Name + ": run aborted instead of degrading" +
           abortCause(O.Result);

  std::set<std::string> Reported = O.BlamedMethods;
  Reported.insert(O.PotentialMethods.begin(), O.PotentialMethods.end());

  // Soundness under degradation, part 1: a truly non-serializable trace
  // must still surface *something* — a precise record or a potential one.
  if (!V.Serializable && Reported.empty() && O.Violations.empty())
    return Name + ": reports nothing on a trace the oracle proves "
                  "non-serializable";

  // Part 2: degradation may convert precise blame into potential reports
  // but must never lose coverage — everything the healthy run blamed must
  // still be reported, precisely or potentially.
  for (const std::string &M : BO.BlamedMethods)
    if (!Reported.count(M))
      return Name + ": lost '" + M +
             "' that the fault-free run blames (blamed=" +
             describeSet(O.BlamedMethods) +
             " potential=" + describeSet(O.PotentialMethods) + ")";

  // Part 3: the *precise* tier stays precise under faults — blamed
  // methods come only from fully replayed, complete-log SCCs.
  if (!isSubset(O.BlamedMethods, V.CycleMethods))
    return Name + ": blames methods outside the oracle's dependence cycles";

  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Streaming-window replay (batch-vs-streaming verdict equality)
//===----------------------------------------------------------------------===//

std::optional<std::string>
fuzz::checkWindowedPair(const ir::Program &Source,
                        const oracle::RecordedTrace &Trace,
                        uint32_t WindowTxs) {
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(Source);
  for (core::Mode M : {core::Mode::SingleRun, core::Mode::VectorClock}) {
    const std::string Name = "windowed/" + core::toString(M);

    core::RunConfig Batch;
    Batch.M = M;
    Batch.RunOpts = replayOpts(Trace.Schedule);
    core::RunOutcome B = core::runChecker(Source, Spec, Batch);
    if (B.Result.ScheduleDiverged)
      return Name + ": batch replay did not follow the recorded schedule";
    if (B.Result.Aborted)
      return Name + ": batch replay aborted" + abortCause(B.Result);

    // The streaming run pipes every confirmed record and window boundary
    // through a real StreamingSession, so the NDJSON path is exercised —
    // and its event counters cross-checked — on every windowed witness.
    std::ostringstream Stream;
    rt::StreamingSession::Options SOpts;
    SOpts.Out = &Stream;
    SOpts.MethodName = [&Source](ir::MethodId Id) {
      return Source.Methods[Id].Name;
    };
    rt::StreamingSession Session(std::move(SOpts));

    core::RunConfig Win = Batch;
    Win.WindowTxs = WindowTxs;
    Win.Session = &Session;
    core::RunOutcome O = core::runChecker(Source, Spec, Win);
    if (O.Result.ScheduleDiverged)
      return Name + ": recorded schedule did not replay under windowing";
    if (O.Result.Aborted)
      return Name + ": windowed replay aborted" + abortCause(O.Result);

    // The retirement windows must not change *any* verdict: PCD replays
    // inline at the claim and a flush never degrades healthy work, so
    // both tiers match batch mode exactly.
    if (O.BlamedMethods != B.BlamedMethods)
      return Name + ": windowed blame differs from batch (windowed=" +
             describeSet(O.BlamedMethods) +
             " batch=" + describeSet(B.BlamedMethods) + ")";
    if (O.PotentialMethods != B.PotentialMethods)
      return Name + ": windowed potential set differs from batch (windowed=" +
             describeSet(O.PotentialMethods) +
             " batch=" + describeSet(B.PotentialMethods) + ")";
    if (O.Violations.empty() != B.Violations.empty())
      return Name + ": windowed has-records bit differs from batch";

    const char *WindowStat = M == core::Mode::VectorClock
                                 ? "vc.windows_flushed"
                                 : "governor.windows_flushed";
    if (O.stat(WindowStat) == 0)
      return Name +
             ": no retirement window flushed (window machinery inactive)";
    if (Session.violationsStreamed() != O.Violations.size())
      return Name + ": streamed " +
             std::to_string(Session.violationsStreamed()) +
             " violations but the run recorded " +
             std::to_string(O.Violations.size());
    if (Session.windowsStreamed() != O.stat(WindowStat))
      return Name + ": streamed " + std::to_string(Session.windowsStreamed()) +
             " window events but " + std::to_string(O.stat(WindowStat)) +
             " windows flushed";
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Divergence search + witness minimization
//===----------------------------------------------------------------------===//

namespace {

struct SearchBudget {
  uint32_t ExhaustiveRuns = 150;
  uint32_t PctSeeds = 16;
  uint32_t RandomSeeds = 16;
  uint32_t PreemptionBound = 2;
  uint32_t PctChangePoints = 3;
};

/// Looks for *any* divergent schedule of \p Spec: bounded-exhaustive DFS
/// first (systematic, finds shallow interleaving bugs fast on tiny
/// programs), then PCT, then uniform random.
std::optional<Divergence> searchDivergence(const ProgSpec &Spec, bool Inject,
                                           const SearchBudget &B) {
  ir::Program P = Spec.build();
  core::AtomicitySpec AS = core::AtomicitySpec::initial(P);

  auto TryTrace = [&](const oracle::RecordedTrace &T)
      -> std::optional<Divergence> {
    if (T.Result.Aborted)
      return std::nullopt;
    PairResult PR = checkPair(P, T, Inject);
    if (!PR.Divergence)
      return std::nullopt;
    Divergence D;
    D.Description = *PR.Divergence;
    D.Spec = Spec;
    D.Schedule = T.Schedule;
    D.DataAccesses = T.dataAccesses();
    return D;
  };

  rt::ExhaustiveExplorer::Options ExOpts;
  ExOpts.PreemptionBound = B.PreemptionBound;
  ExOpts.MaxRuns = B.ExhaustiveRuns;
  rt::ExhaustiveExplorer Ex(ExOpts);
  while (Ex.beginRun()) {
    rt::RunOptions RO;
    RO.Deterministic = true;
    RO.CustomScheduler = &Ex;
    RO.MaxSteps = 1ull << 20;
    oracle::RecordedTrace T = oracle::recordTrace(P, AS, RO);
    Ex.endRun();
    if (auto D = TryTrace(T))
      return D;
  }
  for (uint32_t S = 0; S < B.PctSeeds; ++S) {
    rt::RunOptions RO;
    RO.Deterministic = true;
    RO.Strategy = rt::ScheduleStrategy::Pct;
    RO.PctChangePoints = B.PctChangePoints;
    // Tiny programs run for ~40-200 admissions; sample change points over a
    // matching horizon or PCT degenerates to plain priority order.
    RO.PctExpectedSteps = 128;
    RO.ScheduleSeed = Spec.Seed * 977u + S;
    RO.MaxSteps = 1ull << 20;
    if (auto D = TryTrace(oracle::recordTrace(P, AS, RO)))
      return D;
  }
  for (uint32_t S = 0; S < B.RandomSeeds; ++S) {
    rt::RunOptions RO;
    RO.Deterministic = true;
    RO.ScheduleSeed = Spec.Seed * 1987u + S;
    RO.MaxSteps = 1ull << 20;
    if (auto D = TryTrace(oracle::recordTrace(P, AS, RO)))
      return D;
  }
  return std::nullopt;
}

} // namespace

Divergence fuzz::minimizeWitness(const Divergence &Seed, bool InjectIcdBug) {
  Divergence Best = Seed;
  ProgSpec Cur = Seed.Spec;
  SearchBudget B;

  auto Try = [&](ProgSpec Cand) {
    if (Cand.Workers.size() < 2)
      return false; // A divergence needs two conflicting threads.
    std::optional<Divergence> D = searchDivergence(Cand, InjectIcdBug, B);
    if (!D)
      return false;
    Cur = std::move(Cand);
    Best = std::move(*D);
    return true;
  };

  // Greedy single-element reductions to fixpoint: each successful step
  // restarts the scan, classic delta debugging over the generator spec
  // (reducing the spec, not the IR, keeps fork/join numbering and method
  // references valid by construction).
  bool Improved = true;
  while (Improved) {
    Improved = false;
    for (size_t W = 0; W < Cur.Workers.size() && !Improved; ++W) {
      ProgSpec C = Cur;
      C.Workers.erase(C.Workers.begin() + W);
      Improved = Try(std::move(C));
    }
    for (size_t W = 0; W < Cur.Workers.size() && !Improved; ++W)
      for (size_t I = 0; I < Cur.Workers[W].Calls.size() && !Improved; ++I) {
        ProgSpec C = Cur;
        C.Workers[W].Calls.erase(C.Workers[W].Calls.begin() + I);
        Improved = Try(std::move(C));
      }
    for (size_t M = 0; M < Cur.Methods.size() && !Improved; ++M)
      for (size_t A = 0; A < Cur.Methods[M].Body.size() && !Improved; ++A) {
        ProgSpec C = Cur;
        C.Methods[M].Body.erase(C.Methods[M].Body.begin() + A);
        Improved = Try(std::move(C));
      }
    for (size_t M = 0; M < Cur.Methods.size() && !Improved; ++M) {
      if (!Cur.Methods[M].Locked)
        continue;
      ProgSpec C = Cur;
      C.Methods[M].Locked = false;
      Improved = Try(std::move(C));
    }
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Witness files
//===----------------------------------------------------------------------===//

bool fuzz::writeWitness(const std::string &Path, const Divergence &D,
                        bool InjectIcdBug) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "# dcfuzz witness v1\n";
  std::istringstream Desc(D.Description);
  std::string Line;
  while (std::getline(Desc, Line))
    Out << "# " << Line << "\n";
  if (!D.Program) {
    Out << "# spec-seed: " << D.Spec.Seed << "\n";
    Out << "# data-accesses: " << D.DataAccesses << "\n";
  }
  Out << "# inject-icd-bug: " << (InjectIcdBug ? 1 : 0) << "\n";
  if (D.Fault.any()) {
    Out << "# fault-plan: " << D.Fault.Plan.spec() << "\n";
    if (D.Fault.MaxSccTxs != 0)
      Out << "# fault-max-scc-txs: " << D.Fault.MaxSccTxs << "\n";
    if (D.Fault.StallTimeoutMs != 0)
      Out << "# fault-timeout-ms: " << D.Fault.StallTimeoutMs << "\n";
    if (D.Fault.IcdMaxRegion != 0)
      Out << "# fault-icd-max-region: " << D.Fault.IcdMaxRegion << "\n";
    if (D.Fault.IcdSeqRetryStorm != 0)
      Out << "# fault-icd-lockfree: storm=" << D.Fault.IcdSeqRetryStorm
          << "\n";
    if (D.Fault.WindowTxs != 0)
      Out << "# fault-window-txs: " << D.Fault.WindowTxs << "\n";
    if (D.Fault.Eng == FaultCase::Engine::Vc)
      Out << "# fault-engine: vc\n";
  }
  Out << "# schedule:";
  for (uint32_t T : D.Schedule)
    Out << ' ' << T;
  Out << "\n";
  Out << ir::toString(D.Program ? *D.Program : D.Spec.build());
  return static_cast<bool>(Out);
}

bool fuzz::readWitness(const std::string &Path, Witness &W,
                       std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open " + Path;
    return false;
  }
  std::ostringstream All;
  All << In.rdbuf();
  std::string Text = All.str();

  W.Schedule.clear();
  W.InjectIcdBug = false;
  W.Fault = FaultCase();
  W.WindowTxs = 0;
  std::istringstream IS(Text);
  std::string Line;
  while (std::getline(IS, Line)) {
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] != '#')
      continue;
    std::istringstream LS(Line.substr(First + 1));
    std::string Tag;
    LS >> Tag;
    if (Tag == "schedule:") {
      uint64_t T;
      while (LS >> T)
        W.Schedule.push_back(static_cast<uint32_t>(T));
    } else if (Tag == "inject-icd-bug:") {
      int V = 0;
      LS >> V;
      W.InjectIcdBug = V != 0;
    } else if (Tag == "fault-plan:") {
      std::string Spec;
      LS >> Spec;
      std::string PlanError;
      if (!FaultPlan::parse(Spec, W.Fault.Plan, PlanError)) {
        Error = "bad '# fault-plan:' line: " + PlanError;
        return false;
      }
    } else if (Tag == "fault-max-scc-txs:") {
      LS >> W.Fault.MaxSccTxs;
    } else if (Tag == "fault-timeout-ms:") {
      LS >> W.Fault.StallTimeoutMs;
    } else if (Tag == "fault-icd-max-region:") {
      LS >> W.Fault.IcdMaxRegion;
    } else if (Tag == "fault-icd-lockfree:") {
      std::string V;
      LS >> V;
      if (V.rfind("storm=", 0) == 0) {
        W.Fault.IcdSeqRetryStorm =
            static_cast<uint32_t>(std::strtoul(V.c_str() + 6, nullptr, 10));
        if (W.Fault.IcdSeqRetryStorm == 0) {
          Error = "bad '# fault-icd-lockfree:' storm count: " + V;
          return false;
        }
      } else {
        Error = "bad '# fault-icd-lockfree:' value: " + V;
        return false;
      }
    } else if (Tag == "fault-window-txs:") {
      LS >> W.Fault.WindowTxs;
    } else if (Tag == "window-txs:") {
      LS >> W.WindowTxs;
    } else if (Tag == "fault-engine:") {
      std::string E;
      LS >> E;
      if (E == "vc")
        W.Fault.Eng = FaultCase::Engine::Vc;
      else if (E != "doublechecker") {
        Error = "bad '# fault-engine:' value: " + E;
        return false;
      }
    }
  }

  ir::ParseResult PR = ir::parseProgram(Text);
  if (!PR.Ok) {
    Error = "parse error at line " + std::to_string(PR.ErrorLine) + ": " +
            PR.Error;
    return false;
  }
  if (W.Schedule.empty()) {
    Error = "witness has no '# schedule:' line";
    return false;
  }
  W.P = std::move(PR.P);
  return true;
}

std::optional<std::string> fuzz::replayWitness(const Witness &W) {
  core::AtomicitySpec AS = core::AtomicitySpec::initial(W.P);
  rt::RunOptions RO = replayOpts(W.Schedule);
  oracle::RecordedTrace T = oracle::recordTrace(W.P, AS, RO);
  if (T.Result.ScheduleDiverged)
    return std::string(
        "witness schedule does not cover this program's execution");
  if (T.Result.Aborted)
    return std::string("witness replay aborted");
  if (W.Fault.any())
    return checkFaultCase(W.P, T, W.Fault);
  if (auto D = checkPair(W.P, T, W.InjectIcdBug).Divergence)
    return D;
  if (W.WindowTxs != 0)
    return checkWindowedPair(W.P, T, W.WindowTxs);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Per-pair wall timeout
//===----------------------------------------------------------------------===//

double fuzz::defaultPairTimeoutSeconds() {
  constexpr unsigned StallBudgets = 4;
  return StallBudgets * analysis::DoubleCheckerOptions().StallTimeoutMs /
         1000.0;
}

PairWatch::PairWatch(double TimeoutSeconds, std::string WitnessPath)
    : TimeoutSeconds(TimeoutSeconds), WitnessPath(std::move(WitnessPath)) {
  Worker = std::thread([this] { run(); });
}

PairWatch::~PairWatch() {
  {
    std::lock_guard<std::mutex> L(M);
    Stop = true;
  }
  CV.notify_all();
  Worker.join();
}

void PairWatch::arm(Divergence P, bool Inject) {
  {
    std::lock_guard<std::mutex> L(M);
    Pair = std::move(P);
    InjectIcdBug = Inject;
    Armed = true;
    ++Generation;
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(TimeoutSeconds));
  }
  CV.notify_all();
}

void PairWatch::setFault(const FaultCase &Case) {
  std::lock_guard<std::mutex> L(M);
  Pair.Fault = Case;
}

void PairWatch::disarm() {
  std::lock_guard<std::mutex> L(M);
  Armed = false;
}

void PairWatch::run() {
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    CV.wait(L, [this] { return Stop || Armed; });
    if (Stop)
      return;
    const uint64_t Gen = Generation;
    if (CV.wait_until(L, Deadline, [&] {
          return Stop || !Armed || Generation != Gen;
        }))
      continue;
    // Still the same armed pair past its deadline: the replay is wedged.
    // Dump it and terminate — the wedged threads cannot be unwound.
    Pair.Description = "pair timeout: the pair ran longer than " +
                       std::to_string(TimeoutSeconds) +
                       " s (wedged or livelocked replay)" +
                       (Pair.Fault.any() ? " under " + Pair.Fault.name() : "");
    const bool Written = writeWitness(WitnessPath, Pair, InjectIcdBug);
    std::fflush(stdout);
    std::fprintf(stderr, "dcfuzz: %s\n", Pair.Description.c_str());
    if (Written)
      std::fprintf(stderr,
                   "dcfuzz: witness written to %s (replay with: dcfuzz "
                   "--replay %s)\n",
                   WitnessPath.c_str(), WitnessPath.c_str());
    else
      std::fprintf(stderr, "dcfuzz: cannot write %s\n", WitnessPath.c_str());
    std::fflush(stderr);
    std::_Exit(ExitPairTimeout);
  }
}

//===----------------------------------------------------------------------===//
// Campaign driver
//===----------------------------------------------------------------------===//

FuzzReport fuzz::runFuzz(const FuzzOptions &O) {
  using Clock = std::chrono::steady_clock;
  const auto Start = Clock::now();
  FuzzReport Report;

  auto Elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  };
  auto OutOfBudget = [&] {
    if (Report.Pairs >= O.MaxPairs)
      return true;
    return O.BudgetSeconds > 0 && Elapsed() >= O.BudgetSeconds;
  };
  auto Progress = [&] {
    if (O.ProgressEvery && Report.Pairs && Report.Pairs % O.ProgressEvery == 0)
      std::fprintf(stderr,
                   "dcfuzz: %llu pairs (%llu programs, %llu oracle "
                   "violations) in %.1fs\n",
                   static_cast<unsigned long long>(Report.Pairs),
                   static_cast<unsigned long long>(Report.Programs),
                   static_cast<unsigned long long>(Report.OracleViolations),
                   Elapsed());
  };

  for (uint64_t PI = 0; !OutOfBudget() && !Report.Div; ++PI) {
    ProgSpec Spec = randomSpec(O.Seed + PI);
    ir::Program P = Spec.build();
    core::AtomicitySpec AS = core::AtomicitySpec::initial(P);
    ++Report.Programs;

    auto TryTrace = [&](const oracle::RecordedTrace &T, uint64_t &Counter) {
      if (T.Result.Aborted)
        return;
      if (O.Watch) {
        Divergence Pending;
        Pending.Spec = Spec;
        Pending.Schedule = T.Schedule;
        Pending.DataAccesses = T.dataAccesses();
        O.Watch->arm(std::move(Pending), O.InjectIcdBug);
      }
      PairResult PR = checkPair(P, T, O.InjectIcdBug);
      ++Report.Pairs;
      ++Counter;
      Report.OracleViolations += PR.OracleViolation;
      if (PR.Divergence) {
        Divergence D;
        D.Description = *PR.Divergence;
        D.Spec = Spec;
        D.Schedule = T.Schedule;
        D.DataAccesses = T.dataAccesses();
        Report.Div = std::move(D);
      } else if (O.FaultSweep) {
        // The matrix agrees on this pair: sweep the fault plans over it,
        // checking that degradation stays sound under every injection.
        for (const FaultCase &Case : faultSweepCases()) {
          ++Report.FaultPlansRun;
          if (O.Watch)
            O.Watch->setFault(Case);
          std::optional<std::string> FD = checkFaultCase(P, T, Case);
          if (!FD)
            continue;
          Divergence D;
          D.Description = *FD;
          D.Spec = Spec;
          D.Schedule = T.Schedule;
          D.DataAccesses = T.dataAccesses();
          D.Fault = Case;
          Report.Div = std::move(D);
          break;
        }
      }
      if (O.Watch)
        O.Watch->disarm();
      Progress();
    };

    const bool WantSeeded = O.Strat != FuzzOptions::Strategy::Exhaustive;
    const bool WantExhaustive = O.Strat == FuzzOptions::Strategy::Exhaustive ||
                                O.Strat == FuzzOptions::Strategy::Mixed;

    if (WantSeeded)
      for (uint32_t S = 0;
           S < O.SchedulesPerProgram && !OutOfBudget() && !Report.Div; ++S) {
        bool UsePct = O.Strat == FuzzOptions::Strategy::Pct ||
                      (O.Strat == FuzzOptions::Strategy::Mixed && S % 2 == 0);
        rt::RunOptions RO;
        RO.Deterministic = true;
        RO.ScheduleSeed = (O.Seed + PI) * 0x9E3779B9u + S * 2654435761u + 1;
        RO.MaxSteps = 1ull << 20;
        if (UsePct) {
          RO.Strategy = rt::ScheduleStrategy::Pct;
          RO.PctChangePoints = O.PctChangePoints;
          RO.PctExpectedSteps = 128; // Matches the tiny generated programs.
        }
        TryTrace(oracle::recordTrace(P, AS, RO),
                 UsePct ? Report.PctPairs : Report.RandomPairs);
      }

    if (WantExhaustive && !OutOfBudget() && !Report.Div) {
      rt::ExhaustiveExplorer::Options ExOpts;
      ExOpts.PreemptionBound = O.PreemptionBound;
      ExOpts.MaxRuns = O.ExhaustiveRunsPerProgram;
      rt::ExhaustiveExplorer Ex(ExOpts);
      while (Ex.beginRun()) {
        rt::RunOptions RO;
        RO.Deterministic = true;
        RO.CustomScheduler = &Ex;
        RO.MaxSteps = 1ull << 20;
        oracle::RecordedTrace T = oracle::recordTrace(P, AS, RO);
        Ex.endRun();
        TryTrace(T, Report.ExhaustivePairs);
        if (OutOfBudget() || Report.Div)
          break;
      }
    }
  }

  // Fault-sweep divergences are not minimized: the minimizer re-searches
  // through the config matrix, which would lose the fault case. The
  // witness carries the full fault configuration instead.
  if (Report.Div && O.Minimize && !Report.Div->Fault.any())
    Report.Div = minimizeWitness(*Report.Div, O.InjectIcdBug);
  Report.Seconds = Elapsed();
  return Report;
}
