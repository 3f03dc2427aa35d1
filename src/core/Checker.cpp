//===- core/Checker.cpp ---------------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include <cassert>
#include <memory>

#include "analysis/DoubleChecker.h"
#include "instr/Instrument.h"
#include "rt/StreamingSession.h"
#include "support/ChromeTrace.h"
#include "support/Statistic.h"
#include "vc/VectorClockChecker.h"
#include "velodrome/Velodrome.h"

using namespace dc;
using namespace dc::core;

std::string core::toString(Mode M) {
  switch (M) {
  case Mode::Unmodified:
    return "unmodified";
  case Mode::Velodrome:
    return "velodrome";
  case Mode::VelodromeUnsound:
    return "velodrome-unsound";
  case Mode::SingleRun:
    return "single-run";
  case Mode::FirstRun:
    return "first-run";
  case Mode::SecondRun:
    return "second-run";
  case Mode::SecondRunVelodrome:
    return "second-run-velodrome";
  case Mode::PcdOnly:
    return "pcd-only";
  case Mode::VectorClock:
    return "vc";
  }
  return "?";
}

const std::vector<Mode> &core::allModes() {
  static const std::vector<Mode> Modes = {
      Mode::Unmodified, Mode::Velodrome,          Mode::VelodromeUnsound,
      Mode::SingleRun,  Mode::FirstRun,           Mode::SecondRun,
      Mode::SecondRunVelodrome, Mode::PcdOnly,    Mode::VectorClock,
  };
  return Modes;
}

static instr::InstrumentationOptions
instrOptionsFor(const RunConfig &Cfg) {
  instr::InstrumentationOptions Opts;
  Opts.InstrumentArrays = Cfg.InstrumentArrays;
  Opts.ForceInstrumentUnary = Cfg.ForceInstrumentUnary;
  switch (Cfg.M) {
  case Mode::Unmodified:
    Opts.Checker = instr::CheckerKind::None;
    Opts.LogAccesses = false;
    break;
  case Mode::Velodrome:
  case Mode::VelodromeUnsound:
  case Mode::VectorClock:
    // The VC engine consumes the exact same barrier placement as Velodrome
    // (per-field metadata, no access log), so their compiled programs — and
    // therefore recorded schedules — are interchangeable.
    Opts.Checker = instr::CheckerKind::Velodrome;
    Opts.LogAccesses = false;
    break;
  case Mode::SingleRun:
  case Mode::PcdOnly:
    Opts.Checker = instr::CheckerKind::Octet;
    Opts.LogAccesses = true;
    break;
  case Mode::FirstRun:
    Opts.Checker = instr::CheckerKind::Octet;
    Opts.LogAccesses = false;
    break;
  case Mode::SecondRun:
    Opts.Checker = instr::CheckerKind::Octet;
    Opts.LogAccesses = true;
    Opts.Selective = Cfg.StaticInfo;
    break;
  case Mode::SecondRunVelodrome:
    Opts.Checker = instr::CheckerKind::Velodrome;
    Opts.LogAccesses = false;
    Opts.Selective = Cfg.StaticInfo;
    break;
  }
  return Opts;
}

RunOutcome core::runChecker(const ir::Program &Source,
                            const AtomicitySpec &Spec, const RunConfig &Cfg) {
  assert((Cfg.M != Mode::SecondRun && Cfg.M != Mode::SecondRunVelodrome) ||
         Cfg.StaticInfo != nullptr &&
             "second-run modes need first-run static info");

  RunOutcome Outcome;
  if (Cfg.M == Mode::Unmodified) {
    rt::Runtime RT(Source, nullptr, Cfg.RunOpts);
    Outcome.Result = RT.run();
    return Outcome;
  }

  ir::Program Compiled =
      instr::compile(Source, Spec.excluded(), instrOptionsFor(Cfg));

  StatisticRegistry Stats;
  analysis::ViolationLog Violations;
  // Stream verdicts live: the sink runs under the log's lock as each record
  // is confirmed, so the NDJSON feed's order is the report order.
  if (Cfg.Session != nullptr)
    Violations.setSink([S = Cfg.Session](const analysis::ViolationRecord &R) {
      S->onViolation(R);
    });
  std::unique_ptr<rt::CheckerRuntime> Checker;
  analysis::DoubleCheckerRuntime *DC = nullptr;

  switch (Cfg.M) {
  case Mode::Velodrome:
  case Mode::VelodromeUnsound:
  case Mode::SecondRunVelodrome: {
    velodrome::VelodromeOptions VOpts;
    VOpts.UnsoundMetadataFastPath = Cfg.M == Mode::VelodromeUnsound;
    VOpts.DetectCycles = Cfg.DetectCycles;
    Checker = std::make_unique<velodrome::VelodromeRuntime>(
        Compiled, VOpts, Violations, Stats);
    break;
  }
  case Mode::SingleRun:
  case Mode::FirstRun:
  case Mode::SecondRun:
  case Mode::PcdOnly: {
    analysis::DoubleCheckerOptions DOpts;
    DOpts.LogAccesses = Cfg.M != Mode::FirstRun;
    DOpts.RunPcd =
        (Cfg.M == Mode::SingleRun || Cfg.M == Mode::SecondRun) &&
        Cfg.DetectCycles;
    DOpts.DetectIcdCycles = Cfg.DetectCycles;
    if (Cfg.IcdMaxRegion != 0)
      DOpts.IcdMaxRegion = Cfg.IcdMaxRegion;
    DOpts.IcdSeqRetryStorm = Cfg.IcdSeqRetryStorm;
    DOpts.ElideDuplicates = Cfg.ElideDuplicates;
    DOpts.TestOnlyUnsoundFilter = Cfg.TestOnlyUnsoundIcdFilter;
    DOpts.PcdOnly = Cfg.M == Mode::PcdOnly;
    DOpts.Faults = Cfg.Faults;
    DOpts.MaxLogBytes = Cfg.MemBudgetMB << 20;
    DOpts.MaxLiveTxs = Cfg.MaxLiveTxs;
    if (Cfg.PcdTimeoutMs != 0)
      DOpts.PcdStallTimeoutMs = Cfg.PcdTimeoutMs;
    if (Cfg.MaxSccTxs != 0)
      DOpts.MaxSccTxsForPcd = Cfg.MaxSccTxs;
    DOpts.WindowTxs = Cfg.WindowTxs;
    DOpts.Trace = Cfg.Trace;
    if (Cfg.Session != nullptr) {
      DOpts.WindowHook = [S = Cfg.Session](const rt::HealthSnapshot &H) {
        S->onWindow(H);
      };
      DOpts.FaultHook = [S = Cfg.Session](rt::CheckerFault F,
                                          const std::string &Diagnosis) {
        S->onFault(F, Diagnosis);
      };
    }
    auto Owned = std::make_unique<analysis::DoubleCheckerRuntime>(
        Compiled, DOpts, Violations, Stats);
    DC = Owned.get();
    Checker = std::move(Owned);
    break;
  }
  case Mode::VectorClock: {
    vc::VectorClockOptions VcOpts;
    VcOpts.DetectCycles = Cfg.DetectCycles;
    if (Cfg.VcCollectEveryTx != 0)
      VcOpts.CollectEveryTx = Cfg.VcCollectEveryTx;
    VcOpts.Faults = Cfg.Faults;
    VcOpts.WindowTxs = Cfg.WindowTxs;
    if (Cfg.Session != nullptr)
      VcOpts.WindowHook = [S = Cfg.Session](const rt::HealthSnapshot &H) {
        S->onWindow(H);
      };
    Checker = std::make_unique<vc::VectorClockRuntime>(Compiled, VcOpts,
                                                       Violations, Stats);
    break;
  }
  case Mode::Unmodified:
    break; // Handled above.
  }

  rt::Runtime RT(Compiled, Checker.get(), Cfg.RunOpts);
  Outcome.Result = RT.run();

  Outcome.Violations = Violations.records();
  for (ir::MethodId Site : Violations.blamedMethods())
    Outcome.BlamedMethods.insert(Source.Methods[Site].Name);
  for (ir::MethodId Site : Violations.potentialMethods())
    Outcome.PotentialMethods.insert(Source.Methods[Site].Name);
  if (DC != nullptr)
    Outcome.StaticInfo = DC->staticInfo();
  for (const Statistic *S : Stats.all())
    Outcome.Stats[S->name()] = S->get();
  return Outcome;
}
