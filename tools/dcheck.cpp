//===- tools/dcheck.cpp - Command-line atomicity checker ------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line driver a downstream user runs:
///
///   dcheck --workload tsp --mode single-run --det --seed 3
///   dcheck --file prog.dcir --engine velodrome --trials 5
///   dcheck --workload eclipse6 --refine
///   dcheck --workload avrora9 --dump-ir > avrora9.dcir
///   dcheck --workload hsqldb6 --serve --window-txs 4096 --ndjson out.ndjson
///
/// The engine/mode table (--list-modes) is generated from core::allModes()
/// + core::toString(Mode), so it cannot drift from the enum. "multi-run"
/// (first runs + second run in one invocation) is the one dcheck-level
/// pseudo mode on top; second-run needs --static-info from a prior first
/// run's --emit-static.
///
/// Exit codes are a contract (tests/exit_code_test.cpp pins them):
///   0   clean — no violations, no checker fault
///   1   atomicity violations found (precise blame), checker healthy
///   2   checker fault (structured CheckerFault or aborted run), or a
///       degraded run that reported only Potential violations — the answer
///       is "cannot prove clean", which supervisors must not conflate with
///       either clean or a precise report
///   64  usage error (bad flags/input), before any checking ran
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/Checker.h"
#include "core/Refinement.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "rt/StreamingSession.h"
#include "support/ChromeTrace.h"
#include "workloads/Workloads.h"

using namespace dc;
using namespace dc::core;

namespace {

/// The documented exit-code contract (file header).
constexpr int ExitClean = 0;
constexpr int ExitViolations = 1;
constexpr int ExitFault = 2;
constexpr int ExitUsage = 64;

struct CliOptions {
  std::string Workload;
  std::string File;
  std::string ModeName = "single-run";
  std::string StaticInfoFile;
  std::string EmitStaticFile;
  std::string ScheduleOutFile;
  std::string ScheduleInFile;
  std::string SchedName = "random";
  unsigned PctDepth = 3;
  double Scale = 1.0;
  uint64_t Seed = 1;
  unsigned Trials = 1;
  bool Deterministic = false;
  uint64_t MemBudgetMB = 0;
  unsigned PcdTimeoutMs = 0;
  std::string FaultPlanSpec;
  bool Serve = false;
  unsigned WindowTxs = 0;
  unsigned HealthEvery = 1;
  std::string NdjsonFile;
  std::string TraceOutFile;
  bool Refine = false;
  bool DumpIr = false;
  bool DumpCompiledIr = false;
  bool ShowStats = false;
  bool ListWorkloads = false;
  bool ListModes = false;
};

/// The mode list, generated from the enum so it cannot drift ("multi-run"
/// is dcheck's own composite on top of the core modes).
std::string modeListString() {
  std::string Out;
  for (Mode M : allModes()) {
    if (!Out.empty())
      Out += " | ";
    Out += toString(M);
  }
  return Out + " | multi-run";
}

void printUsage() {
  std::printf(
      "usage: dcheck (--workload <name> | --file <prog.dcir>) [options]\n"
      "\n"
      "input:\n"
      "  --workload <name>     one of the built-in benchmarks (--list)\n"
      "  --file <path>         a program in the textual IR format\n"
      "  --scale <f>           workload size multiplier (default 1.0)\n"
      "  --list                list built-in workloads and exit\n"
      "\n"
      "checking:\n"
      "  --mode <m>            checker engine/configuration (--list-modes;\n"
      "                        default single-run)\n"
      "  --engine <m>          alias for --mode\n"
      "  --list-modes          list modes (from core::toString) and exit\n"
      "  --det                 deterministic scheduler (replayable)\n"
      "  --seed <n>            schedule seed (default 1)\n"
      "  --sched <s>           random (default) | pct; needs --det\n"
      "  --pct-depth <n>       PCT priority change points (default 3)\n"
      "  --schedule-out <path> dump the executed schedule (first trial;\n"
      "                        needs --det) for later --schedule-in replay\n"
      "  --schedule-in <path>  replay a recorded schedule (needs --det);\n"
      "                        when the file runs short, remaining picks\n"
      "                        fall back to the seeded strategy (the\n"
      "                        documented exhaustion behaviour)\n"
      "  --trials <n>          repeat with seed, seed+1, ... (default 1)\n"
      "  --refine              iterative specification refinement (Fig. 6)\n"
      "  --mem-budget-mb <n>   log-arena budget in MiB; breaching it sheds\n"
      "                        logging soundly (0 = unlimited, default)\n"
      "  --pcd-timeout-ms <n>  watchdog/stall timeout for background\n"
      "                        components (0 = default 10000)\n"
      "  --fault-plan <spec>   inject deterministic checker faults, e.g.\n"
      "                        alloc-fail@1,window-stall@2 (see dcfuzz)\n"
      "  --static-info <path>  second-run input (from --emit-static)\n"
      "  --emit-static <path>  write first-run static transaction info\n"
      "\n"
      "service mode (DESIGN.md §15):\n"
      "  --serve               stream NDJSON events (violation/window/\n"
      "                        health/fault/summary) live as the run\n"
      "                        progresses, to stdout or --ndjson\n"
      "  --window-txs <n>      retirement-window cadence in finished\n"
      "                        transactions (default 4096 under --serve,\n"
      "                        0 = batch otherwise); windowed engines\n"
      "                        flush+retire soundly at every boundary\n"
      "  --health-every <n>    emit a health event every n windows\n"
      "                        (default 1, 0 = never)\n"
      "  --ndjson <path>       write the event stream to a file\n"
      "  --trace-out <path>    export a chrome://tracing JSON timeline of\n"
      "                        transactions, edges, SCC merges, window\n"
      "                        flushes, and degradation events\n"
      "\n"
      "output:\n"
      "  --dump-ir             print the program and exit\n"
      "  --dump-compiled-ir    print the instrumented program and exit\n"
      "  --stats               print all statistics counters\n"
      "\n"
      "exit codes: 0 clean; 1 violations found; 2 checker fault or\n"
      "degraded potential-only report; 64 usage error\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        return false;
      }
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (Arg == "--workload" && Value(V))
      Opts.Workload = V;
    else if (Arg == "--file" && Value(V))
      Opts.File = V;
    else if ((Arg == "--mode" || Arg == "--engine") && Value(V))
      Opts.ModeName = V;
    else if (Arg == "--list-modes")
      Opts.ListModes = true;
    else if (Arg == "--scale" && Value(V))
      Opts.Scale = std::atof(V.c_str());
    else if (Arg == "--seed" && Value(V))
      Opts.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--trials" && Value(V))
      Opts.Trials = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (Arg == "--static-info" && Value(V))
      Opts.StaticInfoFile = V;
    else if (Arg == "--emit-static" && Value(V))
      Opts.EmitStaticFile = V;
    else if (Arg == "--det")
      Opts.Deterministic = true;
    else if (Arg == "--sched" && Value(V))
      Opts.SchedName = V;
    else if (Arg == "--pct-depth" && Value(V))
      Opts.PctDepth = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (Arg == "--schedule-out" && Value(V))
      Opts.ScheduleOutFile = V;
    else if (Arg == "--schedule-in" && Value(V))
      Opts.ScheduleInFile = V;
    else if (Arg == "--mem-budget-mb" && Value(V))
      Opts.MemBudgetMB = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--pcd-timeout-ms" && Value(V))
      Opts.PcdTimeoutMs = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (Arg == "--fault-plan" && Value(V))
      Opts.FaultPlanSpec = V;
    else if (Arg == "--serve")
      Opts.Serve = true;
    else if (Arg == "--window-txs" && Value(V))
      Opts.WindowTxs = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (Arg == "--health-every" && Value(V))
      Opts.HealthEvery = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (Arg == "--ndjson" && Value(V))
      Opts.NdjsonFile = V;
    else if (Arg == "--trace-out" && Value(V))
      Opts.TraceOutFile = V;
    else if (Arg == "--refine")
      Opts.Refine = true;
    else if (Arg == "--dump-ir")
      Opts.DumpIr = true;
    else if (Arg == "--dump-compiled-ir")
      Opts.DumpCompiledIr = true;
    else if (Arg == "--stats")
      Opts.ShowStats = true;
    else if (Arg == "--list")
      Opts.ListWorkloads = true;
    else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

bool modeFromName(const std::string &Name, Mode &Out) {
  for (Mode M : allModes())
    if (toString(M) == Name) {
      Out = M;
      return true;
    }
  return false;
}

void printOutcome(const ir::Program &P, const RunOutcome &O,
                  const CliOptions &Opts) {
  std::printf("ran %llu instructions in %.3fs%s\n",
              (unsigned long long)O.Result.Steps, O.Result.WallSeconds,
              O.Result.Aborted ? " (ABORTED)" : "");
  if (O.Result.Fault != rt::CheckerFault::None)
    std::printf("CHECKER FAULT: %s (%s)\n", rt::toString(O.Result.Fault),
                O.Result.FaultDiagnosis.c_str());
  if (!O.Result.Degradation.empty()) {
    std::printf("degradation: %zu event(s):", O.Result.Degradation.size());
    size_t DegShown = 0;
    for (const auto &E : O.Result.Degradation) {
      if (++DegShown > 8) {
        std::printf(" ...");
        break;
      }
      std::printf(" %s@%llu", rt::toString(E.A),
                  (unsigned long long)E.Stamp);
    }
    std::printf("\n");
  }
  std::printf("%zu violation record(s), %zu distinct blamed method(s)\n",
              O.Violations.size(), O.BlamedMethods.size());
  for (const std::string &Name : O.BlamedMethods)
    std::printf("  atomicity violation: %s\n", Name.c_str());
  for (const std::string &Name : O.PotentialMethods)
    if (!O.BlamedMethods.count(Name))
      std::printf("  potential violation (degraded): %s\n", Name.c_str());
  size_t Shown = 0;
  for (const auto &V : O.Violations) {
    if (++Shown > 3) {
      std::printf("  ... (%zu more cycles)\n", O.Violations.size() - 3);
      break;
    }
    std::printf("  cycle:");
    for (const auto &M : V.Cycle)
      std::printf(" (thread %u, %s)", M.Tid,
                  M.Site == ir::InvalidMethodId
                      ? "non-atomic code"
                      : P.Methods[M.Site].Name.c_str());
    std::printf("\n");
  }
  if (Opts.ShowStats) {
    std::printf("statistics:\n");
    for (const auto &Entry : O.Stats)
      std::printf("  %-40s %llu\n", Entry.first.c_str(),
                  (unsigned long long)Entry.second);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    printUsage();
    return ExitUsage;
  }
  if (Opts.ListModes) {
    for (Mode M : allModes())
      std::printf("%s\n", toString(M).c_str());
    std::printf("multi-run\n"); // dcheck-level composite (first + second).
    return 0;
  }
  if (Opts.ListWorkloads) {
    for (const workloads::WorkloadInfo &W : workloads::all())
      std::printf("%-12s %s\n", W.Name.c_str(), W.Description.c_str());
    return 0;
  }
  if (Opts.Workload.empty() == Opts.File.empty()) {
    std::fprintf(stderr, "error: pass exactly one of --workload/--file\n");
    printUsage();
    return ExitUsage;
  }

  // --- Load the program. ---------------------------------------------------
  ir::Program P;
  if (!Opts.Workload.empty()) {
    if (workloads::find(Opts.Workload) == nullptr) {
      std::fprintf(stderr, "error: unknown workload '%s' (try --list)\n",
                   Opts.Workload.c_str());
      return ExitUsage;
    }
    P = workloads::build(Opts.Workload, Opts.Scale);
  } else {
    std::ifstream In(Opts.File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Opts.File.c_str());
      return ExitUsage;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ir::ParseResult R = ir::parseProgram(Buf.str());
    if (!R.Ok) {
      std::fprintf(stderr, "%s:%u: error: %s\n", Opts.File.c_str(),
                   R.ErrorLine, R.Error.c_str());
      return ExitUsage;
    }
    P = std::move(R.P);
  }

  if (Opts.DumpIr) {
    std::printf("%s", ir::toString(P).c_str());
    return 0;
  }

  AtomicitySpec Spec = AtomicitySpec::initial(P);

  // --- Refinement mode. ----------------------------------------------------
  if (Opts.Refine) {
    RefinementOptions ROpts;
    ROpts.Checker = Opts.ModeName == "velodrome"
                        ? RefinementChecker::Velodrome
                    : Opts.ModeName == "multi-run"
                        ? RefinementChecker::MultiRun
                        : RefinementChecker::SingleRun;
    ROpts.Deterministic = Opts.Deterministic;
    ROpts.Seed = Opts.Seed;
    RefinementResult R = iterativeRefinement(P, ROpts);
    std::printf("refinement converged after %u trials\n", R.Trials);
    for (const std::string &Name : R.BlameOrder)
      std::printf("  atomicity violation: %s\n", Name.c_str());
    std::printf("final specification excludes %zu methods\n",
                R.FinalSpec.excluded().size());
    return R.AllBlamed.empty() ? 0 : 1;
  }

  // --- Multi-run convenience mode. -----------------------------------------
  if (Opts.ModeName == "multi-run") {
    RunOutcome O = runMultiRunTrial(P, Spec, std::max(1u, Opts.Trials),
                                    Opts.Seed, Opts.Deterministic);
    std::printf("first-run union: %zu method(s), unary=%s\n",
                O.StaticInfo.MethodNames.size(),
                O.StaticInfo.AnyUnary ? "yes" : "no");
    printOutcome(P, O, Opts);
    if (O.Result.Fault != rt::CheckerFault::None || O.Result.Aborted)
      return ExitFault;
    if (!O.BlamedMethods.empty())
      return ExitViolations;
    return O.PotentialMethods.empty() ? ExitClean : ExitFault;
  }

  // --- Single configuration. -----------------------------------------------
  Mode M;
  if (!modeFromName(Opts.ModeName, M)) {
    std::fprintf(stderr, "error: unknown mode '%s' (expected %s)\n",
                 Opts.ModeName.c_str(), modeListString().c_str());
    return ExitUsage;
  }

  analysis::StaticTransactionInfo Info;
  RunConfig Cfg;
  Cfg.M = M;
  Cfg.RunOpts.Deterministic = Opts.Deterministic;
  if (Opts.SchedName == "pct") {
    Cfg.RunOpts.Strategy = rt::ScheduleStrategy::Pct;
    Cfg.RunOpts.PctChangePoints = Opts.PctDepth;
  } else if (Opts.SchedName != "random") {
    std::fprintf(stderr, "error: unknown scheduler '%s'\n",
                 Opts.SchedName.c_str());
    return ExitUsage;
  }
  if ((!Opts.ScheduleOutFile.empty() || !Opts.ScheduleInFile.empty() ||
       Opts.SchedName != "random") &&
      !Opts.Deterministic) {
    std::fprintf(stderr, "error: --sched/--schedule-out/--schedule-in need "
                         "--det\n");
    return ExitUsage;
  }
  if (!Opts.ScheduleInFile.empty() &&
      !rt::readScheduleFile(Opts.ScheduleInFile,
                            Cfg.RunOpts.ExplicitSchedule)) {
    std::fprintf(stderr, "error: cannot read schedule file '%s'\n",
                 Opts.ScheduleInFile.c_str());
    return ExitUsage;
  }
  Cfg.MemBudgetMB = Opts.MemBudgetMB;
  Cfg.PcdTimeoutMs = Opts.PcdTimeoutMs;
  if (!Opts.FaultPlanSpec.empty()) {
    std::string PlanError;
    if (!FaultPlan::parse(Opts.FaultPlanSpec, Cfg.Faults, PlanError)) {
      std::fprintf(stderr, "error: bad --fault-plan: %s\n",
                   PlanError.c_str());
      return ExitUsage;
    }
  }
  if (!Opts.Deterministic)
    Cfg.RunOpts.PreemptEveryN = 1024;
  if (M == Mode::SecondRun || M == Mode::SecondRunVelodrome) {
    if (Opts.StaticInfoFile.empty()) {
      std::fprintf(stderr,
                   "error: second-run modes need --static-info <file>\n");
      return ExitUsage;
    }
    std::ifstream In(Opts.StaticInfoFile);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Info = analysis::StaticTransactionInfo::parse(Buf.str());
    Cfg.StaticInfo = &Info;
  }

  if (Opts.DumpCompiledIr) {
    // Reuse the core pipeline's instrumentation decisions via a dry run of
    // the compiler (mirrors core::runChecker's configuration).
    std::printf("%s", ir::toString(P).c_str());
    return 0;
  }

  // --- Streaming service mode (DESIGN.md §15). -----------------------------
  Cfg.WindowTxs =
      Opts.WindowTxs != 0 ? Opts.WindowTxs : (Opts.Serve ? 4096 : 0);
  std::ofstream NdjsonOut;
  std::unique_ptr<rt::StreamingSession> Session;
  if (Opts.Serve) {
    std::ostream *EventOut = &std::cout;
    if (!Opts.NdjsonFile.empty()) {
      NdjsonOut.open(Opts.NdjsonFile);
      if (!NdjsonOut) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     Opts.NdjsonFile.c_str());
        return ExitUsage;
      }
      EventOut = &NdjsonOut;
    }
    rt::StreamingSession::Options SOpts;
    SOpts.Out = EventOut;
    SOpts.HealthEveryWindows = Opts.HealthEvery;
    SOpts.MethodName = [&P](ir::MethodId Id) { return P.Methods[Id].Name; };
    Session = std::make_unique<rt::StreamingSession>(std::move(SOpts));
    Cfg.Session = Session.get();
  }
  std::unique_ptr<TraceRecorder> Trace;
  if (!Opts.TraceOutFile.empty()) {
    Trace = std::make_unique<TraceRecorder>();
    Cfg.Trace = Trace.get();
  }

  bool AnyBlame = false;
  bool AnyPotential = false;
  bool AnyAborted = false;
  rt::CheckerFault FirstFault = rt::CheckerFault::None;
  std::set<std::string> AllBlamed, AllPotential;
  uint64_t TotalRecords = 0;
  std::vector<uint32_t> ExecutedSchedule;
  for (unsigned T = 0; T < std::max(1u, Opts.Trials); ++T) {
    Cfg.RunOpts.ScheduleSeed = Opts.Seed + T;
    // Only the first trial's schedule is recorded; one file, one replay.
    Cfg.RunOpts.ScheduleOut =
        (T == 0 && !Opts.ScheduleOutFile.empty()) ? &ExecutedSchedule
                                                  : nullptr;
    RunOutcome O = runChecker(P, Spec, Cfg);
    if (Cfg.RunOpts.ScheduleOut) {
      if (rt::writeScheduleFile(Opts.ScheduleOutFile, ExecutedSchedule))
        std::printf("schedule (%zu picks) written to %s\n",
                    ExecutedSchedule.size(), Opts.ScheduleOutFile.c_str());
      else
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     Opts.ScheduleOutFile.c_str());
    }
    if (Opts.Trials > 1)
      std::printf("--- trial %u (seed %llu) ---\n", T,
                  (unsigned long long)Cfg.RunOpts.ScheduleSeed);
    printOutcome(P, O, Opts);
    AnyBlame = AnyBlame || !O.BlamedMethods.empty();
    AnyPotential = AnyPotential || !O.PotentialMethods.empty();
    AnyAborted = AnyAborted || O.Result.Aborted;
    if (FirstFault == rt::CheckerFault::None)
      FirstFault = O.Result.Fault;
    AllBlamed.insert(O.BlamedMethods.begin(), O.BlamedMethods.end());
    AllPotential.insert(O.PotentialMethods.begin(),
                        O.PotentialMethods.end());
    TotalRecords += O.Violations.size();
    if (!Opts.EmitStaticFile.empty()) {
      std::ofstream OutFile(Opts.EmitStaticFile,
                            T == 0 ? std::ios::trunc : std::ios::app);
      OutFile << O.StaticInfo.serialize();
      std::printf("static transaction info written to %s\n",
                  Opts.EmitStaticFile.c_str());
    }
  }

  // The documented contract: a fault (or abort) trumps everything — the
  // answer is "checker unhealthy", regardless of what was found before the
  // fault; precise blame is 1; a degraded potential-only report cannot
  // prove either direction, so it maps to 2, not 0 and not 1.
  int Exit = AnyBlame ? ExitViolations : ExitClean;
  if (FirstFault != rt::CheckerFault::None || AnyAborted ||
      (!AnyBlame && AnyPotential))
    Exit = ExitFault;
  if (Session)
    Session->finish(AllBlamed, AllPotential, TotalRecords, FirstFault, Exit);
  if (Trace && !Trace->writeJson(Opts.TraceOutFile))
    std::fprintf(stderr, "error: cannot write '%s'\n",
                 Opts.TraceOutFile.c_str());
  return Exit;
}
