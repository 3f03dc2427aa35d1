//===- tools/dcsoak.cpp - Streaming service-mode soak harness -------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-haul prover for streaming service mode (DESIGN.md §15): churn
/// generated programs through the windowed engines for a wall-clock or
/// iteration budget, layering deterministic FaultPlan injections over the
/// retirement windows, and assert the service-mode contract end to end:
///
///   * bounded memory — RSS sampled every iteration; the second half of the
///     soak must not grow past the first half (plus slack), i.e. windowed
///     retirement actually retires;
///   * zero missed seeded violations — every trace the ground-truth oracle
///     proves non-serializable is reported by the streamed run (precisely
///     or as a sound Potential), across every window boundary;
///   * batch-vs-streaming verdict equality — same blamed set, same
///     potential set, same has-records bit as the unwindowed run on the
///     same recorded schedule, for both windowed engines;
///   * engine agreement — DoubleChecker and the vector-clock engine agree
///     with the oracle (and hence each other) on every streamed verdict;
///   * zero unstructured hangs — fault iterations replay the full fault
///     sweep (allocation failure, degradation caps,
///     wedged window flushes) layered over windowing; every stall must
///     surface as a structured CheckerFault, never an abort or a hang.
///
/// A machine-readable result lands in --json-out (committed as SOAK.json
/// by tools/ci.sh); --ndjson tails the live event stream of every healthy
/// iteration. Exit 0 = contract held for the whole budget, 1 = a check
/// failed (diagnosis on stderr), 64 = usage error.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/Checker.h"
#include "rt/StreamingSession.h"
#include "support/Oracle.h"
#include "tools/FuzzLib.h"

using namespace dc;

namespace {

struct SoakOptions {
  double Seconds = 60;      ///< Wall-clock budget (0 = iterations only).
  uint64_t Iterations = 0;  ///< Iteration budget (0 = time only).
  uint64_t Seed = 1;
  uint32_t WindowTxs = 3;   ///< Small: force many retirement epochs.
  uint64_t MinWindows = 100; ///< Contract: at least this many epochs total.
  uint32_t FaultEvery = 3;  ///< Every Nth iteration replays a fault case.
  uint64_t ProgressEvery = 0;
  std::string JsonOut;
  std::string NdjsonOut;
};

/// VmRSS in KiB from /proc/self/status (0 if unavailable — the RSS bound
/// is then skipped rather than failed, e.g. on non-Linux).
uint64_t rssKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  return 0;
}

std::string describeSet(const std::set<std::string> &S) {
  std::string Out = "{";
  for (const std::string &M : S)
    Out += M + ",";
  if (Out.size() > 1)
    Out.back() = '}';
  else
    Out += '}';
  return Out;
}

bool isSubset(const std::set<std::string> &A, const std::set<std::string> &B) {
  for (const std::string &X : A)
    if (!B.count(X))
      return false;
  return true;
}

struct Totals {
  uint64_t Iterations = 0;
  uint64_t Windows = 0;
  uint64_t SeededViolations = 0; ///< Oracle-proven non-serializable traces.
  uint64_t CaughtViolations = 0; ///< ... reported by the streamed run.
  uint64_t StreamedRecords = 0;
  uint64_t FaultRuns = 0;
  uint64_t RssPeakKb = 0;
  uint64_t RssFirstHalfPeakKb = 0;
  uint64_t RssSecondHalfPeakKb = 0;
  double Seconds = 0;
};

void writeJson(const std::string &Path, const Totals &T, bool Pass,
               const std::string &Failure, const SoakOptions &O) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "dcsoak: cannot write '%s'\n", Path.c_str());
    return;
  }
  Out << "{\n"
      << "  \"verdict\": \"" << (Pass ? "pass" : "fail") << "\",\n";
  if (!Pass)
    Out << "  \"failure\": \"" << Failure << "\",\n";
  Out << "  \"seconds\": " << T.Seconds << ",\n"
      << "  \"iterations\": " << T.Iterations << ",\n"
      << "  \"window_txs\": " << O.WindowTxs << ",\n"
      << "  \"retirement_windows\": " << T.Windows << ",\n"
      << "  \"seeded_violations\": " << T.SeededViolations << ",\n"
      << "  \"caught_violations\": " << T.CaughtViolations << ",\n"
      << "  \"streamed_records\": " << T.StreamedRecords << ",\n"
      << "  \"fault_runs\": " << T.FaultRuns << ",\n"
      << "  \"rss_peak_kb\": " << T.RssPeakKb << ",\n"
      << "  \"rss_first_half_peak_kb\": " << T.RssFirstHalfPeakKb << ",\n"
      << "  \"rss_second_half_peak_kb\": " << T.RssSecondHalfPeakKb << "\n"
      << "}\n";
}

void printUsage() {
  std::printf(
      "usage: dcsoak [options]\n"
      "  --seconds <s>     wall-clock budget (default 60; 0 = unlimited)\n"
      "  --iterations <n>  iteration budget (default 0 = time only)\n"
      "  --seed <n>        base program/schedule seed (default 1)\n"
      "  --window-txs <n>  retirement-window cadence (default 3 — small,\n"
      "                    so every run crosses many window boundaries)\n"
      "  --min-windows <n> fail if fewer epochs flushed overall (default\n"
      "                    100)\n"
      "  --fault-every <n> replay a rotating fault-sweep case (layered\n"
      "                    over windowing) every nth iteration (default 3,\n"
      "                    0 = never)\n"
      "  --json-out <path> machine-readable result (SOAK.json)\n"
      "  --ndjson <path>   append every healthy iteration's event stream\n"
      "  --progress <n>    progress line on stderr every n iterations\n");
}

} // namespace

int main(int Argc, char **Argv) {
  SoakOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V;
    if (Arg == "--seconds" && (V = Value()))
      O.Seconds = std::atof(V);
    else if (Arg == "--iterations" && (V = Value()))
      O.Iterations = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seed" && (V = Value()))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--window-txs" && (V = Value()))
      O.WindowTxs = static_cast<uint32_t>(std::atoi(V));
    else if (Arg == "--min-windows" && (V = Value()))
      O.MinWindows = std::strtoull(V, nullptr, 10);
    else if (Arg == "--fault-every" && (V = Value()))
      O.FaultEvery = static_cast<uint32_t>(std::atoi(V));
    else if (Arg == "--json-out" && (V = Value()))
      O.JsonOut = V;
    else if (Arg == "--ndjson" && (V = Value()))
      O.NdjsonOut = V;
    else if (Arg == "--progress" && (V = Value()))
      O.ProgressEvery = std::strtoull(V, nullptr, 10);
    else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "dcsoak: bad argument '%s'\n", Arg.c_str());
      printUsage();
      return 64;
    }
  }
  if (O.WindowTxs == 0 || (O.Seconds <= 0 && O.Iterations == 0)) {
    std::fprintf(stderr, "dcsoak: need --window-txs > 0 and a budget\n");
    return 64;
  }

  std::ofstream Ndjson;
  if (!O.NdjsonOut.empty()) {
    Ndjson.open(O.NdjsonOut);
    if (!Ndjson) {
      std::fprintf(stderr, "dcsoak: cannot write '%s'\n", O.NdjsonOut.c_str());
      return 64;
    }
  }

  const std::vector<fuzz::FaultCase> FaultCases = fuzz::faultSweepCases();
  using Clock = std::chrono::steady_clock;
  const auto Start = Clock::now();
  auto Elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  };

  Totals T;
  std::vector<uint64_t> RssSeries;
  std::string Failure;
  auto Fail = [&](const std::string &Msg) {
    Failure = Msg;
    std::fprintf(stderr, "dcsoak: FAIL at iteration %llu: %s\n",
                 static_cast<unsigned long long>(T.Iterations), Msg.c_str());
  };

  for (uint64_t It = 0; Failure.empty(); ++It) {
    if (O.Iterations != 0 && It >= O.Iterations)
      break;
    if (O.Seconds > 0 && Elapsed() >= O.Seconds && It > 0)
      break;
    T.Iterations = It + 1;

    // One churn unit: a fresh tiny program on an adversarial schedule,
    // with the ground truth decided by the serializability oracle.
    fuzz::ProgSpec Spec = fuzz::randomSpec(O.Seed + It);
    ir::Program P = Spec.build();
    core::AtomicitySpec AS = core::AtomicitySpec::initial(P);
    rt::RunOptions RO;
    RO.Deterministic = true;
    RO.MaxSteps = 1ull << 20;
    if (It % 2 == 0) { // Alternate PCT and uniform random schedules.
      RO.Strategy = rt::ScheduleStrategy::Pct;
      RO.PctChangePoints = 3;
      RO.PctExpectedSteps = 128;
    }
    RO.ScheduleSeed = (O.Seed + It) * 0x9E3779B9u + 1;
    oracle::RecordedTrace Trace = oracle::recordTrace(P, AS, RO);
    if (Trace.Result.Aborted)
      continue;
    oracle::OracleVerdict V = oracle::decideSerializability(P, Trace);
    if (!V.Serializable)
      ++T.SeededViolations;

    const bool FaultIteration =
        O.FaultEvery != 0 && (It + 1) % O.FaultEvery == 0;
    if (FaultIteration) {
      // Layer the next fault-sweep case over streaming windows and hold it
      // to the degradation-soundness contract: structured termination, no
      // lost coverage, precise tier stays precise. A wedged component in a
      // window must surface as a CheckerFault — checkFaultCase fails on
      // any abort, and the watchdog bounds every wait, so an unstructured
      // hang cannot pass silently.
      fuzz::FaultCase Case = FaultCases[(It / O.FaultEvery) %
                                        FaultCases.size()];
      if (Case.WindowTxs == 0)
        Case.WindowTxs = O.WindowTxs;
      ++T.FaultRuns;
      if (auto D = fuzz::checkFaultCase(P, Trace, Case)) {
        Fail(*D);
        break;
      }
      if (!V.Serializable)
        ++T.CaughtViolations; // checkFaultCase proved coverage (part 1).
    } else {
      // Healthy iteration: stream both windowed engines through a live
      // StreamingSession and compare against their batch runs and the
      // oracle. checkWindowedPair owns batch-vs-streaming equality and
      // the streamed-counter cross-checks; the engine-agreement and
      // missed-violation checks ride on its verdict-equality guarantees.
      if (auto D = fuzz::checkWindowedPair(P, Trace, O.WindowTxs)) {
        Fail(*D);
        break;
      }
      // Re-run the streamed DoubleChecker config once more for the soak's
      // own counters (windows flushed, records streamed, NDJSON tail) —
      // deterministic replay makes this bit-identical to the checked run.
      std::ostream *Sink = Ndjson.is_open() ? &Ndjson : nullptr;
      rt::StreamingSession::Options SOpts;
      SOpts.Out = Sink;
      SOpts.MethodName = [&P](ir::MethodId Id) {
        return P.Methods[Id].Name;
      };
      rt::StreamingSession Session(std::move(SOpts));
      core::RunConfig Cfg;
      Cfg.M = core::Mode::SingleRun;
      Cfg.RunOpts.Deterministic = true;
      Cfg.RunOpts.ExplicitSchedule = Trace.Schedule;
      Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
      Cfg.RunOpts.MaxSteps = 1ull << 22;
      Cfg.WindowTxs = O.WindowTxs;
      Cfg.Session = &Session;
      core::RunOutcome Run = core::runChecker(P, AS, Cfg);
      if (Run.Result.Aborted ||
          Run.Result.Fault != rt::CheckerFault::None) {
        Fail("healthy streamed run reported fault " +
             std::string(rt::toString(Run.Result.Fault)));
        break;
      }
      T.Windows += Run.stat("governor.windows_flushed");
      T.StreamedRecords += Session.violationsStreamed();
      std::set<std::string> Reported = Run.BlamedMethods;
      Reported.insert(Run.PotentialMethods.begin(),
                      Run.PotentialMethods.end());
      if (!V.Serializable) {
        if (Reported.empty()) {
          Fail("streamed run missed a seeded violation (oracle cycles " +
               describeSet(V.CycleMethods) + ")");
          break;
        }
        ++T.CaughtViolations;
      }
      if (!isSubset(Run.BlamedMethods, V.CycleMethods)) {
        Fail("streamed blame " + describeSet(Run.BlamedMethods) +
             " outside oracle cycles " + describeSet(V.CycleMethods));
        break;
      }
    }

    const uint64_t Rss = rssKb();
    if (Rss != 0) {
      RssSeries.push_back(Rss);
      if (Rss > T.RssPeakKb)
        T.RssPeakKb = Rss;
    }
    if (O.ProgressEvery != 0 && (It + 1) % O.ProgressEvery == 0)
      std::fprintf(stderr,
                   "dcsoak: %llu iterations, %llu windows, %llu/%llu "
                   "violations caught, %llu fault runs, rss %llu KiB, "
                   "%.1fs\n",
                   static_cast<unsigned long long>(T.Iterations),
                   static_cast<unsigned long long>(T.Windows),
                   static_cast<unsigned long long>(T.CaughtViolations),
                   static_cast<unsigned long long>(T.SeededViolations),
                   static_cast<unsigned long long>(T.FaultRuns),
                   static_cast<unsigned long long>(Rss), Elapsed());
  }
  T.Seconds = Elapsed();

  // Post-hoc contract checks (only when the loop itself stayed clean).
  if (Failure.empty() && T.Windows < O.MinWindows)
    Fail("only " + std::to_string(T.Windows) +
         " retirement windows flushed (< " + std::to_string(O.MinWindows) +
         "): the soak did not exercise windowing");
  if (Failure.empty() && T.CaughtViolations != T.SeededViolations)
    Fail("caught " + std::to_string(T.CaughtViolations) + " of " +
         std::to_string(T.SeededViolations) + " seeded violations");
  if (Failure.empty() && RssSeries.size() >= 8) {
    // Bounded memory: the peak over the soak's second half must not exceed
    // the first half's peak by more than slack. Per-iteration state dies
    // with the run, so unbounded growth here means retirement (or the
    // allocator behind it) is leaking across iterations.
    const size_t Half = RssSeries.size() / 2;
    for (size_t I = 0; I < RssSeries.size(); ++I) {
      uint64_t &Peak =
          I < Half ? T.RssFirstHalfPeakKb : T.RssSecondHalfPeakKb;
      if (RssSeries[I] > Peak)
        Peak = RssSeries[I];
    }
    const uint64_t SlackKb = 64 * 1024;
    if (T.RssSecondHalfPeakKb > T.RssFirstHalfPeakKb + SlackKb)
      Fail("RSS grew from " + std::to_string(T.RssFirstHalfPeakKb) +
           " KiB (first-half peak) to " +
           std::to_string(T.RssSecondHalfPeakKb) +
           " KiB (second-half peak): retirement is not bounding memory");
  }

  const bool Pass = Failure.empty();
  if (!O.JsonOut.empty())
    writeJson(O.JsonOut, T, Pass, Failure, O);
  std::printf("dcsoak: %s — %llu iterations, %llu retirement windows, "
              "%llu/%llu seeded violations caught, %llu fault runs, "
              "rss peak %llu KiB, %.1fs\n",
              Pass ? "PASS" : "FAIL",
              static_cast<unsigned long long>(T.Iterations),
              static_cast<unsigned long long>(T.Windows),
              static_cast<unsigned long long>(T.CaughtViolations),
              static_cast<unsigned long long>(T.SeededViolations),
              static_cast<unsigned long long>(T.FaultRuns),
              static_cast<unsigned long long>(T.RssPeakKb), T.Seconds);
  return Pass ? 0 : 1;
}
