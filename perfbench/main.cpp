//===- perfbench/main.cpp - Repository benchmark --------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark: the paper's Fig. 7 metrics, end to end, over
/// five whole programs (eclipse6, xalan6, sunflow9, tsp, montecarlo) run
/// through core::runChecker exactly as dcheck runs them, in one of three
/// checker configurations:
///
///   single_run  DoubleChecker single-run mode, batch (the dcheck default)
///   serve       the same engine in service mode: a retirement window every
///               512 finished transactions, NDJSON to a discarding stream
///   serve_vc    the vector-clock engine in service mode, same cadence
///
/// Closed loop: one program run at a time, back to back. A pass runs every
/// program once unmodified and once checked; passes repeat until the
/// measuring time is used up. With --trace 1, untraced and traced passes
/// alternate: traced ones wrap the engine in a forwarding
/// rt::CheckerRuntime (TracingRuntime.h) for the hook timings, untraced ones
/// supply the engine's stats counters and the baseline for the tracing
/// overhead. End-to-end metrics come only from untraced runs.
///
/// The last stdout line is one JSON object: correct, attempted, failed and
/// the metrics. Every run is gated (abort, schedule divergence, checker
/// fault, a precise report whose blame no seeded race explains (see
/// classifyBlame), and for serve_vc any Octet/log/ICD/PCD work); any breach
/// exits 1.
///
//===----------------------------------------------------------------------===//

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "TracingRuntime.h"
#include "core/Checker.h"
#include "rt/StreamingSession.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

using namespace dc;
using namespace dc::perfbench;

namespace {

enum class Workload { SingleRun, Serve, ServeVc };

const char *const ProgramNames[] = {"eclipse6", "xalan6", "sunflow9", "tsp",
                                    "montecarlo"};
/// Service-mode retirement cadence, in finished transactions.
constexpr uint32_t WindowTxs = 512;
/// Sampling period of the per-call hook timers in traced passes.
constexpr uint32_t SampleEvery = 64;
/// The extrapolated hook time may exceed the interpreter threads' share of
/// the Runtime::run span by at most this fraction.
constexpr double HookShareTolerance = 0.10;
/// Unmodified runs per program per pass: the baseline runs are short, so
/// more of them steady the slowdown's denominator at little cost.
constexpr unsigned UnmodReps = 3;
/// Program scale of the replayed-schedule fidelity runs.
constexpr double FidelityScale = 0.02;

struct Options {
  std::string WorkloadName;
  Workload W = Workload::SingleRun;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  double Scale = 1.0;
  unsigned MinPasses = 3;
  unsigned SetupReps = 3;
  std::string Inputs = "perfbench/frozen_inputs.txt";
  std::string SpansOut;
  std::string Commit = "unknown";
};

/// One program's frozen inputs: the final specification and the methods
/// its builder seeds as racy (every precise report must involve one).
struct Frozen {
  std::set<std::string> Excluded;
  std::set<std::string> Allowed;
};

struct Program {
  std::string Name;
  ir::Program P;
  core::AtomicitySpec Spec;
  std::set<std::string> Allowed;
};

[[noreturn]] void die(const std::string &Msg, int Code = 2) {
  std::fprintf(stderr, "dcbench: %s\n", Msg.c_str());
  std::exit(Code);
}

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double percentile(std::vector<uint32_t> V, double Q) {
  if (V.empty())
    return 0;
  const size_t K = std::min(
      V.size() - 1, static_cast<size_t>(Q * static_cast<double>(V.size())));
  std::nth_element(V.begin(), V.begin() + K, V.end());
  return V[K];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double peakRssMib() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Host CPU ticks stolen by the hypervisor and in total, from /proc/stat
/// ({0, 0} where unavailable). Steal is how a shared host slows a run, so
/// the record carries its share over the measured passes.
std::pair<uint64_t, uint64_t> stealTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t V = 0, Total = 0, Steal = 0;
  In >> Cpu;
  for (int Field = 0; Field < 8 && In >> V; ++Field) {
    Total += V;
    if (Field == 7)
      Steal = V;
  }
  return {Steal, Total};
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + A, 64);
      return Argv[++I];
    };
    auto Count = [&] {
      return static_cast<unsigned>(std::max(1, std::atoi(Next().c_str())));
    };
    if (A == "--workload")
      O.WorkloadName = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Next().c_str());
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--scale")
      O.Scale = std::atof(Next().c_str());
    else if (A == "--min-passes")
      O.MinPasses = Count();
    else if (A == "--setup-reps")
      O.SetupReps = Count();
    else if (A == "--inputs")
      O.Inputs = Next();
    else if (A == "--spans-out")
      O.SpansOut = Next();
    else if (A == "--commit")
      O.Commit = Next();
    else
      die("unknown argument '" + A + "'", 64);
  }
  if (O.WorkloadName == "single_run")
    O.W = Workload::SingleRun;
  else if (O.WorkloadName == "serve")
    O.W = Workload::Serve;
  else if (O.WorkloadName == "serve_vc")
    O.W = Workload::ServeVc;
  else
    die("--workload must be single_run, serve or serve_vc", 64);
  if (!(O.Seconds > 0) || !(O.Scale > 0))
    die("--seconds and --scale must be positive", 64);
  return O;
}

/// Parses the frozen-input file: "program <name>" opens a section,
/// "exclude <method>" adds to its final specification's excluded set and
/// "allow <method>" to its allowed-blame list.
std::map<std::string, Frozen> loadFrozen(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read frozen inputs '" + Path + "'");
  std::map<std::string, Frozen> Out;
  Frozen *Cur = nullptr;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    const std::string Where = Path + ":" + std::to_string(LineNo) + ": ";
    std::istringstream SS(Line);
    std::string Key, Val;
    if (!(SS >> Key) || Key[0] == '#')
      continue;
    if (!(SS >> Val))
      die(Where + "missing name");
    if (Key == "program")
      Cur = &Out[Val];
    else if (Cur == nullptr)
      die(Where + "entry before 'program'");
    else if (Key == "exclude")
      Cur->Excluded.insert(Val);
    else if (Key == "allow")
      Cur->Allowed.insert(Val);
    else
      die(Where + "unknown key '" + Key + "'");
  }
  return Out;
}

/// Builds the five programs with seed-derived random operands and checks
/// every frozen method name against the built program.
std::vector<Program> buildPrograms(const Options &O, double Scale) {
  const std::map<std::string, Frozen> F = loadFrozen(O.Inputs);
  std::vector<Program> Out;
  uint64_t Salt = 0;
  for (const char *Name : ProgramNames) {
    auto It = F.find(Name);
    if (It == F.end())
      die(std::string("frozen inputs have no section for '") + Name + "'", 3);
    Program Prog{Name, workloads::build(Name, Scale),
                 core::AtomicitySpec(It->second.Excluded), It->second.Allowed};
    SplitMix64 Mix(O.Seed * 0x9e3779b97f4a7c15ULL + ++Salt);
    Prog.P.Seed ^= Mix.next();
    for (const auto *Names : {&It->second.Excluded, &It->second.Allowed})
      for (const std::string &M : *Names)
        if (Prog.P.findMethod(M) == ir::InvalidMethodId)
          die("frozen method '" + M + "' no longer exists in '" + Name +
                  "'; re-derive perfbench/frozen_inputs.txt",
              3);
    Out.push_back(std::move(Prog));
  }
  return Out;
}

/// Discards every byte; the service-mode NDJSON is still formatted.
class NullBuf : public std::streambuf {
protected:
  int overflow(int C) override { return traits_type::not_eof(C); }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    return N;
  }
};

/// A service-mode session for one run, as dcheck --serve sets it up, with
/// health every window and the stream discarded.
class ServeSession {
public:
  explicit ServeSession(const ir::Program &P) {
    rt::StreamingSession::Options SOpts;
    SOpts.Out = &Sink;
    SOpts.HealthEveryWindows = 1;
    SOpts.MethodName = [&P](ir::MethodId Id) { return P.Methods[Id].Name; };
    Session = std::make_unique<rt::StreamingSession>(std::move(SOpts));
  }
  rt::StreamingSession *get() { return Session.get(); }
  /// The summary line, with dcheck's exit-code mapping.
  void finish(const core::RunOutcome &Out) {
    const bool Fault = Out.Result.Fault != rt::CheckerFault::None ||
                       Out.Result.Aborted;
    const int Exit = Fault                             ? 2
                     : !Out.BlamedMethods.empty()      ? 1
                     : !Out.PotentialMethods.empty()   ? 2
                                                       : 0;
    Session->finish(Out.BlamedMethods, Out.PotentialMethods,
                    Out.Violations.size(), Out.Result.Fault, Exit);
  }

private:
  NullBuf Discard;
  std::ostream Sink{&Discard};
  std::unique_ptr<rt::StreamingSession> Session;
};

/// A precise report is legitimate when it blames a seeded-racy method or
/// its cycle runs through one. Under the frozen final specification the
/// racy methods are excluded, so their accesses run as unary transactions,
/// which carry no method; PCD then blames the cycle's one regular member,
/// whatever method that is (SccReplay::reportCycle). A cycle with a unary
/// member therefore counts as running through a race. Records without a
/// blamed method (unary-only cycles) blame nothing.
enum class Blame { None, Direct, Indirect, Illegal };

Blame classifyBlame(const analysis::ViolationRecord &R, const Program &Prog,
                    std::string &Why) {
  if (R.K != analysis::ViolationRecord::Kind::Precise ||
      R.Blamed == ir::InvalidMethodId)
    return Blame::None;
  if (Prog.Allowed.count(Prog.P.Methods[R.Blamed].Name))
    return Blame::Direct;
  std::string Cycle;
  for (const analysis::CycleMember &M : R.Cycle) {
    if (M.Site == ir::InvalidMethodId ||
        Prog.Allowed.count(Prog.P.Methods[M.Site].Name))
      return Blame::Indirect;
    Cycle += " t" + std::to_string(M.Tid) + ":" + Prog.P.Methods[M.Site].Name;
  }
  Why = "precisely blamed '" + Prog.P.Methods[R.Blamed].Name +
        "' on a cycle through no seeded-racy or unary transaction:" + Cycle;
  return Blame::Illegal;
}

bool hasPrefix(const std::string &S, const char *P) {
  return S.compare(0, std::strlen(P), P) == 0;
}

uint64_t txCount(const core::RunOutcome &Out) {
  return Out.stat("icd.regular_transactions") +
         Out.stat("icd.unary_transactions") + Out.stat("vc.txs");
}

/// Engine counters a pass sums over programs ("_peak" ones take the max).
const char *const LayerStats[] = {
    "octet.fast_read", "octet.fast_write", "octet.conflicting",
    "octet.explicit_roundtrips", "octet.implicit_roundtrips",
    "octet.wait_spins", "octet.parks", "logging.bytes_logged",
    "logging.ring_full_events", "logging.ring_drain_stalls",
    "logging.refills_refused", "governor.log_bytes_peak",
    "icd.idg_cross_edges", "icd.fastpath_lockfree", "icd.reorders",
    "icd.reorder_visited", "icd.lock_waits", "icd.lock_wait_ns",
    "icd.seqlock_retries", "icd.sccs", "pcd.sccs_processed",
    "pcd.txs_replayed", "pcd.entries_replayed", "pcd.cycles",
    "pcd.sccs_degraded", "icd.collector_ns", "icd.collector_runs",
    "icd.txs_swept", "vc.collector_ns", "vc.txs_swept",
    "governor.windows_flushed", "vc.windows_flushed",
    "governor.window_pinned_peak", "governor.live_txs_peak",
    "window.flushes_degraded", "vc.joins", "vc.epoch_joins",
    "vc.propagations", "vc.cross_edges",
    // Bases of the derived shares.
    "icd.log_entries", "icd.log_entries_elided", "octet.upgrade_wrex",
    "octet.upgrade_rdsh", "octet.fence"};

/// Everything one pass measured.
struct Pass {
  double CheckS = 0; ///< Sum of checked run times.
  double UnmodS = 0; ///< Unmodified time of one run per program.
  std::vector<double> Check;              ///< Per program.
  std::vector<std::vector<double>> Unmod; ///< Per program, UnmodReps each.
  uint64_t Steps = 0;               ///< Interpreter steps, checked runs.
  std::map<std::string, double> Stats;
  uint64_t DegradeEvents = 0;
  uint64_t PotentialMethods = 0;
  uint64_t IndirectBlames = 0; ///< See classifyBlame.
  // Traced passes only.
  HookTotals Hooks;
  double CompileS = 0;
  double RtRunS = 0;
  double RunSpanS = 0;
  uint64_t InterpThreads = 0;
};

class Bench {
public:
  explicit Bench(const Options &O) : O(O) {}
  int run();

private:
  enum class Kind { Unmodified, Checked, Traced };
  core::RunConfig configFor(Kind K);
  /// Runs one program once; returns the run's wall seconds, timed around
  /// core::runChecker (or the traced equivalent).
  double runProgram(size_t I, Kind K, Pass &P);
  Pass runPass(bool Traced);
  void checkFidelity();
  void printRecord() const;
  std::map<std::string, std::pair<double, std::string>> endToEnd() const;
  std::map<std::string, std::pair<double, std::string>> perLayer();

  const Options O;
  std::vector<Program> Progs;
  SpanLog Spans;
  uint64_t RunSeq = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Pass> Untraced, Traced;
  std::vector<double> SetupTimes;
  uint64_t FidelityChecks = 0;
  double StealShare = 0; ///< Host steal over the measured passes.
};

core::RunConfig Bench::configFor(Kind K) {
  core::RunConfig Cfg;
  Cfg.M = K == Kind::Unmodified      ? core::Mode::Unmodified
          : O.W == Workload::ServeVc ? core::Mode::VectorClock
                                     : core::Mode::SingleRun;
  // The Fig. 7 free-running run options (bench/BenchUtils.h).
  Cfg.RunOpts.Deterministic = false;
  Cfg.RunOpts.ScheduleSeed = O.Seed * 1000003ULL + ++RunSeq;
  Cfg.RunOpts.PreemptEveryN = 1024;
  if (K != Kind::Unmodified && O.W != Workload::SingleRun)
    Cfg.WindowTxs = WindowTxs;
  return Cfg;
}

double Bench::runProgram(size_t I, Kind K, Pass &P) {
  const Program &Prog = Progs[I];
  core::RunConfig Cfg = configFor(K);
  std::unique_ptr<ServeSession> Session;
  if (Cfg.WindowTxs != 0) {
    Session = std::make_unique<ServeSession>(Prog.P);
    Cfg.Session = Session->get();
  }
  TracedRun TR;
  const double T0 = nowS();
  if (K == Kind::Traced)
    TR = runTraced(Prog.P, Prog.Spec, Cfg, SampleEvery, Spans);
  else
    TR.Outcome = core::runChecker(Prog.P, Prog.Spec, Cfg);
  const double Secs = nowS() - T0;
  const core::RunOutcome &Out = TR.Outcome;
  if (Session)
    Session->finish(Out);

  // The correctness gate.
  ++Attempted;
  std::string Why;
  if (Out.Result.Aborted)
    Why = "aborted";
  else if (Out.Result.ScheduleDiverged)
    Why = "schedule diverged";
  else if (Out.Result.Fault != rt::CheckerFault::None)
    Why = std::string("checker fault ") + rt::toString(Out.Result.Fault);
  uint64_t Indirect = 0;
  for (const analysis::ViolationRecord &R : Out.Violations) {
    std::string Illegal;
    switch (classifyBlame(R, Prog, Illegal)) {
    case Blame::Indirect:
      ++Indirect;
      break;
    case Blame::Illegal:
      if (Why.empty())
        Why = Illegal;
      break;
    default:
      break;
    }
  }
  if (K != Kind::Unmodified && O.W == Workload::ServeVc)
    for (const auto &[Name, Value] : Out.Stats)
      if (Why.empty() && Value != 0 &&
          (hasPrefix(Name, "octet.") || hasPrefix(Name, "logging.") ||
           hasPrefix(Name, "icd.") || hasPrefix(Name, "pcd.")))
        Why = "vc run did DoubleChecker work: " + Name + " = " +
              std::to_string(Value);
  if (!Why.empty()) {
    ++Failed;
    std::fprintf(stderr, "dcbench: FAILED RUN %s (%s): %s\n",
                 Prog.Name.c_str(),
                 K == Kind::Unmodified ? "unmodified"
                 : K == Kind::Checked  ? "checked"
                                       : "traced",
                 Why.c_str());
  }

  if (K == Kind::Unmodified) {
    P.UnmodS += Secs / UnmodReps;
    P.Unmod[I].push_back(Secs);
    return Secs;
  }
  P.CheckS += Secs;
  P.Check.push_back(Secs);
  if (K == Kind::Traced) {
    P.Hooks.merge(TR.Hooks);
    P.CompileS += TR.CompileS;
    P.RtRunS += TR.RtRunS;
    P.RunSpanS += TR.RunS;
    P.InterpThreads = Prog.P.ThreadEntries.size();
    return Secs;
  }
  P.Steps += Out.Result.Steps;
  for (const char *S : LayerStats) {
    const double V = static_cast<double>(Out.stat(S));
    double &Acc = P.Stats[S];
    Acc = std::strstr(S, "_peak") != nullptr ? std::max(Acc, V) : Acc + V;
  }
  P.DegradeEvents += Out.Result.Degradation.size();
  P.PotentialMethods += Out.PotentialMethods.size();
  P.IndirectBlames += Indirect;
  return Secs;
}

Pass Bench::runPass(bool TracedPass) {
  Pass P;
  P.Unmod.resize(Progs.size());
  for (size_t I = 0; I < Progs.size(); ++I) {
    for (unsigned R = 0; R < UnmodReps; ++R)
      runProgram(I, Kind::Unmodified, P);
    runProgram(I, TracedPass ? Kind::Traced : Kind::Checked, P);
  }
  return P;
}

int Bench::run() {
  // Set-up, repeated: build the programs, load and validate the frozen
  // inputs, one untimed warm pass.
  for (unsigned R = 0; R < O.SetupReps; ++R) {
    const double T0 = nowS();
    Progs = buildPrograms(O, O.Scale);
    runPass(/*Traced=*/false);
    SetupTimes.push_back(nowS() - T0);
  }

  const auto [Steal0, Total0] = stealTicks();
  const double Start = nowS();
  for (;;) {
    const bool Enough = Untraced.size() >= O.MinPasses &&
                        (!O.Trace || Traced.size() >= O.MinPasses);
    if (Enough && nowS() - Start >= O.Seconds)
      break;
    Untraced.push_back(runPass(/*Traced=*/false));
    if (O.Trace)
      Traced.push_back(runPass(/*Traced=*/true));
  }

  const auto [Steal1, Total1] = stealTicks();
  StealShare = ratio(double(Steal1 - Steal0), double(Total1 - Total0));
  if (O.Trace)
    checkFidelity();
  printRecord();
  const auto Metrics = O.Trace ? perLayer() : endToEnd();
  std::printf("failed_run_share = %.6g share (%llu of %llu runs)\n",
              ratio(static_cast<double>(Failed), static_cast<double>(Attempted)),
              (unsigned long long)Failed, (unsigned long long)Attempted);
  for (const auto &[Name, VU] : Metrics)
    std::printf("%s = %.9g %s\n", Name.c_str(), VU.first, VU.second.c_str());
  if (O.Trace && !O.SpansOut.empty()) {
    if (!Spans.writeChromeJson(O.SpansOut))
      die("cannot write spans to '" + O.SpansOut + "'");
    std::printf("spans (chrome://tracing) written to %s\n",
                O.SpansOut.c_str());
  }

  std::string Json = Failed == 0 ? "{\"correct\": true" : "{\"correct\": false";
  Json += ", \"attempted\": " + std::to_string(Attempted) +
          ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : Metrics) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.12g", VU.first);
    Json += std::string(First ? "" : ", ") + "\"" + Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Failed == 0 ? 0 : 1;
}

/// Traced-run fidelity: on one replayed schedule per program, the traced
/// run must create exactly as many transactions as the untraced one.
/// Free-running counts differ run to run (unary transactions follow the
/// interleaving), so the comparison uses the deterministic scheduler, at
/// FidelityScale to keep the serialized runs short.
void Bench::checkFidelity() {
  for (const Program &Prog : buildPrograms(O, FidelityScale)) {
    core::RunConfig Cfg = configFor(Kind::Checked);
    Cfg.RunOpts.Deterministic = true;
    uint64_t Txs[2] = {};
    for (int Traced = 0; Traced < 2; ++Traced) {
      std::unique_ptr<ServeSession> Session;
      if (Cfg.WindowTxs != 0) {
        Session = std::make_unique<ServeSession>(Prog.P);
        Cfg.Session = Session->get();
      }
      Txs[Traced] =
          txCount(Traced ? runTraced(Prog.P, Prog.Spec, Cfg, SampleEvery,
                                     Spans)
                               .Outcome
                         : core::runChecker(Prog.P, Prog.Spec, Cfg));
    }
    ++FidelityChecks;
    std::printf("fidelity %-10s: %llu transactions untraced, %llu traced "
                "(replayed schedule, scale %g)\n",
                Prog.Name.c_str(), (unsigned long long)Txs[0],
                (unsigned long long)Txs[1], FidelityScale);
    if (Txs[0] != Txs[1] || Txs[0] == 0) {
      ++Failed;
      std::fprintf(stderr, "dcbench: traced %s created %llu transactions, "
                           "untraced %llu\n",
                   Prog.Name.c_str(), (unsigned long long)Txs[1],
                   (unsigned long long)Txs[0]);
    }
  }
}

void Bench::printRecord() const {
  std::string Programs;
  for (const char *Name : ProgramNames)
    Programs += std::string(Programs.empty() ? "" : ", ") + "\"" + Name + "\"";
  std::printf(
      "record {\"workload\": \"%s\", \"trace\": %d, \"nproc\": %u, "
      "\"commit\": \"%s\", \"build_type\": \"%s\", \"scale\": %g, "
      "\"passes\": %zu, \"traced_passes\": %zu, \"setup_reps\": %u, "
      "\"seed\": %llu, \"seconds\": %g, \"window_txs\": %u, "
      "\"unmodified_reps\": %u, \"sample_every\": %u, "
      "\"threads_per_run\": %zu, \"host_steal_share\": %.4f, "
      "\"programs\": [%s]}\n",
      O.WorkloadName.c_str(), O.Trace ? 1 : 0,
      std::thread::hardware_concurrency(), O.Commit.c_str(),
      DCBENCH_BUILD_TYPE, O.Scale, Untraced.size(), Traced.size(),
      O.SetupReps, (unsigned long long)O.Seed, O.Seconds,
      O.W == Workload::SingleRun ? 0u : WindowTxs, UnmodReps, SampleEvery,
      Progs.empty() ? size_t(0) : Progs[0].P.ThreadEntries.size(),
      StealShare, Programs.c_str());
}

std::map<std::string, std::pair<double, std::string>>
Bench::endToEnd() const {
  std::vector<double> CheckS;
  for (const Pass &P : Untraced)
    CheckS.push_back(P.CheckS);
  double LogSum = 0, Worst = 0;
  for (size_t I = 0; I < Progs.size(); ++I) {
    std::vector<double> C, U;
    for (const Pass &P : Untraced) {
      C.push_back(P.Check[I]);
      U.insert(U.end(), P.Unmod[I].begin(), P.Unmod[I].end());
    }
    const double S = median(C) / median(U);
    std::sort(C.begin(), C.end());
    std::printf("slowdown %-10s = %.4f x (checked %.4f s [%.4f..%.4f] of "
                "%zu / unmodified %.4f s of %zu)\n",
                Progs[I].Name.c_str(), S, median(C), C[C.size() / 4],
                C[C.size() * 3 / 4], C.size(), median(U), U.size());
    LogSum += std::log(S);
    Worst = std::max(Worst, S);
  }
  return {
      {"setup_s", {median(SetupTimes), "s"}},
      {"check_s", {median(CheckS), "s"}},
      {"slowdown_geomean",
       {std::exp(LogSum / static_cast<double>(Progs.size())), "x"}},
      {"slowdown_worst", {Worst, "x"}},
      {"peak_rss_mib", {peakRssMib(), "MiB"}},
  };
}

std::map<std::string, std::pair<double, std::string>> Bench::perLayer() {
  // Counters: medians over untraced passes of the per-pass sums.
  auto Med = [&](auto Get) {
    std::vector<double> V;
    for (const Pass &P : Untraced)
      V.push_back(Get(P));
    return median(V);
  };
  auto Stat = [&](const char *Name) {
    return Med([&](const Pass &P) { return P.Stats.at(Name); });
  };
  auto Share = [&](std::initializer_list<const char *> Num,
                   std::initializer_list<const char *> Rest) {
    return Med([&](const Pass &P) {
      double N = 0, D = 0;
      for (const char *S : Num)
        N += P.Stats.at(S);
      for (const char *S : Rest)
        D += P.Stats.at(S);
      return ratio(N, N + D);
    });
  };
  std::map<std::string, std::pair<double, std::string>> M;
  for (const char *S : LayerStats) {
    const bool Ns = std::strstr(S, "_ns") != nullptr;
    M[S] = {Stat(S), Ns                                      ? "ns"
                     : std::strstr(S, "bytes") != nullptr    ? "bytes"
                                                             : "count"};
  }
  for (const char *Base : {"icd.log_entries", "icd.log_entries_elided",
                           "octet.upgrade_wrex", "octet.upgrade_rdsh",
                           "octet.fence"})
    M.erase(Base);
  M["octet.fast_share"] = {
      Share({"octet.fast_read", "octet.fast_write"},
            {"octet.conflicting", "octet.upgrade_wrex", "octet.upgrade_rdsh",
             "octet.fence"}),
      "share"};
  M["logging.elided_share"] = {
      Share({"icd.log_entries_elided"}, {"icd.log_entries"}), "share"};
  M["pcd.cycles_per_scc"] = {
      Med([](const Pass &P) {
        return ratio(P.Stats.at("pcd.cycles"), P.Stats.at("pcd.sccs_processed"));
      }),
      "per_scc"};
  M["vc.epoch_share"] = {
      Med([](const Pass &P) {
        return ratio(P.Stats.at("vc.epoch_joins"), P.Stats.at("vc.joins"));
      }),
      "share"};
  M["degrade.events"] = {
      Med([](const Pass &P) { return double(P.DegradeEvents); }), "count"};
  M["degrade.potential_methods"] = {
      Med([](const Pass &P) { return double(P.PotentialMethods); }), "count"};
  M["degrade.indirect_blames"] = {
      Med([](const Pass &P) { return double(P.IndirectBlames); }), "count"};
  M["rt.unmodified_s"] = {Med([](const Pass &P) { return P.UnmodS; }), "s"};
  M["rt.steps"] = {Med([](const Pass &P) { return double(P.Steps); }),
                   "count"};

  // Hook timings: medians over traced passes; percentiles over every
  // sample of every traced pass.
  auto TMed = [&](auto Get) {
    std::vector<double> V;
    for (const Pass &P : Traced)
      V.push_back(Get(P));
    return median(V);
  };
  auto Hk = [&](Hook H) {
    return TMed([H](const Pass &P) { return P.Hooks.extrapolatedNs(H); });
  };
  HookTotals All;
  for (const Pass &P : Traced)
    All.merge(P.Hooks);
  M["hook.access_calls"] = {
      TMed([](const Pass &P) {
        return double(P.Hooks.Calls[unsigned(Hook::Access)]);
      }),
      "count"};
  M["hook.access_ns"] = {Hk(Hook::Access), "ns"};
  M["hook.access_p50_ns"] = {percentile(All.AccessNs, 0.50), "ns"};
  M["hook.access_p99_ns"] = {percentile(All.AccessNs, 0.99), "ns"};
  M["hook.tx_begin_ns"] = {Hk(Hook::TxBegin), "ns"};
  M["hook.sync_ns"] = {Hk(Hook::Sync), "ns"};
  M["hook.safepoint_ns"] = {Hk(Hook::SafePoint), "ns"};
  M["hook.block_ns"] = {Hk(Hook::Block), "ns"};
  M["hook.end_run_ns"] = {
      TMed([](const Pass &P) { return double(P.Hooks.EndRunNs); }), "ns"};
  M["hook.tx_end_ns"] = {Hk(Hook::TxEnd), "ns"};
  M["hook.tx_end_p99_ns"] = {percentile(All.TxEndNs, 0.99), "ns"};
  M["instr.compile_s"] = {TMed([](const Pass &P) { return P.CompileS; }),
                          "s"};
  M["window.flush_spans"] = {
      TMed([](const Pass &P) { return double(P.Hooks.Flushes); }), "count"};
  M["window.flushes_untimed"] = {
      TMed([](const Pass &P) { return double(P.Hooks.UntimedFlushes); }),
      "count"};
  M["window.flush_s"] = {
      TMed([](const Pass &P) { return P.Hooks.FlushNs / 1e9; }), "s"};
  M["span.run_self_s"] = {
      TMed([](const Pass &P) { return P.RunSpanS - P.CompileS - P.RtRunS; }),
      "s"};

  // Tracing overhead and fidelity.
  std::vector<double> UC, TC;
  for (const Pass &P : Untraced)
    UC.push_back(P.CheckS);
  for (const Pass &P : Traced)
    TC.push_back(P.CheckS);
  M["trace.overhead"] = {ratio(median(TC), median(UC)), "ratio"};
  uint64_t Samples = 0;
  for (unsigned H = 0; H < NumHooks; ++H)
    Samples += All.Sampled[H];
  M["trace.samples"] = {double(Samples), "count"};
  M["trace.fidelity_checks"] = {double(FidelityChecks), "count"};
  M["trace.sample_every"] = {double(SampleEvery), "calls"};
  M["trace.clock_pair_ns"] = {double(clockPairNs()), "ns"};
  // Extrapolated hook time against the interpreter threads' share of the
  // Runtime::run spans.
  const double HookShare = TMed([](const Pass &P) {
    double Ns = 0;
    for (unsigned H = 0; H < NumHooks; ++H)
      Ns += P.Hooks.extrapolatedNs(static_cast<Hook>(H));
    return ratio(Ns, P.RtRunS * 1e9 * double(P.InterpThreads));
  });
  M["trace.hook_share"] = {HookShare, "share"};
  std::printf("trace.hook_share tolerance: <= %.2f (sampling 1 in %u; "
              "transaction and thread boundaries timed on every call)\n",
              1 + HookShareTolerance, SampleEvery);
  if (HookShare > 1 + HookShareTolerance) {
    ++Failed;
    std::fprintf(stderr,
                 "dcbench: extrapolated hook time %.3f of the run span "
                 "exceeds the tolerance\n",
                 HookShare);
  }
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  Bench B(O);
  return B.run();
}
