//===- perfbench/TracingRuntime.cpp ---------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TracingRuntime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "analysis/DoubleChecker.h"
#include "instr/Instrument.h"
#include "rt/Runtime.h"
#include "rt/StreamingSession.h"
#include "support/Statistic.h"
#include "vc/VectorClockChecker.h"

using namespace dc;
using namespace dc::perfbench;

namespace {

/// Set by the engine's window hook on the thread running the flush, so the
/// enclosing hook call knows it contained one.
thread_local bool FlushedHere = false;

int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned idx(Hook H) { return static_cast<unsigned>(H); }

const char *const HookNames[NumHooks] = {
    "instrumentedAccess", "txBegin", "txEnd", "syncOp",
    "safePoint", "block", "thread"};

/// Forwards every hook to the engine, timing calls at the boundary.
class TracingRuntime final : public rt::CheckerRuntime {
public:
  TracingRuntime(rt::CheckerRuntime &Inner, uint32_t NumThreads,
                 uint32_t SampleEvery, SpanLog &Log, uint64_t RunId,
                 uint64_t RtSpan)
      : Inner(Inner), Every(std::max(1u, SampleEvery)),
        ClockNs(clockPairNs()), Log(Log), RunId(RunId), RtSpan(RtSpan),
        Threads(NumThreads) {}

  TracingRuntime(const TracingRuntime &) = delete;
  TracingRuntime &operator=(const TracingRuntime &) = delete;

  void beginRun(rt::Runtime &RT) override { Inner.beginRun(RT); }

  void endRun(rt::Runtime &RT) override {
    const int64_t Start = Log.nowNs();
    Inner.endRun(RT);
    FlushedHere = false; // A final flush belongs to the endRun span.
    const int64_t End = Log.nowNs();
    EndRunNs = static_cast<uint64_t>(End - Start);
    Log.add({"endRun", Log.newId(), RtSpan, RunId, Start, End, 0});
  }

  void threadStarted(rt::ThreadContext &TC) override {
    exact(TC, Hook::Thread, [&] { Inner.threadStarted(TC); });
  }
  void threadExiting(rt::ThreadContext &TC) override {
    exact(TC, Hook::Thread, [&] { Inner.threadExiting(TC); });
  }
  void txBegin(rt::ThreadContext &TC, const ir::Method &M) override {
    exact(TC, Hook::TxBegin, [&] { Inner.txBegin(TC, M); });
  }
  void txEnd(rt::ThreadContext &TC, const ir::Method &M) override {
    const uint32_t Ns = exact(TC, Hook::TxEnd, [&] { Inner.txEnd(TC, M); });
    Threads[TC.Tid].TxEndNs.push_back(Ns);
  }

  void instrumentedAccess(rt::ThreadContext &TC, const rt::AccessInfo &Info,
                          function_ref<void()> Access) override {
    const int64_t Ns = sampled(
        TC, Hook::Access, [&] { Inner.instrumentedAccess(TC, Info, Access); });
    if (Ns >= 0)
      Threads[TC.Tid].AccessNs.push_back(static_cast<uint32_t>(Ns));
  }
  void syncOp(rt::ThreadContext &TC, const rt::AccessInfo &Info,
              rt::SyncKind Kind) override {
    sampled(TC, Hook::Sync, [&] { Inner.syncOp(TC, Info, Kind); });
  }
  void safePoint(rt::ThreadContext &TC) override {
    sampled(TC, Hook::SafePoint, [&] { Inner.safePoint(TC); });
  }
  void aboutToBlock(rt::ThreadContext &TC) override {
    sampled(TC, Hook::Block, [&] { Inner.aboutToBlock(TC); });
  }
  void unblocked(rt::ThreadContext &TC) override {
    sampled(TC, Hook::Block, [&] { Inner.unblocked(TC); });
  }

  void reportHealth(rt::RunResult &R) override { Inner.reportHealth(R); }
  void healthSnapshot(rt::HealthSnapshot &H) override {
    Inner.healthSnapshot(H);
  }
  bool windowFlush() override { return Inner.windowFlush(); }

  /// Call after the run has joined every thread.
  HookTotals totals() const {
    HookTotals T;
    for (const PerThread &PT : Threads)
      T.merge(PT);
    T.EndRunNs = EndRunNs;
    return T;
  }

private:
  /// Written only by its own interpreter thread; padded against false
  /// sharing.
  struct alignas(64) PerThread : HookTotals {};

  /// Books one timed call, net of the clock's own cost, and turns a
  /// window flush that ran inside it into a span.
  uint32_t record(rt::ThreadContext &TC, Hook H, int64_t Start, int64_t End) {
    PerThread &PT = Threads[TC.Tid];
    const uint32_t Ns = static_cast<uint32_t>(std::clamp<int64_t>(
        End - Start - static_cast<int64_t>(ClockNs), 0, INT32_MAX));
    ++PT.Sampled[idx(H)];
    PT.SampledNs[idx(H)] += Ns;
    if (FlushedHere) {
      FlushedHere = false;
      ++PT.Flushes;
      PT.FlushNs += Ns;
      Log.add({std::string("window-flush@") + HookNames[idx(H)], Log.newId(),
               RtSpan, RunId, Start, End, TC.Tid});
    }
    return Ns;
  }

  /// Times every call (transaction and thread boundaries, where window
  /// flushes land).
  template <typename F> uint32_t exact(rt::ThreadContext &TC, Hook H, F &&Call) {
    ++Threads[TC.Tid].Calls[idx(H)];
    const int64_t Start = Log.nowNs();
    Call();
    return record(TC, H, Start, Log.nowNs());
  }

  /// Times one call in Every; returns its net time, or -1 if untimed. A
  /// flush inside an untimed call is counted but has no span.
  template <typename F> int64_t sampled(rt::ThreadContext &TC, Hook H, F &&Call) {
    PerThread &PT = Threads[TC.Tid];
    if (++PT.Calls[idx(H)] % Every != 0) {
      Call();
      if (FlushedHere) {
        FlushedHere = false;
        ++PT.UntimedFlushes;
      }
      return -1;
    }
    const int64_t Start = Log.nowNs();
    Call();
    return record(TC, H, Start, Log.nowNs());
  }

  rt::CheckerRuntime &Inner;
  const uint32_t Every;
  const uint32_t ClockNs;
  SpanLog &Log;
  const uint64_t RunId;
  const uint64_t RtSpan;
  std::vector<PerThread> Threads;
  uint64_t EndRunNs = 0;
};

} // namespace

double HookTotals::extrapolatedNs(Hook H) const {
  const unsigned I = idx(H);
  if (Sampled[I] == 0)
    return 0;
  return static_cast<double>(SampledNs[I]) * static_cast<double>(Calls[I]) /
         static_cast<double>(Sampled[I]);
}

void HookTotals::merge(const HookTotals &O) {
  for (unsigned H = 0; H < NumHooks; ++H) {
    Calls[H] += O.Calls[H];
    Sampled[H] += O.Sampled[H];
    SampledNs[H] += O.SampledNs[H];
  }
  AccessNs.insert(AccessNs.end(), O.AccessNs.begin(), O.AccessNs.end());
  TxEndNs.insert(TxEndNs.end(), O.TxEndNs.begin(), O.TxEndNs.end());
  EndRunNs += O.EndRunNs;
  Flushes += O.Flushes;
  FlushNs += O.FlushNs;
  UntimedFlushes += O.UntimedFlushes;
}

uint32_t perfbench::clockPairNs() {
  static const uint32_t Ns = [] {
    std::vector<int64_t> Pairs(2001);
    for (int64_t &P : Pairs) {
      const int64_t A = steadyNs();
      P = steadyNs() - A;
    }
    std::nth_element(Pairs.begin(), Pairs.begin() + Pairs.size() / 2,
                     Pairs.end());
    return static_cast<uint32_t>(Pairs[Pairs.size() / 2]);
  }();
  return Ns;
}

SpanLog::SpanLog() : Origin(steadyNs()) {}

int64_t SpanLog::nowNs() const { return steadyNs() - Origin; }

uint64_t SpanLog::newId() {
  std::lock_guard<std::mutex> Guard(Lock);
  return NextId++;
}

void SpanLog::add(Span S) {
  std::lock_guard<std::mutex> Guard(Lock);
  Spans.push_back(std::move(S));
}

bool SpanLog::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr)
    return false;
  std::fprintf(F, "{\"traceEvents\":[\n");
  std::lock_guard<std::mutex> Guard(Lock);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"run\":%llu}}%s\n",
                 S.Name.c_str(), S.Tid, S.StartNs / 1e3,
                 (S.EndNs - S.StartNs) / 1e3, (unsigned long long)S.Id,
                 (unsigned long long)S.Parent, (unsigned long long)S.RunId,
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

TracedRun perfbench::runTraced(const ir::Program &Source,
                               const core::AtomicitySpec &Spec,
                               const core::RunConfig &Cfg,
                               uint32_t SampleEvery, SpanLog &Log) {
  const bool Vc = Cfg.M == core::Mode::VectorClock;
  if (!Vc && Cfg.M != core::Mode::SingleRun) {
    std::fprintf(stderr, "runTraced: unsupported mode %s\n",
                 core::toString(Cfg.M).c_str());
    std::abort();
  }
  TracedRun Out;
  const uint64_t RunId = Log.newId();
  const int64_t RunStart = Log.nowNs();

  // Same instrumentation decisions as core::runChecker for these modes.
  instr::InstrumentationOptions IOpts;
  IOpts.Checker = Vc ? instr::CheckerKind::Velodrome : instr::CheckerKind::Octet;
  IOpts.LogAccesses = !Vc;
  ir::Program Compiled = instr::compile(Source, Spec.excluded(), IOpts);
  const int64_t CompileEnd = Log.nowNs();
  Log.add({"compile", Log.newId(), RunId, RunId, RunStart, CompileEnd, 0});

  {
    StatisticRegistry Stats;
    analysis::ViolationLog Violations;
    rt::StreamingSession *Session = Cfg.Session;
    if (Session != nullptr)
      Violations.setSink([Session](const analysis::ViolationRecord &R) {
        Session->onViolation(R);
      });
    auto OnWindow = [Session](const rt::HealthSnapshot &H) {
      FlushedHere = true;
      if (Session != nullptr)
        Session->onWindow(H);
    };
    std::unique_ptr<rt::CheckerRuntime> Engine;
    if (Vc) {
      vc::VectorClockOptions VcOpts;
      VcOpts.WindowTxs = Cfg.WindowTxs;
      VcOpts.WindowHook = OnWindow;
      Engine = std::make_unique<vc::VectorClockRuntime>(Compiled, VcOpts,
                                                        Violations, Stats);
    } else {
      analysis::DoubleCheckerOptions DOpts;
      DOpts.WindowTxs = Cfg.WindowTxs;
      DOpts.WindowHook = OnWindow;
      if (Session != nullptr)
        DOpts.FaultHook = [Session](rt::CheckerFault F,
                                    const std::string &Diagnosis) {
          Session->onFault(F, Diagnosis);
        };
      Engine = std::make_unique<analysis::DoubleCheckerRuntime>(
          Compiled, DOpts, Violations, Stats);
    }

    const uint64_t RtSpan = Log.newId();
    TracingRuntime Tracer(*Engine,
                          static_cast<uint32_t>(Compiled.ThreadEntries.size()),
                          SampleEvery, Log, RunId, RtSpan);
    const int64_t RtStart = Log.nowNs();
    {
      rt::Runtime RT(Compiled, &Tracer, Cfg.RunOpts);
      Out.Outcome.Result = RT.run();
    }
    const int64_t RtEnd = Log.nowNs();
    Log.add({"Runtime::run", RtSpan, RunId, RunId, RtStart, RtEnd, 0});

    Out.Outcome.Violations = Violations.records();
    for (ir::MethodId Site : Violations.blamedMethods())
      Out.Outcome.BlamedMethods.insert(Source.Methods[Site].Name);
    for (ir::MethodId Site : Violations.potentialMethods())
      Out.Outcome.PotentialMethods.insert(Source.Methods[Site].Name);
    for (const Statistic *S : Stats.all())
      Out.Outcome.Stats[S->name()] = S->get();
    Out.Hooks = Tracer.totals();
    Out.CompileS = (CompileEnd - RunStart) / 1e9;
    Out.RtRunS = (RtEnd - RtStart) / 1e9;
  }
  const int64_t RunEnd = Log.nowNs();
  Log.add({"run:" + Source.Name, RunId, 0, RunId, RunStart, RunEnd, 0});
  Out.RunS = (RunEnd - RunStart) / 1e9;
  return Out;
}
