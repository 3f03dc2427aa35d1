//===- perfbench/TracingRuntime.h - Hook-boundary tracing -------*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's traced run. A forwarding rt::CheckerRuntime sits between
/// the interpreter and the checker engine and times every call the
/// interpreter makes into the checker, without any tracing inside src/:
///
///   * per-call hooks (instrumentedAccess, safePoint, syncOp, the
///     block/unblock pair) are timed 1 in SampleEvery calls and
///     extrapolated from exact call counts;
///   * transaction and thread boundaries (txBegin, txEnd, thread
///     start/exit) are timed on every call: they are where transactions
///     end, so each one that contains a retirement-window flush becomes a
///     span of its own;
///   * one span per program run (the run id is the shared identifier) with
///     child spans for compile, Runtime::run, endRun and window flushes.
///
/// Spans stay in memory and are written out once, at the end.
///
//===----------------------------------------------------------------------===//

#ifndef DC_PERFBENCH_TRACINGRUNTIME_H
#define DC_PERFBENCH_TRACINGRUNTIME_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/Checker.h"
#include "rt/CheckerRuntime.h"

namespace dc {
namespace perfbench {

/// Hooks timed at the checker boundary.
enum class Hook : uint8_t {
  Access,    ///< instrumentedAccess
  TxBegin,   ///< txBegin
  TxEnd,     ///< txEnd
  Sync,      ///< syncOp
  SafePoint, ///< safePoint
  Block,     ///< aboutToBlock + unblocked
  Thread,    ///< threadStarted + threadExiting
};
constexpr unsigned NumHooks = 7;

/// Per-hook totals, merged over threads and runs.
struct HookTotals {
  uint64_t Calls[NumHooks] = {};
  uint64_t Sampled[NumHooks] = {};
  uint64_t SampledNs[NumHooks] = {};
  /// Individual sampled durations, for percentiles.
  std::vector<uint32_t> AccessNs;
  std::vector<uint32_t> TxEndNs;
  uint64_t EndRunNs = 0;
  /// Timed hook calls that contained a window flush, and their time.
  uint64_t Flushes = 0;
  uint64_t FlushNs = 0;
  /// Flushes inside sampled hook calls that were not timed.
  uint64_t UntimedFlushes = 0;

  /// Sampled time scaled up to every call of \p H.
  double extrapolatedNs(Hook H) const;
  void merge(const HookTotals &O);
};

/// One closed span. Times are nanoseconds since the log was created.
struct Span {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a run span.
  uint64_t RunId = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint32_t Tid = 0;
};

/// In-memory span store; thread-safe (window-flush spans close on worker
/// threads).
class SpanLog {
public:
  SpanLog();
  int64_t nowNs() const;
  uint64_t newId();
  void add(Span S);
  /// Writes the spans as chrome://tracing complete events.
  bool writeChromeJson(const std::string &Path) const;

private:
  int64_t Origin;
  mutable std::mutex Lock;
  std::vector<Span> Spans; ///< Guarded by Lock.
  uint64_t NextId = 1;     ///< Guarded by Lock.
};

/// What one traced program run produced.
struct TracedRun {
  core::RunOutcome Outcome;
  HookTotals Hooks;
  double RunS = 0;      ///< Whole run span.
  double CompileS = 0;  ///< instr::compile child span.
  double RtRunS = 0;    ///< Runtime::run child span.
};

/// Runs \p Source once under \p Cfg with the forwarding wrapper. The engine
/// is built the way core::runChecker builds it (instr::compile, then the
/// engine options); only Mode::SingleRun and Mode::VectorClock are
/// supported.
TracedRun runTraced(const ir::Program &Source, const core::AtomicitySpec &Spec,
                    const core::RunConfig &Cfg, uint32_t SampleEvery,
                    SpanLog &Log);

/// Median cost of one back-to-back steady_clock pair, subtracted from each
/// sampled duration.
uint32_t clockPairNs();

} // namespace perfbench
} // namespace dc

#endif // DC_PERFBENCH_TRACINGRUNTIME_H
