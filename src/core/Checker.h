//===- core/Checker.h - One-call façade over all configurations -*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public entry point: compile a program against an atomicity specification
/// for a chosen checker configuration, execute it, and collect violations,
/// static transaction information, and statistics. Every configuration in
/// the paper's evaluation maps to one Mode here.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_CHECKER_H
#define DC_CORE_CHECKER_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/StaticInfo.h"
#include "analysis/Violation.h"
#include "core/AtomicitySpec.h"
#include "ir/Ir.h"
#include "rt/Runtime.h"
#include "support/FaultPlan.h"

namespace dc {

class TraceRecorder;

namespace rt {
class StreamingSession;
} // namespace rt

namespace core {

/// Checker configurations evaluated in the paper (§5).
enum class Mode {
  Unmodified,         ///< Baseline: no instrumentation at all.
  Velodrome,          ///< Sound+precise Velodrome baseline.
  VelodromeUnsound,   ///< §5.3: skip sync when metadata appears unchanged.
  SingleRun,          ///< DoubleChecker single-run mode (ICD + PCD).
  FirstRun,           ///< Multi-run first run (ICD w/o logging).
  SecondRun,          ///< Multi-run second run (ICD + PCD, selective).
  SecondRunVelodrome, ///< §5.3: Velodrome as the second run.
  PcdOnly,            ///< §5.4 straw man: PCD on every transaction.
  VectorClock,        ///< Vector-clock engine (no graph/SCC/replay) —
                      ///< DESIGN.md §14.
};

std::string toString(Mode M);

/// All Mode values, in declaration order. The single source of truth for
/// tools enumerating modes (dcheck --list-modes) — a new enumerator added
/// here shows up everywhere without hand-maintained tables.
const std::vector<Mode> &allModes();

/// Everything configurable about one run.
struct RunConfig {
  Mode M = Mode::SingleRun;
  rt::RunOptions RunOpts;
  /// §5.4: instrument array element accesses (conflated, array-granular
  /// metadata — pair with DetectCycles=false as the paper does).
  bool InstrumentArrays = false;
  bool DetectCycles = true;
  /// §5.3 ablation: second run instruments non-transactional accesses
  /// regardless of the first run's unary boolean.
  bool ForceInstrumentUnary = false;
  /// Incremental detector's affected-region cap (0 = keep the
  /// DoubleCheckerOptions default). Tiny values force the sound
  /// degradation valve: oversized regions report Potential instead of
  /// reordering.
  uint32_t IcdMaxRegion = 0;
  /// Force each ICD fast-path attempt to fail seqlock validation this many
  /// times (0 = off); exercises retry counting and the cap fallback.
  uint32_t IcdSeqRetryStorm = 0;
  /// Log duplicate elision (paper §4); off logs every access — a
  /// differential-testing mode that must not change violations.
  bool ElideDuplicates = true;
  /// Test-only fault injection: forwarded to
  /// DoubleCheckerOptions::TestOnlyUnsoundFilter so the schedule fuzzer can
  /// prove it catches a deliberately unsound ICD filter.
  bool TestOnlyUnsoundIcdFilter = false;
  /// Deterministic fault plan (DESIGN.md §10): counter-keyed injections
  /// the fuzzer sweeps to prove degradation stays sound.
  FaultPlan Faults;
  /// Log-arena budget in MiB (0 = unlimited). Breaching it starts the
  /// degradation ladder: shed logging, degrade affected SCCs to potential
  /// violations.
  uint64_t MemBudgetMB = 0;
  /// Live-transaction budget (0 = unlimited). Breaching it forces eager
  /// collection.
  uint64_t MaxLiveTxs = 0;
  /// Watchdog/stall timeout in ms (0 = keep the DoubleCheckerOptions
  /// default).
  uint32_t PcdTimeoutMs = 0;
  /// Cap on SCC size handed to PCD (0 = keep the DoubleCheckerOptions
  /// default). Oversized SCCs degrade to potential violations.
  uint32_t MaxSccTxs = 0;
  /// VectorClock mode: collector trigger in finished transactions (0 =
  /// keep the VectorClockOptions default). Tiny values stress mark-sweep
  /// over live subscription lists.
  uint32_t VcCollectEveryTx = 0;
  /// Streaming service mode (DESIGN.md §15): run a retirement-window flush
  /// every N finished transactions (0 = batch mode, no windows). Honoured
  /// by the DoubleChecker and VectorClock engines; Velodrome keeps its
  /// whole-run graph and ignores it.
  uint32_t WindowTxs = 0;
  /// Live event stream: wired as the ViolationLog sink plus the engines'
  /// window/fault hooks, so a supervisor sees verdicts as they are
  /// confirmed instead of at end of run. Borrowed; may be null.
  rt::StreamingSession *Session = nullptr;
  /// Chrome-trace timeline recorder (chrome://tracing). Borrowed; null
  /// disables trace capture.
  TraceRecorder *Trace = nullptr;
  /// Required for SecondRun / SecondRunVelodrome.
  const analysis::StaticTransactionInfo *StaticInfo = nullptr;
};

/// What one run produced.
struct RunOutcome {
  rt::RunResult Result;
  std::vector<analysis::ViolationRecord> Violations;
  /// Names of blamed (original) methods — the unit Table 2 counts.
  std::set<std::string> BlamedMethods;
  /// Names of methods reported only as *potential* violations (degraded
  /// SCCs: oversized, shed logs, or PCD faults — DESIGN.md §10). A sound
  /// run's BlamedMethods ∪ PotentialMethods covers every true violation.
  std::set<std::string> PotentialMethods;
  /// ICD SCC static sites (multi-run first-run output; filled for every
  /// DoubleChecker mode).
  analysis::StaticTransactionInfo StaticInfo;
  /// Snapshot of all statistics counters ("icd.*", "octet.*", "pcd.*",
  /// "velodrome.*").
  std::map<std::string, uint64_t> Stats;

  uint64_t stat(const std::string &Name) const {
    auto It = Stats.find(Name);
    return It == Stats.end() ? 0 : It->second;
  }
};

/// Compiles \p Source against \p Spec per \p Cfg, runs it, and returns the
/// outcome. Each call is an independent execution.
RunOutcome runChecker(const ir::Program &Source, const AtomicitySpec &Spec,
                      const RunConfig &Cfg);

} // namespace core
} // namespace dc

#endif // DC_CORE_CHECKER_H
