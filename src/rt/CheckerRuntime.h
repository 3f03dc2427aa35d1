//===- rt/CheckerRuntime.h - Hook interface for dynamic analyses -*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter drives a CheckerRuntime through these hooks. The paper's
/// analyses plug in here:
///   * DoubleChecker (ICD [+PCD]) implements instrumentedAccess by running
///     the Octet barrier, optionally appending to the read/write log, and
///     then performing the wrapped heap access;
///   * Velodrome implements it by locking the field's metadata word,
///     updating last-accesses / the transaction graph, performing the heap
///     access inside the critical section (analysis-access atomicity), and
///     unlocking.
/// safePoint() is polled between instructions — never between a barrier and
/// its access, which execute fused inside instrumentedAccess — and is where
/// Octet's explicit coordination protocol responds to requests.
///
//===----------------------------------------------------------------------===//

#ifndef DC_RT_CHECKERRUNTIME_H
#define DC_RT_CHECKERRUNTIME_H

#include <cstdint>
#include <map>
#include <string>

#include "ir/Ir.h"
#include "rt/Heap.h"
#include "support/FunctionRef.h"

namespace dc {
namespace rt {

class Runtime;
struct ThreadContext;
struct RunResult;

/// Structured checker-internal failure classification. A stalled or dead
/// component never hangs the run or calls abort(): the watchdog diagnoses
/// which component went silent and the run terminates with this code in
/// RunResult::Fault plus a human-readable diagnosis string.
enum class CheckerFault : uint8_t {
  None = 0,
  GateStall,       ///< The scheduler gate made no progress (wedged run).
  WindowFlushStall, ///< A streaming window flush could not quiesce within
                    ///< its bounded waits (wedged drain inside a window).
};

const char *toString(CheckerFault F);

/// One step of the sound degradation ladder (DESIGN.md §10), recorded in
/// RunResult::Degradation. Stamps are deterministic logical times (the
/// checker's order clock or an SCC's max member end time), never
/// wall-clock, so the same schedule + FaultPlan yields the same report.
struct DegradationEvent {
  enum class Action : uint8_t {
    PotentialOnly, ///< An SCC was reported as potential violations instead
                   ///< of being precisely replayed (oversized, shed member,
                   ///< or oversized incremental region).
    ShedLogging,   ///< A thread dropped from single-run to ICD-only.
    Rearm,         ///< The thread resumed full logging.
  };
  Action A = Action::PotentialOnly;
  uint32_t Tid = 0;    ///< Logical thread (ShedLogging/Rearm) or 0.
  uint64_t Stamp = 0;  ///< Deterministic logical time of the transition.

  bool operator==(const DegradationEvent &O) const {
    return A == O.A && Tid == O.Tid && Stamp == O.Stamp;
  }
};

const char *toString(DegradationEvent::Action A);

/// A point-in-time view of a *running* checker, for streaming service mode
/// (DESIGN.md §15). Unlike reportHealth — which runs once after endRun on
/// quiesced state — healthSnapshot() is callable from any thread mid-run,
/// so everything here is assembled from atomics plus the registry's
/// consistent-cut snapshot; per-thread unsynchronized counters (flushed
/// only at endRun) are deliberately absent.
struct HealthSnapshot {
  uint64_t WindowIndex = 0;  ///< Retirement windows flushed so far.
  uint64_t FinishedTxs = 0;  ///< Transactions ended so far.
  uint64_t LiveTxs = 0;      ///< Allocated, not-yet-retired transactions.
  uint64_t RetiredTxs = 0;   ///< Cumulative transactions swept.
  uint64_t SealedTxs = 0;    ///< Cumulative transactions sealed: kept, but
                             ///< no longer traced by the collector.
  uint64_t PinnedTxs = 0;    ///< Live txs surviving the latest window flush
                             ///< (cross-window state carried forward).
  uint64_t CrossEdges = 0;   ///< Cross-thread dependence edges so far.
  uint64_t Violations = 0;   ///< Violation records so far.
  uint64_t Degradations = 0; ///< Degradation-ladder events so far.
  CheckerFault Fault = CheckerFault::None;
  std::string FaultDiagnosis;
  bool StatsStable = true; ///< Stats below form one consistent cut.
  std::map<std::string, uint64_t> Stats;
};

/// Kinds of synchronization events routed through syncOp().
enum class SyncKind : uint8_t {
  MonitorEnter, ///< Acquire-like: treated as a read of the sync slot.
  MonitorExit,  ///< Release-like: treated as a write of the sync slot.
  WaitRelease,  ///< wait() releasing the monitor (write).
  WaitAcquire,  ///< wait() reacquiring after wakeup (read).
  Notify,       ///< notify()/notifyAll() (write).
  Fork,         ///< Parent forking a thread (write of its thread object).
  ThreadBegin,  ///< First action of a started thread (read).
  ThreadEnd,    ///< Last action of a finishing thread (write).
  Join,         ///< Parent observing a joined thread (read).
};

/// Returns true if \p K is release-like, i.e. modelled as a write.
inline bool isReleaseLike(SyncKind K) {
  return K == SyncKind::MonitorExit || K == SyncKind::WaitRelease ||
         K == SyncKind::Notify || K == SyncKind::Fork ||
         K == SyncKind::ThreadEnd;
}

/// Describes one (possibly instrumented) shared-memory access.
struct AccessInfo {
  ObjectId Obj = 0;
  FieldAddr Addr = 0;
  bool IsWrite = false;
  bool IsSync = false;
  uint8_t Flags = ir::IF_None; ///< ir::InstrFlags of the access site.
};

/// Interface the interpreter calls into. The default implementation is a
/// no-op checker (useful as a base and for overhead experiments).
class CheckerRuntime {
public:
  virtual ~CheckerRuntime();

  /// Called once before any program thread runs / after all have finished.
  virtual void beginRun(Runtime &RT) {}
  virtual void endRun(Runtime &RT) {}

  /// Per-thread lifecycle. threadStarted runs on the new thread before its
  /// first instruction; threadExiting runs after its last.
  virtual void threadStarted(ThreadContext &TC) {}
  virtual void threadExiting(ThreadContext &TC) {}

  /// A regular transaction begins/ends (compiled method with
  /// StartsTransaction, called from a non-transactional context).
  virtual void txBegin(ThreadContext &TC, const ir::Method &M) {}
  virtual void txEnd(ThreadContext &TC, const ir::Method &M) {}

  /// An access whose instruction carries instrumentation flags. \p Access
  /// performs the underlying heap operation; implementations decide where
  /// it runs relative to their analysis. A read's \p Access only loads the
  /// value into a local of the caller, which applies the last load after
  /// this hook returns, so an implementation may run it more than once (a
  /// validated read that loses a race with a writer drops its value and
  /// loads again). A write's \p Access stores, and must run exactly once.
  virtual void instrumentedAccess(ThreadContext &TC, const AccessInfo &Info,
                                  function_ref<void()> Access) {
    Access();
  }

  /// A synchronization event, already modelled as a read or write of the
  /// object's sync slot in \p Info (Info.IsSync is true).
  virtual void syncOp(ThreadContext &TC, const AccessInfo &Info,
                      SyncKind Kind) {}

  /// Polled between instructions; a safe point in Octet's sense.
  virtual void safePoint(ThreadContext &TC) {}

  /// The thread is about to block (monitor, wait, join, scheduler gate) /
  /// has resumed. Octet flips its per-thread status here so requesters can
  /// use the implicit coordination protocol on blocked threads.
  virtual void aboutToBlock(ThreadContext &TC) {}
  virtual void unblocked(ThreadContext &TC) {}

  /// Called once after endRun(), with the assembled RunResult: checkers
  /// fill in Fault / FaultDiagnosis / Degradation (rt/Runtime.h).
  virtual void reportHealth(RunResult &R) {}

  /// Streaming service mode: fills \p H with a point-in-time health view.
  /// Callable from any thread at any moment of a run (unlike reportHealth,
  /// which requires quiesced end-of-run state). The default leaves the
  /// zero-initialized snapshot, meaning "this checker has no mid-run
  /// health".
  virtual void healthSnapshot(HealthSnapshot &H) {}

  /// Streaming service mode: forces a window boundary *now* — flush
  /// pending cycle-detection work, complete in-flight precise replays, and
  /// retire every quiescent transaction (windowed engines override this;
  /// the scheduled every-N-transactions boundary calls the same path).
  /// Returns false if the flush could not fully quiesce and degraded
  /// instead (a structured fault/Potential report, never a silent drop).
  virtual bool windowFlush() { return true; }
};

} // namespace rt
} // namespace dc

#endif // DC_RT_CHECKERRUNTIME_H
