//===- rt/Runtime.h - Threaded interpreter for IR programs ------*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a (possibly instrumented) ir::Program: one OS thread per program
/// thread, a shared Heap, reentrant per-object monitors with wait/notify,
/// and fork/join. Safe points sit at instruction boundaries; instrumented
/// accesses run barrier+access fused (see rt/CheckerRuntime.h).
///
/// Two scheduling modes:
///  * free-running — threads race naturally; used for performance runs,
///  * deterministic — a gate admits one runnable thread per instruction,
///    following an explicit schedule and/or a seeded RNG; threads waiting
///    at the gate count as blocked for the checker (Octet then uses its
///    implicit coordination protocol), so tests replay exact interleavings.
///
//===----------------------------------------------------------------------===//

#ifndef DC_RT_RUNTIME_H
#define DC_RT_RUNTIME_H

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "ir/Ir.h"
#include "rt/CheckerRuntime.h"
#include "rt/Heap.h"
#include "rt/Scheduler.h"
#include "rt/ThreadContext.h"

namespace dc {
namespace rt {

/// Execution-mode knobs for one run.
struct RunOptions {
  /// Serialize execution to one thread per instruction boundary.
  bool Deterministic = false;
  /// Seeds the deterministic scheduler's choices (after ExplicitSchedule).
  uint64_t ScheduleSeed = 0;
  /// Deterministic mode: thread ids to run, consumed one per instruction.
  /// What happens when an entry is unusable or the list runs short is
  /// governed by OnScheduleExhausted.
  std::vector<uint32_t> ExplicitSchedule;
  /// Deterministic mode: behaviour when ExplicitSchedule does not cover the
  /// execution. Fallback (default) skips entries naming non-runnable
  /// threads and hands over to the seeded strategy once the list is
  /// exhausted; HardError aborts the run and sets
  /// RunResult::ScheduleDiverged (what replay-based tooling wants).
  ScheduleExhaustPolicy OnScheduleExhausted = ScheduleExhaustPolicy::Fallback;
  /// Deterministic mode: strategy used after ExplicitSchedule (ignored when
  /// CustomScheduler is set).
  ScheduleStrategy Strategy = ScheduleStrategy::Random;
  /// PCT only: number of priority change points (bug depth - 1).
  uint32_t PctChangePoints = 3;
  /// PCT only: admission-count horizon change points are sampled over
  /// (0 = implementation default).
  uint64_t PctExpectedSteps = 0;
  /// Deterministic mode: non-owning scheduler override (the exhaustive
  /// explorer plugs in here). Must outlive the run; takes precedence over
  /// Strategy/ScheduleSeed.
  Scheduler *CustomScheduler = nullptr;
  /// Deterministic mode: when set, every admitted thread id is appended —
  /// the executed schedule, replayable via ExplicitSchedule. Non-owning.
  std::vector<uint32_t> *ScheduleOut = nullptr;
  /// Abort guard: total instructions (including blocked retries) across all
  /// threads before the run is forcibly aborted.
  uint64_t MaxSteps = 1ull << 33;
  /// Free-running mode: yield the OS timeslice every N instructions
  /// (0 = never). Coarsens to real preemption on few-core hosts so
  /// interleavings actually occur; deterministic mode ignores it.
  uint64_t PreemptEveryN = 0;
};

/// Outcome of one run.
struct RunResult {
  double WallSeconds = 0;
  uint64_t Steps = 0;
  bool Aborted = false;
  /// ExplicitSchedule failed to cover the execution under
  /// ScheduleExhaustPolicy::HardError (implies Aborted). Never set when the
  /// run had already aborted for another reason: an abort is reported as
  /// an abort, not as a divergence.
  bool ScheduleDiverged = false;
  /// First checker-internal fault (watchdog diagnosis); None on a healthy
  /// run. Filled by CheckerRuntime::reportHealth.
  CheckerFault Fault = CheckerFault::None;
  /// Human-readable component/phase diagnosis for Fault.
  std::string FaultDiagnosis;
  /// The degradation ladder's structured transition report, in
  /// deterministic-stamp order (see DegradationEvent).
  std::vector<DegradationEvent> Degradation;
};

/// Owns the heap, program threads, and synchronization for one execution.
class Runtime {
public:
  /// \p Checker may be null (uninstrumented baseline run). \p P must
  /// outlive the Runtime.
  Runtime(const ir::Program &P, CheckerRuntime *Checker,
          RunOptions Opts = RunOptions());
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Executes the program to completion (or abort). Runs the program's
  /// main thread on the calling thread. May be called once.
  RunResult run();

  Heap &heap() { return TheHeap; }
  const ir::Program &program() const { return P; }
  uint32_t numThreads() const {
    return static_cast<uint32_t>(P.ThreadEntries.size());
  }

  /// Cooperative abort: blocking loops poll this. Checkers' spin loops
  /// should poll it too.
  const std::atomic<bool> &abortFlag() const { return Aborted; }
  void requestAbort() { Aborted.store(true, std::memory_order_relaxed); }

private:
  class Gate;
  struct Monitor;
  class SyncLayer;

  void threadMain(uint32_t Tid);
  void interpretMethod(ThreadContext &TC, const ir::Method &M, int64_t Param);
  void execBlock(ThreadContext &TC, const std::vector<ir::Instr> &Block);
  void execInstr(ThreadContext &TC, const ir::Instr &I);
  uint64_t evalExpr(ThreadContext &TC, const ir::IndexExpr &E);
  void preStep(ThreadContext &TC);
  /// Counts one step toward the abort budget; used by blocked-retry loops.
  void countStep(ThreadContext &TC);
  void syncEvent(ThreadContext &TC, ObjectId Obj, SyncKind Kind,
                 uint8_t Flags);
  void forkThread(ThreadContext &TC, uint32_t Child);
  void joinThread(ThreadContext &TC, uint32_t Child);

  const ir::Program &P;
  CheckerRuntime *Checker;
  RunOptions Opts;
  Heap TheHeap;
  std::vector<ThreadContext> Contexts;
  std::vector<std::thread> Threads;
  std::unique_ptr<SyncLayer> Sync;
  std::unique_ptr<Gate> TheGate; ///< Non-null in deterministic mode.
  std::atomic<uint64_t> GlobalSteps{0};
  std::atomic<bool> Aborted{false};
  bool HasRun = false;
};

} // namespace rt
} // namespace dc

#endif // DC_RT_RUNTIME_H
