//===- rt/Runtime.cpp -----------------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/Runtime.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

using namespace dc;
using namespace dc::rt;

namespace {
constexpr uint32_t NoOwner = ~0u;
constexpr auto WaitSlice = std::chrono::milliseconds(10);
/// wait() gives up (a legal spurious wakeup) after this long, so a lost
/// notify cannot hang a run: ~5 s in free-running mode, or this many
/// scheduler turns in deterministic mode.
constexpr unsigned SpuriousWakeupSlices = 500;
constexpr unsigned SpuriousWakeupRetries = 100000;
} // namespace

//===----------------------------------------------------------------------===//
// Deterministic gate
//===----------------------------------------------------------------------===//

/// Admits one runnable thread at a time. A thread "holds the turn" while it
/// executes; yieldTurn() hands the turn to the next scheduled candidate and
/// blocks until the turn comes back. Threads blocked here are at safe points
/// and are marked blocked for the checker, so Octet's implicit coordination
/// protocol applies to them.
///
/// Decisions go: explicit schedule entries first, then the Scheduler
/// strategy (RunOptions::CustomScheduler if set, else one built from
/// Strategy/ScheduleSeed). The gate tracks which candidates are *spinning* —
/// their last admission was a blocked retry and no other thread has executed
/// a real instruction since — and hands that plus per-thread progress counts
/// to the strategy (see rt/Scheduler.h).
class Runtime::Gate {
public:
  Gate(Runtime &RT, uint32_t NumThreads, const RunOptions &Opts)
      : RT(RT), Candidate(NumThreads, false), Spinning(NumThreads, false),
        Progress(NumThreads, 0), Explicit(Opts.ExplicitSchedule),
        Exhaust(Opts.OnScheduleExhausted), Record(Opts.ScheduleOut) {
    Candidate[0] = true; // Main thread starts holding the turn.
    if (Opts.CustomScheduler) {
      Sched = Opts.CustomScheduler;
    } else {
      Owned = makeScheduler(Opts.Strategy, Opts.ScheduleSeed, NumThreads,
                            Opts.PctChangePoints, Opts.PctExpectedSteps);
      Sched = Owned.get();
    }
    if (Record)
      Record->clear();
  }

  /// Marks \p Tid schedulable (called by the forking thread, which holds
  /// the turn, before the OS thread launches).
  void addCandidate(uint32_t Tid) {
    std::lock_guard<std::mutex> L(M);
    Candidate[Tid] = true;
  }

  /// Blocks until \p TC holds the turn (first action of a new thread).
  void waitTurn(ThreadContext &TC) {
    std::unique_lock<std::mutex> L(M);
    if (Turn == TC.Tid)
      return;
    blockUntilTurn(TC, L);
  }

  /// Ends this thread's turn and blocks until its next one. \p Blocked
  /// marks the admission just ending as a blocked retry (monitor enter,
  /// wait, join) that made no progress.
  void yieldTurn(ThreadContext &TC, bool Blocked = false) {
    std::unique_lock<std::mutex> L(M);
    assert(Turn == TC.Tid && "yielding a turn the thread does not hold");
    noteOutcome(TC.Tid, Blocked);
    pickNext();
    if (Turn == TC.Tid)
      return;
    CV.notify_all();
    blockUntilTurn(TC, L);
  }

  /// Removes a finishing thread and passes the turn on.
  void finishThread(ThreadContext &TC) {
    std::lock_guard<std::mutex> L(M);
    Candidate[TC.Tid] = false;
    noteOutcome(TC.Tid, /*Blocked=*/false);
    if (Turn == TC.Tid) {
      pickNext();
      CV.notify_all();
    }
  }

  bool scheduleDiverged() const {
    return Diverged.load(std::memory_order_relaxed);
  }

private:
  void blockUntilTurn(ThreadContext &TC, std::unique_lock<std::mutex> &L) {
    if (TC.Checker)
      TC.Checker->aboutToBlock(TC);
    while (Turn != TC.Tid && !RT.abortFlag().load(std::memory_order_relaxed))
      CV.wait_for(L, WaitSlice);
    L.unlock();
    if (TC.Checker)
      TC.Checker->unblocked(TC);
  }

  /// Updates spinning flags when \p Tid ends an admission. A real
  /// instruction may have changed what other blocked threads are waiting
  /// on, so it clears every flag; a blocked retry changes nothing except
  /// marking the retrier itself.
  void noteOutcome(uint32_t Tid, bool Blocked) {
    if (Blocked) {
      Spinning[Tid] = true;
      return;
    }
    std::fill(Spinning.begin(), Spinning.end(), false);
    ++Progress[Tid];
  }

  /// Flags the explicit schedule as failing to describe this execution and
  /// aborts the run (HardError policy only). Caller holds M. A run that
  /// was already aborted (step budget, gate-stall watchdog) stops short of
  /// its schedule by design, so the unconsumed tail is not a divergence:
  /// it is reported as the abort it is.
  void divergeSchedule() {
    if (!RT.abortFlag().load(std::memory_order_relaxed))
      Diverged.store(true, std::memory_order_relaxed);
    RT.requestAbort();
    CV.notify_all();
  }

  /// Chooses the next candidate: explicit schedule entries first, then the
  /// strategy. Caller holds M.
  void pickNext() {
    while (Pos < Explicit.size()) {
      uint32_t T = Explicit[Pos++];
      if (T < Candidate.size() && Candidate[T]) {
        admit(T);
        return;
      }
      if (Exhaust == ScheduleExhaustPolicy::HardError) {
        divergeSchedule();
        return;
      }
      // Fallback: skip entries naming non-runnable threads.
    }
    uint32_t Live = 0;
    for (bool C : Candidate)
      Live += C;
    if (Live == 0)
      return; // Last thread finishing; nobody to hand to.
    if (!Explicit.empty() && Exhaust == ScheduleExhaustPolicy::HardError) {
      // The schedule ran out while threads are still live: the replayed
      // execution is longer than the recorded one.
      divergeSchedule();
      return;
    }
    SchedulerView View{Candidate, Spinning, Progress, Picks};
    uint32_t T = Sched->pick(View);
    if (T >= Candidate.size() || !Candidate[T]) {
      // Defensive: a buggy strategy must not wedge the gate.
      for (T = 0; T < Candidate.size() && !Candidate[T]; ++T)
        ;
    }
    admit(T);
  }

  void admit(uint32_t T) {
    Turn = T;
    ++Picks;
    if (Record)
      Record->push_back(T);
  }

  Runtime &RT;
  std::mutex M;
  std::condition_variable CV;
  uint32_t Turn = 0;
  std::vector<bool> Candidate;
  std::vector<bool> Spinning;
  std::vector<uint64_t> Progress;
  std::vector<uint32_t> Explicit;
  size_t Pos = 0;
  uint64_t Picks = 0;
  ScheduleExhaustPolicy Exhaust;
  std::vector<uint32_t> *Record;
  std::unique_ptr<Scheduler> Owned;
  Scheduler *Sched = nullptr;
  std::atomic<bool> Diverged{false};
};

//===----------------------------------------------------------------------===//
// Monitors, wait/notify, thread completion
//===----------------------------------------------------------------------===//

/// Java-style reentrant monitor. All fields guarded by SyncLayer::Mutex.
struct Runtime::Monitor {
  uint32_t Owner = NoOwner;
  uint32_t Depth = 0;
  uint32_t Waiters = 0; ///< Threads inside wait().
  uint32_t Woken = 0;   ///< Pending notify() quota.
  std::condition_variable EnterCV;
  std::condition_variable WaitCV;
};

/// One global mutex guards all monitor and thread-completion state; each
/// monitor has its own condition variables. Blocking paths integrate with
/// the deterministic gate (busy retry) and the checker's blocked status.
class Runtime::SyncLayer {
public:
  explicit SyncLayer(Runtime &RT) : RT(RT), Finished(RT.numThreads()) {
    for (auto &F : Finished)
      F.store(false, std::memory_order_relaxed);
  }

  void enter(ThreadContext &TC, ObjectId Obj) {
    for (;;) {
      {
        std::unique_lock<std::mutex> L(Mutex);
        Monitor &Mon = monitor(Obj);
        if (Mon.Owner == TC.Tid) {
          ++Mon.Depth;
          return;
        }
        if (Mon.Owner == NoOwner) {
          Mon.Owner = TC.Tid;
          Mon.Depth = 1;
          return;
        }
        if (!RT.TheGate) {
          if (TC.Checker)
            TC.Checker->aboutToBlock(TC);
          while (Mon.Owner != NoOwner && !aborted())
            Mon.EnterCV.wait_for(L, WaitSlice);
          if (!aborted()) {
            Mon.Owner = TC.Tid;
            Mon.Depth = 1;
          }
          L.unlock();
          if (TC.Checker)
            TC.Checker->unblocked(TC);
          return;
        }
      }
      // Deterministic mode: retry on our next turn.
      if (aborted())
        return;
      RT.countStep(TC);
      RT.TheGate->yieldTurn(TC, /*Blocked=*/true);
    }
  }

  void exit(ThreadContext &TC, ObjectId Obj) {
    std::lock_guard<std::mutex> L(Mutex);
    Monitor &Mon = monitor(Obj);
    assert(Mon.Owner == TC.Tid && "releasing a monitor the thread holds not");
    if (--Mon.Depth == 0) {
      Mon.Owner = NoOwner;
      Mon.EnterCV.notify_one();
    }
  }

  /// Full wait(): caller holds the monitor; releases it, sleeps until
  /// notified (or abort), reacquires at the saved depth.
  void wait(ThreadContext &TC, ObjectId Obj) {
    uint32_t SavedDepth;
    {
      std::unique_lock<std::mutex> L(Mutex);
      Monitor &Mon = monitor(Obj);
      assert(Mon.Owner == TC.Tid && "wait() without holding the monitor");
      SavedDepth = Mon.Depth;
      Mon.Owner = NoOwner;
      Mon.Depth = 0;
      Mon.EnterCV.notify_one();
      ++Mon.Waiters;
      if (!RT.TheGate) {
        // One blocked episode spans both the notification wait and the
        // reacquisition wait. Like Java's wait(), we permit spurious
        // wakeups: a bounded wait keeps lost-notify races from hanging
        // the runtime forever.
        if (TC.Checker)
          TC.Checker->aboutToBlock(TC);
        unsigned Slices = 0;
        while (Mon.Woken == 0 && !aborted() && Slices++ < SpuriousWakeupSlices)
          Mon.WaitCV.wait_for(L, WaitSlice);
        if (Mon.Woken > 0)
          --Mon.Woken;
        --Mon.Waiters;
        while (Mon.Owner != NoOwner && !aborted())
          Mon.EnterCV.wait_for(L, WaitSlice);
        if (!aborted()) {
          Mon.Owner = TC.Tid;
          Mon.Depth = SavedDepth;
        }
        L.unlock();
        if (TC.Checker)
          TC.Checker->unblocked(TC);
        return;
      }
    }
    // Deterministic mode: poll for a notification, then reacquire. The
    // retry bound gives Java-style spurious wakeups instead of hangs.
    for (unsigned Retries = 0;; ++Retries) {
      if (aborted())
        return;
      RT.countStep(TC);
      RT.TheGate->yieldTurn(TC, /*Blocked=*/true);
      std::lock_guard<std::mutex> L(Mutex);
      Monitor &Mon = monitor(Obj);
      if (Mon.Woken > 0 || Retries >= SpuriousWakeupRetries) {
        if (Mon.Woken > 0)
          --Mon.Woken;
        --Mon.Waiters;
        break;
      }
    }
    for (;;) {
      if (aborted())
        return;
      {
        std::lock_guard<std::mutex> L(Mutex);
        Monitor &Mon = monitor(Obj);
        if (Mon.Owner == NoOwner) {
          Mon.Owner = TC.Tid;
          Mon.Depth = SavedDepth;
          return;
        }
      }
      RT.countStep(TC);
      RT.TheGate->yieldTurn(TC, /*Blocked=*/true);
    }
  }

  void notify(ThreadContext &TC, ObjectId Obj, bool All) {
    std::lock_guard<std::mutex> L(Mutex);
    Monitor &Mon = monitor(Obj);
    assert(Mon.Owner == TC.Tid && "notify() without holding the monitor");
    if (All)
      Mon.Woken = Mon.Waiters;
    else if (Mon.Woken < Mon.Waiters)
      ++Mon.Woken;
    Mon.WaitCV.notify_all();
  }

  void markFinished(uint32_t Tid) {
    std::lock_guard<std::mutex> L(Mutex);
    Finished[Tid].store(true, std::memory_order_release);
    JoinCV.notify_all();
  }

  bool isFinished(uint32_t Tid) const {
    return Finished[Tid].load(std::memory_order_acquire);
  }

  void awaitFinished(ThreadContext &TC, uint32_t Tid) {
    if (!RT.TheGate) {
      if (isFinished(Tid))
        return;
      std::unique_lock<std::mutex> L(Mutex);
      if (TC.Checker)
        TC.Checker->aboutToBlock(TC);
      while (!Finished[Tid].load(std::memory_order_acquire) && !aborted())
        JoinCV.wait_for(L, WaitSlice);
      L.unlock();
      if (TC.Checker)
        TC.Checker->unblocked(TC);
      return;
    }
    while (!isFinished(Tid) && !aborted()) {
      RT.countStep(TC);
      RT.TheGate->yieldTurn(TC, /*Blocked=*/true);
    }
  }

private:
  bool aborted() const {
    return RT.abortFlag().load(std::memory_order_relaxed);
  }

  Monitor &monitor(ObjectId Obj) {
    auto It = Monitors.find(Obj);
    if (It != Monitors.end())
      return *It->second;
    auto *Mon = new Monitor();
    Monitors.emplace(Obj, std::unique_ptr<Monitor>(Mon));
    return *Mon;
  }

  Runtime &RT;
  std::mutex Mutex;
  std::condition_variable JoinCV;
  std::unordered_map<ObjectId, std::unique_ptr<Monitor>> Monitors;
  std::vector<std::atomic<bool>> Finished;
};

//===----------------------------------------------------------------------===//
// Runtime
//===----------------------------------------------------------------------===//

Runtime::Runtime(const ir::Program &P, CheckerRuntime *Checker,
                 RunOptions Opts)
    : P(P), Checker(Checker), Opts(Opts),
      TheHeap(P, static_cast<uint32_t>(P.ThreadEntries.size())),
      Contexts(P.ThreadEntries.size()), Threads(P.ThreadEntries.size()) {
  for (uint32_t T = 0; T < numThreads(); ++T) {
    ThreadContext &TC = Contexts[T];
    TC.Tid = T;
    TC.RT = this;
    TC.Checker = Checker;
    TC.Rng = SplitMix64(P.Seed ^ (0x100000001b3ULL * (T + 1)));
  }
  Sync = std::make_unique<SyncLayer>(*this);
  if (Opts.Deterministic)
    TheGate = std::make_unique<Gate>(*this, numThreads(), Opts);
}

Runtime::~Runtime() {
  requestAbort();
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
}

RunResult Runtime::run() {
  assert(!HasRun && "Runtime::run() may only be called once");
  HasRun = true;
  auto Start = std::chrono::steady_clock::now();
  if (Checker)
    Checker->beginRun(*this);

  threadMain(0);

  // The program should join its workers; tolerate ones it did not.
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();

  if (Checker)
    Checker->endRun(*this);
  auto End = std::chrono::steady_clock::now();

  RunResult R;
  R.WallSeconds = std::chrono::duration<double>(End - Start).count();
  for (const ThreadContext &TC : Contexts)
    R.Steps += TC.LocalSteps;
  R.Aborted = Aborted.load(std::memory_order_relaxed);
  if (TheGate)
    R.ScheduleDiverged = TheGate->scheduleDiverged();
  if (Checker)
    Checker->reportHealth(R);
  return R;
}

void Runtime::threadMain(uint32_t Tid) {
  ThreadContext &TC = Contexts[Tid];
  if (TheGate)
    TheGate->waitTurn(TC);
  if (Checker) {
    Checker->threadStarted(TC);
    syncEvent(TC, TheHeap.threadObject(Tid), SyncKind::ThreadBegin,
              P.ThreadSyncFlags);
  }

  interpretMethod(TC, P.Methods[P.ThreadEntries[Tid]], /*Param=*/0);

  if (Checker) {
    syncEvent(TC, TheHeap.threadObject(Tid), SyncKind::ThreadEnd,
              P.ThreadSyncFlags);
    Checker->threadExiting(TC);
  }
  Sync->markFinished(Tid);
  if (TheGate)
    TheGate->finishThread(TC);
}

void Runtime::interpretMethod(ThreadContext &TC, const ir::Method &M,
                              int64_t Param) {
  int64_t SavedParam = TC.Param;
  TC.Param = Param;
  bool StartsTx = M.StartsTransaction && Checker != nullptr;
  if (StartsTx)
    Checker->txBegin(TC, M);
  execBlock(TC, M.Body);
  if (StartsTx)
    Checker->txEnd(TC, M);
  TC.Param = SavedParam;
}

void Runtime::execBlock(ThreadContext &TC,
                        const std::vector<ir::Instr> &Block) {
  for (const ir::Instr &I : Block) {
    if (Aborted.load(std::memory_order_relaxed))
      return;
    preStep(TC);
    execInstr(TC, I);
  }
}

void Runtime::preStep(ThreadContext &TC) {
  countStep(TC);
  if (TheGate)
    TheGate->yieldTurn(TC);
  else if (Opts.PreemptEveryN != 0 &&
           TC.LocalSteps % Opts.PreemptEveryN == 0)
    std::this_thread::yield();
  if (Checker)
    Checker->safePoint(TC);
}

void Runtime::countStep(ThreadContext &TC) {
  if ((++TC.LocalSteps & 1023) != 0)
    return;
  uint64_t Total = GlobalSteps.fetch_add(1024, std::memory_order_relaxed);
  if (Total >= Opts.MaxSteps)
    requestAbort();
}

uint64_t Runtime::evalExpr(ThreadContext &TC, const ir::IndexExpr &E) {
  int64_t Base = 0;
  switch (E.K) {
  case ir::IndexExpr::Kind::Const:
    break;
  case ir::IndexExpr::Kind::LoopVar:
    assert(E.LoopDepth < TC.LoopVars.size() && "loop variable out of scope");
    Base = static_cast<int64_t>(
        TC.LoopVars[TC.LoopVars.size() - 1 - E.LoopDepth]);
    break;
  case ir::IndexExpr::Kind::ThreadId:
    Base = TC.Tid;
    break;
  case ir::IndexExpr::Kind::Param:
    Base = TC.Param;
    break;
  case ir::IndexExpr::Kind::Random:
    Base = static_cast<int64_t>(TC.Rng.next() >> 1);
    break;
  }
  int64_t V = E.Scale * Base + E.Offset;
  if (E.Mod != 0) {
    int64_t Mod = static_cast<int64_t>(E.Mod);
    V %= Mod;
    if (V < 0)
      V += Mod;
  }
  assert(V >= 0 && "index expressions must evaluate non-negative");
  return static_cast<uint64_t>(V);
}

void Runtime::syncEvent(ThreadContext &TC, ObjectId Obj, SyncKind Kind,
                        uint8_t Flags) {
  if (!Checker)
    return;
  AccessInfo Info;
  Info.Obj = Obj;
  Info.Addr = TheHeap.syncAddr(Obj);
  Info.IsWrite = isReleaseLike(Kind);
  Info.IsSync = true;
  Info.Flags = Flags;
  Checker->syncOp(TC, Info, Kind);
}

void Runtime::forkThread(ThreadContext &TC, uint32_t Child) {
  assert(Child < numThreads() && "fork of unknown thread");
  assert(Child != TC.Tid && "thread cannot fork itself");
  assert(!Threads[Child].joinable() && "thread forked twice");
  // Release-like write on the child's thread object happens-before the
  // child's first action.
  syncEvent(TC, TheHeap.threadObject(Child), SyncKind::Fork,
            P.ThreadSyncFlags);
  if (TheGate)
    TheGate->addCandidate(Child);
  Threads[Child] = std::thread([this, Child] { threadMain(Child); });
}

void Runtime::joinThread(ThreadContext &TC, uint32_t Child) {
  assert(Child < numThreads() && "join of unknown thread");
  Sync->awaitFinished(TC, Child);
  // Acquire-like read after the child's release-like ThreadEnd write.
  syncEvent(TC, TheHeap.threadObject(Child), SyncKind::Join,
            P.ThreadSyncFlags);
}

void Runtime::execInstr(ThreadContext &TC, const ir::Instr &I) {
  switch (I.Op) {
  case ir::Opcode::Read:
  case ir::Opcode::ReadElem: {
    ObjectId Obj = TheHeap.objectOf(I.Obj.Pool, evalExpr(TC, I.Obj.Index));
    FieldAddr Addr = TheHeap.fieldAddr(Obj, evalExpr(TC, I.A));
    auto DoRead = [&] { TC.Accumulator ^= TheHeap.load(Addr); };
    if ((I.Flags & ir::IF_Hooked) && Checker) {
      AccessInfo Info{Obj, Addr, /*IsWrite=*/false, /*IsSync=*/false,
                      I.Flags};
      Checker->instrumentedAccess(TC, Info, DoRead);
    } else {
      DoRead();
    }
    break;
  }
  case ir::Opcode::Write:
  case ir::Opcode::WriteElem: {
    ObjectId Obj = TheHeap.objectOf(I.Obj.Pool, evalExpr(TC, I.Obj.Index));
    FieldAddr Addr = TheHeap.fieldAddr(Obj, evalExpr(TC, I.A));
    auto DoWrite = [&] { TheHeap.store(Addr, TC.Accumulator + 1); };
    if ((I.Flags & ir::IF_Hooked) && Checker) {
      AccessInfo Info{Obj, Addr, /*IsWrite=*/true, /*IsSync=*/false, I.Flags};
      Checker->instrumentedAccess(TC, Info, DoWrite);
    } else {
      DoWrite();
    }
    break;
  }
  case ir::Opcode::Acquire: {
    ObjectId Obj = TheHeap.objectOf(I.Obj.Pool, evalExpr(TC, I.Obj.Index));
    Sync->enter(TC, Obj);
    syncEvent(TC, Obj, SyncKind::MonitorEnter, I.Flags);
    break;
  }
  case ir::Opcode::Release: {
    ObjectId Obj = TheHeap.objectOf(I.Obj.Pool, evalExpr(TC, I.Obj.Index));
    syncEvent(TC, Obj, SyncKind::MonitorExit, I.Flags);
    Sync->exit(TC, Obj);
    break;
  }
  case ir::Opcode::Wait: {
    ObjectId Obj = TheHeap.objectOf(I.Obj.Pool, evalExpr(TC, I.Obj.Index));
    syncEvent(TC, Obj, SyncKind::WaitRelease, I.Flags);
    Sync->wait(TC, Obj);
    if (!Aborted.load(std::memory_order_relaxed))
      syncEvent(TC, Obj, SyncKind::WaitAcquire, I.Flags);
    break;
  }
  case ir::Opcode::Notify:
  case ir::Opcode::NotifyAll: {
    ObjectId Obj = TheHeap.objectOf(I.Obj.Pool, evalExpr(TC, I.Obj.Index));
    syncEvent(TC, Obj, SyncKind::Notify, I.Flags);
    Sync->notify(TC, Obj, I.Op == ir::Opcode::NotifyAll);
    break;
  }
  case ir::Opcode::Call:
    interpretMethod(TC, P.Methods[I.Callee],
                    static_cast<int64_t>(evalExpr(TC, I.A)));
    break;
  case ir::Opcode::Fork:
    forkThread(TC, static_cast<uint32_t>(evalExpr(TC, I.A)));
    break;
  case ir::Opcode::Join:
    joinThread(TC, static_cast<uint32_t>(evalExpr(TC, I.A)));
    break;
  case ir::Opcode::Loop: {
    uint64_t Trips = evalExpr(TC, I.A);
    TC.LoopVars.push_back(0);
    for (uint64_t T = 0; T < Trips; ++T) {
      if (Aborted.load(std::memory_order_relaxed))
        break;
      TC.LoopVars.back() = T;
      execBlock(TC, I.Body);
    }
    TC.LoopVars.pop_back();
    break;
  }
  case ir::Opcode::Work: {
    uint64_t Units = evalExpr(TC, I.A);
    uint64_t Acc = static_cast<uint64_t>(TC.Accumulator);
    for (uint64_t U = 0; U < Units; ++U)
      Acc = Acc * 6364136223846793005ULL + 1442695040888963407ULL;
    TC.Accumulator = static_cast<int64_t>(Acc);
    break;
  }
  }
}
