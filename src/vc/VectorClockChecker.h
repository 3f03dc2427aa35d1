//===- vc/VectorClockChecker.h - Vector-clock atomicity engine --*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third atomicity backend: conflict-serializability checking with
/// per-transaction vector clocks instead of an explicit dependence graph —
/// no SCC pass, no cross-run replay. Inspired by Mathur & Viswanathan's
/// AeroDrome ("Atomicity Checking in Linear Time using Vector Clocks",
/// ASPLOS 2020); see DESIGN.md §14 for the exact algorithm used here and
/// its equivalence argument against the graph engines.
///
/// Per transaction T the engine keeps a clock `T.Known` with
/// `Known[t] = s` meaning thread t's transaction with sequence number ≤ s
/// is known to reach T (including T itself: `Known[T.Tid] = T.Seq`).
/// Velodrome's per-field conflict rules (last writer + readers-since) produce
/// exactly the same conflict edges as the graph engines; instead of
/// inserting an edge S→C into a graph, the engine
///
///   1. checks `S.Known[C.Tid] >= C.Seq` — true iff C already reaches S,
///      i.e. the new edge closes a cycle: report a violation, and
///   2. joins S.Known into C.Known and *subscribes* C to S, so that if S
///      later learns about more predecessors (its clock grows), that
///      knowledge is pushed to C transitively (a monotone worklist).
///
/// The push-based propagation is what makes the clock representation exact
/// rather than a lossy snapshot: edges can arrive at a transaction after
/// its successors were linked (a still-running transaction keeps receiving
/// in-edges), and per-thread program order keeps each thread's component of
/// every clock downward-closed, so the single comparison in step 1 decides
/// reachability exactly. Blame is per closing edge (the accessing
/// transaction's site when regular) — coarser than the graph engines'
/// whole-cycle scan, but always a subset of the oracle's cycle methods.
///
//===----------------------------------------------------------------------===//

#ifndef DC_VC_VECTORCLOCKCHECKER_H
#define DC_VC_VECTORCLOCKCHECKER_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis/Violation.h"
#include "rt/CheckerRuntime.h"
#include "rt/Runtime.h"
#include "support/SpinLock.h"
#include "support/Statistic.h"
#include "vc/VectorClock.h"

namespace dc {
namespace vc {

struct VectorClockOptions {
  /// Disable the cycle (reachability) check while still tracking clocks.
  bool DetectCycles = true;
  /// Collector trigger, in finished transactions.
  uint32_t CollectEveryTx = 8192;
  /// Streaming service mode: run one window flush (a forced collection plus
  /// a WindowHook callback) every this many finished transactions. The
  /// engine's verdicts are per-edge and never deferred, so windowing cannot
  /// change them — flushes only bound memory and pace the event stream.
  uint32_t WindowTxs = 0;
  /// Called after each window flush with a post-flush health snapshot.
  std::function<void(const rt::HealthSnapshot &)> WindowHook;
};

/// The vector-clock engine attached to one execution.
class VectorClockRuntime final : public rt::CheckerRuntime {
public:
  VectorClockRuntime(const ir::Program &P, VectorClockOptions Opts,
                     analysis::ViolationLog &Violations,
                     StatisticRegistry &Stats);
  ~VectorClockRuntime() override;

  void beginRun(rt::Runtime &RT) override;
  void endRun(rt::Runtime &RT) override;
  void threadStarted(rt::ThreadContext &TC) override;
  void threadExiting(rt::ThreadContext &TC) override;
  void txBegin(rt::ThreadContext &TC, const ir::Method &M) override;
  void txEnd(rt::ThreadContext &TC, const ir::Method &M) override;
  void instrumentedAccess(rt::ThreadContext &TC, const rt::AccessInfo &Info,
                          function_ref<void()> Access) override;
  void syncOp(rt::ThreadContext &TC, const rt::AccessInfo &Info,
              rt::SyncKind Kind) override;
  void healthSnapshot(rt::HealthSnapshot &H) override;
  bool windowFlush() override;

private:
  /// One transaction's clock state. Unlike analysis::Transaction there is
  /// no out-edge list — only the clock and the subscriber list that keeps
  /// it exact under late-arriving predecessors.
  struct VcTxn {
    VcTxn(uint64_t Id, uint32_t Tid, uint64_t Seq, ir::MethodId Site,
          bool Regular, uint32_t NumThreads)
        : Id(Id), Tid(Tid), Seq(Seq), Site(Site), Regular(Regular),
          Known(NumThreads), Pred(NumThreads, nullptr) {
      Known.set(Tid, Seq);
    }
    uint64_t Id;
    uint32_t Tid;
    uint64_t Seq;
    ir::MethodId Site;
    bool Regular;
    /// A cross edge touched this unary transaction; the next access on its
    /// thread must start a fresh unary span (same demarcation as the graph
    /// engines). Atomic: read outside EngineLock on the access fast path.
    std::atomic<bool> Interrupted{false};
    /// txEnd ran: the transaction stays its thread's CurrTx, but the next
    /// txBegin or checked access starts its successor. Set by the owner
    /// thread without EngineLock; the collector reads it under the lock.
    std::atomic<bool> Finished{false};
    /// A violation with this transaction as closing-edge target was already
    /// reported (one report per cycle, matching the graph engines).
    bool Reported = false;
    /// The clock is final: a collection found this transaction outside the
    /// growable set (see collectLocked). It still sources edges and blame
    /// walks, but no edge may target it and its Subs are dropped.
    bool Sealed = false;
    uint64_t MarkEpoch = 0;
    /// Transactions known to reach this one, as highest-sequence-per-thread.
    VectorClock Known;
    /// Per-slot provenance: Pred[t] is the join partner whose clock
    /// supplied Known.get(t)'s *current* value (an immediate graph
    /// predecessor of this transaction — every join mirrors a real PO,
    /// conflict, or propagation edge). The report-time blame walk follows
    /// Pred[Dst->Tid] backward from a closing edge's source: each visited
    /// transaction X has Known[Dst->Tid] >= Dst->Seq (Dst reaches X via
    /// program order through Dst's thread) and reaches the source via the
    /// join edges walked, so with the closing edge Src->Dst every member of
    /// the walk provably lies on a dependence cycle. Maintained under
    /// EngineLock. Liveness marking follows Subs (forward), not Pred, so a
    /// sweep can free a provider that live consumers still point at —
    /// collectLocked nulls every Pred entry whose target is unmarked before
    /// deleting anything. A nulled entry just truncates the walk (fewer
    /// cycle members reported), never changes a verdict.
    std::vector<VcTxn *> Pred;
    /// Successors to push clock growth to (both conflict and program-order
    /// edges subscribe). Empty once Sealed: a final clock never pushes.
    std::vector<VcTxn *> Subs;
    /// The most recent conflict-edge target, kept apart from Subs so the
    /// consecutive-duplicate edge dedupe stays exact after a seal clears
    /// Subs. Cleared by txEnd, without EngineLock, and nulled when its
    /// target is swept (DESIGN.md §14, "Transaction lifecycle and
    /// locking").
    std::atomic<VcTxn *> LastSub{nullptr};
  };

  struct alignas(64) PerThread {
    std::atomic<VcTxn *> CurrTx{nullptr};
    /// Per-thread transaction sequence numbers start at 1 so clock slot 0
    /// means "no transaction of that thread known".
    uint64_t NextSeq = 1;
    uint64_t Accesses = 0;
    /// Accesses whose metadata update took EngineLock (cross edges).
    uint64_t EngineLockAccesses = 0;
    /// Reads that completed without the field lock (see FieldMeta::Seq),
    /// and validated reads that a write overlapped, which then took it.
    uint64_t ValidatedReads = 0;
    uint64_t ValidatedReadRetries = 0;
    /// This thread's transactions not yet swept. Guarded by EngineLock.
    std::vector<VcTxn *> Owned;
  };

  /// Per-field metadata: the last writer plus, in the field's row of
  /// ReaderSlots, each thread's last reader since that write. Every field
  /// owns its lock and a cache line, so threads locking different fields
  /// never share a line. All stores happen under Lock alone and write null
  /// or the accessing thread's current transaction; EngineLock is taken
  /// only to add cross edges. The stores are release stores so the
  /// collector, which holds EngineLock but not Lock, can scan LastWrite and
  /// the reader slots with acquire loads (DESIGN.md §14, "Collection").
  struct alignas(64) FieldMeta {
    SpinLock Lock;
    /// Non-null slots in this field's reader row.
    uint32_t NumReaders = 0;
    /// Write sequence: odd while a write, under Lock, changes the metadata
    /// and stores the value. A read whose reader slot already holds its
    /// transaction validates against it instead of taking Lock.
    std::atomic<uint32_t> Seq{0};
    std::atomic<VcTxn *> LastWrite{nullptr};
  };

  /// Can \p Tx still gain an in-edge? Only its thread's access can add
  /// one, and that access starts a successor first unless Tx is unfinished
  /// and regular or not yet interrupted.
  static bool isOpen(const VcTxn *Tx) {
    return !Tx->Finished.load(std::memory_order_relaxed) &&
           (Tx->Regular || !Tx->Interrupted.load(std::memory_order_relaxed));
  }
  /// Makes a new transaction thread \p Tid's CurrTx, after the current one. Returns the
  /// finished-transaction count when the current one was still running and
  /// ends here, else 0; the caller passes it to runBoundary once it holds
  /// no lock. Caller holds EngineLock.
  uint64_t startTransactionLocked(uint32_t Tid, ir::MethodId Site,
                                  bool Regular);
  /// startTransactionLocked under EngineLock, then runBoundary.
  void startTransaction(uint32_t Tid, ir::MethodId Site, bool Regular);
  VcTxn *currentForAccess(rt::ThreadContext &TC);
  /// \p Cur if it is not Sealed, else a fresh unary transaction replacing
  /// it. A collection can interrupt and seal the accessing thread's unary
  /// transaction after currentForAccess returned it; this rotates exactly
  /// as currentForAccess would have, and sets \p Finished as
  /// startTransactionLocked returns it. Caller holds EngineLock.
  VcTxn *edgeTargetLocked(uint32_t Tid, VcTxn *Cur, uint64_t &Finished);
  /// Counts one finished transaction; returns the new count.
  uint64_t countFinished() {
    return FinishedTxs.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Runs the window flush or collection that finished-transaction count
  /// \p Finished closes, if any (0 closes none). Caller holds no lock.
  void runBoundary(uint64_t Finished);
  /// Conflict edge Src->Dst: cycle check, join, subscribe, propagate.
  /// Caller holds EngineLock.
  void addEdgeLocked(VcTxn *Src, VcTxn *Dst);
  /// Pushes \p From's clock to its subscribers until no clock grows.
  void propagateLocked(VcTxn *From);
  void reportViolationLocked(VcTxn *Src, VcTxn *Dst);
  /// Mark-sweep. Moves the swept transactions to \p Swept, for the caller
  /// to delete once it has released EngineLock.
  void collectLocked(std::vector<VcTxn *> &Swept);
  /// A collection; with \p Window, one retirement-window boundary: the
  /// collection, the counters published to Stats and a WindowHook call.
  /// The engine's verdicts are per-edge and never deferred, so a flush
  /// cannot change them — it only bounds memory and paces the event
  /// stream, hence always "clean" (no degradation ladder here).
  void collect(bool Window);
  /// Fills the EngineLock-guarded fields of \p H; the caller adds the
  /// Stats snapshot after releasing the lock.
  void fillHealthLocked(rt::HealthSnapshot &H);
  /// Adds the growth of the EngineLock-guarded counters since the last call
  /// to Stats, so window flushes publish them mid-run and endRun the rest.
  void publishCountersLocked();
  /// Transactions not yet swept, across all threads.
  uint64_t liveTxsLocked();

  const ir::Program &P;
  VectorClockOptions Opts;
  analysis::ViolationLog &Violations;
  StatisticRegistry &Stats;

  std::unique_ptr<PerThread[]> Threads;
  uint32_t NumThreads = 0;

  std::vector<FieldMeta> Fields;
  /// Reader slots, one row of NumThreads per field: slot
  /// `Addr * NumThreads + Tid` holds thread Tid's last reader of field Addr
  /// since the field's last write.
  std::unique_ptr<std::atomic<VcTxn *>[]> ReaderSlots;

  /// Guards transaction creation, clocks, subscriptions and collection;
  /// txEnd takes it only to collect, and an access only to add cross edges
  /// or start a successor.
  /// Lock order: field lock, then EngineLock; WindowMu, then EngineLock.
  /// No field lock or EngineLock is held when WindowMu is taken.
  SpinLock EngineLock;
  /// Serializes window flushes, so window events leave in flush order
  /// while the hook runs outside EngineLock.
  std::mutex WindowMu;
  /// Finished transactions; window and collection intervals count them.
  std::atomic<uint64_t> FinishedTxs{0};
  uint64_t NextTxId = 0;
  uint64_t CrossEdges = 0;
  uint64_t Joins = 0;
  uint64_t EpochJoins = 0;
  uint64_t Propagations = 0;
  uint64_t ViolationCount = 0;
  uint64_t MarkEpoch = 0;
  uint64_t CollectorRuns = 0;
  uint64_t CollectorNs = 0;
  uint64_t TxsSwept = 0;
  uint64_t TxsSealed = 0;
  uint64_t WindowsFlushed = 0;
  /// Live txs surviving the latest window flush (HealthSnapshot::PinnedTxs).
  uint64_t WindowPinnedLast = 0;
  /// The counter values publishCountersLocked last added to Stats.
  static constexpr size_t NumPublished = 10;
  uint64_t Published[NumPublished] = {};
  uint64_t PublishedWindows = 0;
  /// Reused propagation worklist (avoids per-edge allocation).
  std::vector<VcTxn *> Worklist;
};

} // namespace vc
} // namespace dc

#endif // DC_VC_VECTORCLOCKCHECKER_H
