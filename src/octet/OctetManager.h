//===- octet/OctetManager.h - Octet barriers and coordination ---*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements Octet's read/write barriers and the coordination protocol for
/// conflicting transitions (Table 1 of the paper):
///
///  * Fast paths are synchronization-free checks of the object's state word.
///  * Upgrading transitions (RdEx_T -> WrEx_T by T, RdEx_T1 -> RdSh by T2)
///    are single CAS operations; RdSh upgrades stamp a fresh value of the
///    global gRdShCnt counter, globally ordering all transitions to RdSh.
///  * Fence transitions update the reader's per-thread rdShCnt and issue an
///    acquire fence, establishing happens-before from the RdSh transition.
///  * Conflicting transitions park the object in an intermediate state and
///    perform a roundtrip with each responding thread: the *explicit*
///    protocol posts a request the responder answers at its next safe
///    point; the *implicit* protocol places a hold on a blocked responder
///    and handles the transition on its behalf.
///
/// Coordination is *pipelined* (DESIGN.md §11): phase 1 walks all
/// responders once — blocked responders are handled implicitly on the spot,
/// executing responders get a request posted from the requester's pooled
/// per-responder request block — and phase 2 waits for every outstanding
/// request together. All coordination waits (outstanding requests, the
/// IntWrEx/IntRdEx loops, hold release) spin a bounded number of times and
/// then park on a per-thread futex word; wakers check a Dekker-paired
/// Parked flag so the common uncontended case costs one load.
///
/// An OctetListener observes the transitions; ICD implements it to build
/// the imprecise dependence graph (Figure 4 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef DC_OCTET_OCTETMANAGER_H
#define DC_OCTET_OCTETMANAGER_H

#include <atomic>
#include <memory>
#include <vector>

#include "octet/OctetState.h"
#include "rt/Heap.h"
#include "rt/ThreadContext.h"
#include "support/Statistic.h"

namespace dc {
namespace octet {

/// Describes one conflicting transition for listener callbacks.
struct Transition {
  uint32_t Requester = 0;
  rt::ObjectId Obj = 0;
  OctetState Old;
  OctetState New;
};

/// Observer of Octet state transitions. Callbacks may run on the requester
/// *or* the responder thread (implicit vs. explicit protocol), exactly as in
/// the paper; implementations must synchronize their own state.
///
/// Call contract the sharded IDG relies on (DESIGN.md §7 and §11):
///  * Every callback runs on the OS thread currently executing some checker
///    hook (a barrier, pollSafePoint, aboutToBlock/unblocked), never on a
///    manager-internal thread.
///  * During onConflictingEdge, *both* endpoint threads are quiescent with
///    respect to their current transactions: the requester named in T is
///    the caller or is waiting in phase 2 of its coordination (it polls
///    safe points and may park, but cannot begin or end a transaction), and
///    the responder is at its own safe point (explicit protocol), at its
///    blocking point or blocked-and-held (implicit protocol), or exited.
///    Neither endpoint can swap its current transaction out from under the
///    listener.
///  * Quiescence is NOT mutual exclusion: callbacks naming the same
///    responder may run concurrently on different OS threads. That was
///    already true of the seed protocol (any number of requesters may hold
///    one blocked responder simultaneously); the pipelined fan-out adds the
///    overlap of one requester's explicit drain with another's implicit
///    roundtrip and with the responder's own post-block sweep. What the
///    contract guarantees is only that the *endpoints' transactions* are
///    frozen for the duration of every such callback. Implementations must
///    serialize their own per-responder state; the sharded IDG does so by
///    taking the responder's stripe lock inside every edge insertion, which
///    DESIGN.md §11 re-derives as sufficient.
///  * onBecameRdEx(Tid) always runs on thread Tid itself.
///  * onUpgradeToRdSh / onFence run on the reading thread \p Tid. The old
///    owner is *not* quiesced for these — it may be logging concurrently —
///    but any entries it races into its current transaction are reads of
///    the upgraded object, which commute with the sink's accesses (see
///    Transaction.h on conservative SrcPos sampling).
class OctetListener {
public:
  virtual ~OctetListener();

  /// A conflicting transition's roundtrip with responder \p RespTid
  /// completed; called once per responder (RdSh -> WrEx coordinates with
  /// every other thread). Runs in the responder's context: on the responder
  /// at its safe point (explicit) or on the requester holding the blocked
  /// responder (implicit).
  virtual void onConflictingEdge(uint32_t RespTid, const Transition &T) {}

  /// The object entered RdEx owned by \p Tid (conflicting transition to
  /// RdEx, or first read of an untouched object). ICD updates T.lastRdEx.
  /// Always called on thread \p Tid.
  virtual void onBecameRdEx(uint32_t Tid) {}

  /// Upgrading transition RdEx_{OldOwner} -> RdSh_{Counter} performed by
  /// reader \p Tid (and called on it).
  virtual void onUpgradeToRdSh(uint32_t Tid, uint32_t OldOwner,
                               uint64_t Counter) {}

  /// Fence transition: \p Tid read an RdSh object with a newer counter than
  /// its thread-local rdShCnt. Called on thread \p Tid.
  virtual void onFence(uint32_t Tid) {}
};

/// Per-object state machine plus per-thread coordination state for one run.
class OctetManager {
public:
  /// \p Listener may be null (barrier-cost experiments). \p Abort, when
  /// non-null, makes coordination waits bail out (posted requests are
  /// cancelled, never abandoned).
  OctetManager(rt::Heap &Heap, uint32_t NumThreads, OctetListener *Listener,
               StatisticRegistry &Stats,
               const std::atomic<bool> *Abort = nullptr);
  ~OctetManager();

  OctetManager(const OctetManager &) = delete;
  OctetManager &operator=(const OctetManager &) = delete;

  void threadStarted(uint32_t Tid);
  void threadExited(uint32_t Tid);

  /// The write barrier: ensures Obj is WrEx_{TC.Tid} (Table 1).
  void writeBarrier(rt::ThreadContext &TC, rt::ObjectId Obj) {
    uint64_t Word =
        Heap.object(Obj).MetaWord.load(std::memory_order_acquire);
    if (Word == encodeOwned(StateKind::WrEx, TC.Tid)) {
      ++counters(TC.Tid).FastWrite;
      return;
    }
    slowWrite(TC, Obj);
  }

  /// The read barrier: ensures Obj is readable by TC.Tid (Table 1).
  void readBarrier(rt::ThreadContext &TC, rt::ObjectId Obj) {
    uint64_t Word =
        Heap.object(Obj).MetaWord.load(std::memory_order_acquire);
    StateKind Kind = kindOf(Word);
    uint64_t Payload = payloadOf(Word);
    if (((Kind == StateKind::WrEx || Kind == StateKind::RdEx) &&
         Payload == TC.Tid) ||
        (Kind == StateKind::RdSh && rdShCnt(TC.Tid) >= Payload)) {
      ++counters(TC.Tid).FastRead;
      return;
    }
    slowRead(TC, Obj);
  }

  /// Responds to pending explicit-protocol requests. Must be called only at
  /// safe points (between an access and its barrier is *not* safe). The
  /// empty-mailbox check is seq_cst so it pairs with the seq_cst mailbox
  /// push: a requester that parks after posting cannot have its request
  /// overlooked by every subsequent poll (on x86 a seq_cst load is an
  /// ordinary load, so the fast path is unchanged).
  void pollSafePoint(uint32_t Tid) {
    if (mailboxHead(Tid).load(std::memory_order_seq_cst) != nullptr)
      drainMailbox(Tid);
  }

  /// Blocked-state bookkeeping for the implicit protocol.
  void aboutToBlock(uint32_t Tid);
  void unblocked(uint32_t Tid);

  /// Decodes the current state of \p Obj (tests and diagnostics).
  OctetState stateOf(rt::ObjectId Obj) const {
    return decodeState(Heap.object(Obj).MetaWord.load(
        std::memory_order_acquire));
  }

  /// Current value of the global RdSh counter.
  uint64_t globalRdShCounter() const {
    return GRdShCnt.load(std::memory_order_relaxed);
  }

  /// Whether \p Tid is currently parked on its wait word (tests only —
  /// lets a slow-responder test hold back until the requester has really
  /// exhausted its spin budget, instead of sleeping and hoping).
  bool isParkedForTest(uint32_t Tid) const {
    return Threads[Tid].Parked.load(std::memory_order_seq_cst) != 0;
  }

  /// Flushes per-thread counters into the statistics registry
  /// ("octet.*" counters). Call after the run.
  void flushStatistics();

private:
  struct Request;

  /// Number of conflicting-transition kinds tracked by the per-kind
  /// roundtrip counters: RdSh->WrEx, WrEx->WrEx, WrEx->RdEx, RdEx->WrEx.
  static constexpr unsigned NumKinds = 4;

  /// Per-thread slice of the barrier counters (flushed at the end of the
  /// run so the hot path never touches shared counters).
  struct Counters {
    uint64_t FastRead = 0;
    uint64_t FastWrite = 0;
    uint64_t Claims = 0; ///< First accesses of untouched objects.
    uint64_t Conflicting = 0;
    uint64_t UpgradeWrEx = 0;
    uint64_t UpgradeRdSh = 0;
    uint64_t Fence = 0;
    uint64_t ExplicitRoundtrips = 0;
    uint64_t ImplicitRoundtrips = 0;
    uint64_t WaitSpins = 0; ///< Spin iterations across all protocol waits.
    uint64_t Parks = 0;     ///< Futex parks after the spin bound.
    uint64_t FanoutBatches = 0;    ///< Pipelined coordinations performed.
    uint64_t FanoutResponders = 0; ///< Responders across those batches.
    uint64_t CancelledRequests = 0; ///< Requests retired by the abort path.
    uint64_t ExplicitByKind[NumKinds] = {0, 0, 0, 0};
    uint64_t ImplicitByKind[NumKinds] = {0, 0, 0, 0};
  };

  /// Per-thread coordination state. Status bit 0 = blocked; the upper bits
  /// count holds placed by requesters running the implicit protocol.
  /// Threads begin blocked (a not-yet-started thread cannot respond).
  ///
  /// WakeSeq/Parked implement spin-then-park: a thread parks only on its
  /// *own* WakeSeq (one futex word per thread, regardless of what it waits
  /// for), after publishing Parked with seq_cst and re-checking its wait
  /// condition. Wakers mutate the condition (seq_cst), then bump WakeSeq
  /// and futex-wake only if they observe Parked — the Dekker pairing that
  /// makes a lost wakeup impossible and the no-waiter case a single load.
  ///
  /// Requests lives here too: one slot per responder tid, owned by this
  /// thread as *requester*. Slots outlive every mailbox they are linked
  /// into, which is what makes the abort path sound (see Request).
  struct alignas(64) PerThread {
    std::atomic<uint64_t> Status{1};
    std::atomic<Request *> MailboxHead{nullptr};
    uint64_t RdShCnt = 0;
    std::atomic<uint32_t> WakeSeq{0};
    std::atomic<uint32_t> Parked{0};
    std::unique_ptr<Request[]> Requests;
    std::vector<uint32_t> PostedScratch; ///< Phase-1 posted-responder list.
    Counters C;
  };

  void slowRead(rt::ThreadContext &TC, rt::ObjectId Obj);
  void slowWrite(rt::ThreadContext &TC, rt::ObjectId Obj);

  /// Runs the coordination protocol taking Obj from \p OldWord (already
  /// replaced by the matching intermediate state) to \p NewWord. Returns
  /// after all responder roundtrips complete and the final state is
  /// installed.
  void coordinate(rt::ThreadContext &TC, rt::ObjectId Obj, uint64_t OldWord,
                  uint64_t NewWord);

  /// Pipelined coordination: phase 1 visits every responder once, phase 2
  /// waits for all posted requests together.
  void fanOut(rt::ThreadContext &TC, const Transition &T, unsigned Kind);
  void visitResponder(rt::ThreadContext &TC, uint32_t RespTid,
                      const Transition &T, unsigned Kind,
                      std::vector<uint32_t> &Posted);
  void waitForRequests(rt::ThreadContext &TC, unsigned Kind,
                       const std::vector<uint32_t> &Posted);

  /// A responder observed blocked after our request was pushed: hold it and
  /// drain on its behalf so the request is not stranded while it sleeps.
  void rescueBlocked(rt::ThreadContext &TC, uint32_t RespTid);

  /// Abort-path retirement of this requester's slot for \p RespTid; returns
  /// once no drainer can touch the slot again (Cancelled, or waited-out
  /// Done).
  void cancelRequest(rt::ThreadContext &TC, uint32_t RespTid);
  void cancelOutstanding(rt::ThreadContext &TC,
                         const std::vector<uint32_t> &Posted);

  /// Drops one implicit-protocol hold and wakes the responder if it is
  /// parked in unblocked() waiting for the hold count to reach zero.
  void releaseHold(uint32_t RespTid);

  /// Bumps \p Tid's WakeSeq and futex-wakes it — but only if its Parked
  /// flag is set (the waker must have already mutated the wait condition
  /// with seq_cst ordering; see PerThread).
  void maybeWake(uint32_t Tid);

  /// Parks the calling thread \p Tid on its own WakeSeq unless \p Ready()
  /// holds, the abort flag is set, or (\p CheckMailbox) a request is
  /// pending in its mailbox. Returns after one bounded sleep or wake;
  /// callers loop around their full recheck.
  template <typename ReadyFn>
  void parkSelf(uint32_t Tid, bool CheckMailbox, ReadyFn Ready);

  void drainMailbox(uint32_t Tid);
  void notifyConflicting(uint32_t RespTid, const Transition &T);

  std::atomic<Request *> &mailboxHead(uint32_t Tid) {
    return Threads[Tid].MailboxHead;
  }
  uint64_t &rdShCnt(uint32_t Tid) { return Threads[Tid].RdShCnt; }
  Counters &counters(uint32_t Tid) { return Threads[Tid].C; }

  bool aborted() const {
    return Abort != nullptr && Abort->load(std::memory_order_relaxed);
  }

  rt::Heap &Heap;
  uint32_t NumThreads;
  OctetListener *Listener;
  StatisticRegistry &Stats;
  const std::atomic<bool> *Abort;
  std::atomic<uint64_t> GRdShCnt{0};
  std::vector<PerThread> Threads;
};

} // namespace octet
} // namespace dc

#endif // DC_OCTET_OCTETMANAGER_H
