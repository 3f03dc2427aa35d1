//===- octet/OctetManager.cpp ---------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "octet/OctetManager.h"

#include <cassert>
#include <chrono>
#include <thread>

#include "support/SpinLock.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <ctime>
#endif

using namespace dc;
using namespace dc::octet;

namespace {
constexpr uint64_t StatusExecuting = 0;
constexpr uint64_t StatusBlockedBit = 1;
constexpr uint64_t HoldInc = 2;

bool isBlocked(uint64_t Status) { return (Status & StatusBlockedBit) != 0; }
uint64_t holdCount(uint64_t Status) { return Status >> 1; }

/// Spin iterations (each a YieldBackoff::pause, so mostly sched_yield once
/// warm) a coordination wait performs before parking on the futex word.
constexpr unsigned SpinsBeforePark = 64;

/// Parked threads must stay abort-responsive even if their waker dies (the
/// watchdog aborts runs whose workers are wedged), so every park is timed:
/// C++20 std::atomic::wait has no timeout, hence a raw futex with a 1 ms
/// slice on Linux and a bounded sleep elsewhere. The slice also bounds the
/// cost of any wakeup race the Dekker pairing does not cover to one
/// millisecond instead of a hang.
constexpr long ParkSliceNs = 1000000;

static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "futex parking requires a lock-free 32-bit atomic");

void parkWait(std::atomic<uint32_t> &Word, uint32_t Expected) {
#if defined(__linux__)
  timespec Ts = {0, ParkSliceNs};
  syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word), FUTEX_WAIT_PRIVATE,
          Expected, &Ts, nullptr, 0);
#else
  if (Word.load(std::memory_order_acquire) == Expected)
    std::this_thread::sleep_for(std::chrono::nanoseconds(ParkSliceNs));
#endif
}

void parkWake(std::atomic<uint32_t> &Word) {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word), FUTEX_WAKE_PRIVATE,
          1, nullptr, nullptr, 0);
#else
  (void)Word; // parkWait's bounded sleep substitutes for the wake.
#endif
}

/// Index into the per-kind roundtrip counters. The four conflicting
/// transitions of Table 1: RdSh->WrEx fans out to all threads; the other
/// three have a single responder.
unsigned kindIndex(const Transition &T) {
  if (T.Old.Kind == StateKind::RdSh)
    return 0; // rdsh_wrex
  if (T.Old.Kind == StateKind::WrEx)
    return T.New.Kind == StateKind::WrEx ? 1  // wrex_wrex
                                         : 2; // wrex_rdex
  return 3;                                   // rdex_wrex
}

const char *const KindNames[] = {"rdsh_wrex", "wrex_wrex", "wrex_rdex",
                                 "rdex_wrex"};
} // namespace

std::string octet::toString(const OctetState &S) {
  switch (S.Kind) {
  case StateKind::Untouched:
    return "Untouched";
  case StateKind::WrEx:
    return "WrEx(" + std::to_string(S.Owner) + ")";
  case StateKind::RdEx:
    return "RdEx(" + std::to_string(S.Owner) + ")";
  case StateKind::RdSh:
    return "RdSh(" + std::to_string(S.Counter) + ")";
  case StateKind::IntWrEx:
    return "IntWrEx(" + std::to_string(S.Owner) + ")";
  case StateKind::IntRdEx:
    return "IntRdEx(" + std::to_string(S.Owner) + ")";
  }
  return "?";
}

OctetListener::~OctetListener() = default;

/// An explicit-protocol request. Requests live in a per-requester pool with
/// one slot per responder tid (PerThread::Requests), so a responder-side
/// pointer can never dangle: the pool outlives every mailbox it is linked
/// into. (The seed stack-allocated requests in the roundtrip frame, and its
/// abort path could return while the request was still linked — a later
/// drain then wrote Done into a dead frame.)
///
/// A slot is at rest in Done. Posting arms it to Pending; a drainer claims
/// the exactly-once callback via CAS Pending->Taken and publishes Done; the
/// abort path retires a posted slot via CAS Pending->Cancelled — a drainer
/// that still holds it in a detached list skips non-Pending slots — and
/// waits out a slot already Taken.
struct OctetManager::Request {
  enum class State : uint8_t { Pending, Taken, Done, Cancelled };
  std::atomic<State> St{State::Done};
  std::atomic<Request *> Next{nullptr};
  Transition T;
};

OctetManager::OctetManager(rt::Heap &Heap, uint32_t NumThreads,
                           OctetListener *Listener, StatisticRegistry &Stats,
                           const std::atomic<bool> *Abort)
    : Heap(Heap), NumThreads(NumThreads), Listener(Listener), Stats(Stats),
      Abort(Abort), Threads(NumThreads) {
  for (uint32_t T = 0; T < NumThreads; ++T) {
    Threads[T].Requests = std::make_unique<Request[]>(NumThreads);
    Threads[T].PostedScratch.reserve(NumThreads);
  }
}

OctetManager::~OctetManager() = default;

void OctetManager::threadStarted(uint32_t Tid) {
  // Threads begin "blocked"; starting is an unblock (there may already be
  // holds from requesters that coordinated with the not-yet-started thread).
  unblocked(Tid);
}

void OctetManager::threadExited(uint32_t Tid) {
  // Exited threads stay blocked forever; requesters use the implicit
  // protocol against them.
  aboutToBlock(Tid);
}

void OctetManager::aboutToBlock(uint32_t Tid) {
  // A blocking point is a safe point: answer outstanding requests first so
  // none are stranded, then advertise the blocked state.
  drainMailbox(Tid);
  PerThread &T = Threads[Tid];
  assert(!isBlocked(T.Status.load(std::memory_order_relaxed)) &&
         "aboutToBlock on an already-blocked thread");
  T.Status.store(StatusBlockedBit, std::memory_order_seq_cst);
  // A requester may have loaded our Executing status and pushed between the
  // drain above and the store. Both sides of that race are seq_cst: the
  // pusher re-loads our Status after its push and rescues (hold + drain) if
  // it sees the blocked bit, and this second drain catches any push the
  // total order places before the store — so one of the two always answers
  // the request and a parked requester cannot be stranded (DESIGN.md §11).
  // The mailbox is almost always empty here and the re-drain is one load.
  drainMailbox(Tid);
}

void OctetManager::unblocked(uint32_t Tid) {
  PerThread &T = Threads[Tid];
  YieldBackoff BO;
  unsigned Spins = 0;
  for (;;) {
    uint64_t St = T.Status.load(std::memory_order_acquire);
    assert(isBlocked(St) && "unblocked() on an executing thread");
    while (holdCount(St) == 0) {
      if (T.Status.compare_exchange_weak(St, StatusExecuting,
                                         std::memory_order_acq_rel))
        return;
      // compare_exchange_weak reloaded St: retry immediately while the
      // hold count is still zero (spurious failure), fall through to the
      // backoff below once a requester has placed a new hold.
    }
    if (aborted()) {
      T.Status.store(StatusExecuting, std::memory_order_release);
      return;
    }
    if (Spins < SpinsBeforePark) {
      ++Spins;
      ++counters(Tid).WaitSpins;
      BO.pause();
      continue;
    }
    // Holds are released with seq_cst and releaseHold() wakes us; no
    // mailbox check — while we are blocked, whoever posted is responsible
    // for draining (rescue or hold), not us.
    parkSelf(Tid, /*CheckMailbox=*/false, [&T] {
      return holdCount(T.Status.load(std::memory_order_seq_cst)) == 0;
    });
  }
}

void OctetManager::slowRead(rt::ThreadContext &TC, rt::ObjectId Obj) {
  std::atomic<uint64_t> &Word = Heap.object(Obj).MetaWord;
  YieldBackoff BO;
  unsigned IntSpins = 0;
  for (;;) {
    if (aborted())
      return;
    uint64_t W = Word.load(std::memory_order_acquire);
    StateKind K = kindOf(W);
    uint64_t Pay = payloadOf(W);
    switch (K) {
    case StateKind::Untouched:
      // First accessor claims the object; no dependence possible.
      if (Word.compare_exchange_weak(W, encodeOwned(StateKind::RdEx, TC.Tid),
                                     std::memory_order_acq_rel)) {
        ++counters(TC.Tid).Claims;
        if (Listener)
          Listener->onBecameRdEx(TC.Tid);
        return;
      }
      break;
    case StateKind::WrEx:
      if (Pay == TC.Tid)
        return;
      // Conflicting transition WrEx_T1 -> RdEx_T2.
      if (Word.compare_exchange_weak(W, encodeOwned(StateKind::IntRdEx,
                                                    TC.Tid),
                                     std::memory_order_acq_rel)) {
        coordinate(TC, Obj, W, encodeOwned(StateKind::RdEx, TC.Tid));
        return;
      }
      break;
    case StateKind::RdEx: {
      if (Pay == TC.Tid)
        return;
      // Upgrading transition RdEx_T1 -> RdSh_c: a CAS stamping a fresh
      // global counter value; no coordination (T1 may keep reading).
      uint64_t C = GRdShCnt.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (Word.compare_exchange_weak(W, encodeRdSh(C),
                                     std::memory_order_acq_rel)) {
        rdShCnt(TC.Tid) = C;
        ++counters(TC.Tid).UpgradeRdSh;
        if (Listener)
          Listener->onUpgradeToRdSh(TC.Tid, static_cast<uint32_t>(Pay), C);
        return;
      }
      break; // Lost the race; the burned counter value is harmless.
    }
    case StateKind::RdSh:
      if (rdShCnt(TC.Tid) < Pay) {
        // Fence transition: catch this thread up to the RdSh counter,
        // establishing happens-before from the transition to RdSh.
        std::atomic_thread_fence(std::memory_order_acquire);
        rdShCnt(TC.Tid) = Pay;
        ++counters(TC.Tid).Fence;
        if (Listener)
          Listener->onFence(TC.Tid);
      }
      return;
    case StateKind::IntWrEx:
    case StateKind::IntRdEx:
      // Another thread's coordination is in flight. Waiting here is a safe
      // point — keep answering requests so two coordinating threads cannot
      // deadlock on each other. After the spin bound, park until the
      // coordinator's final store (which wakes intermediate waiters).
      pollSafePoint(TC.Tid);
      if (IntSpins < SpinsBeforePark) {
        ++IntSpins;
        ++counters(TC.Tid).WaitSpins;
        BO.pause();
      } else {
        parkSelf(TC.Tid, /*CheckMailbox=*/true, [&Word, W] {
          return Word.load(std::memory_order_seq_cst) != W;
        });
      }
      break;
    }
  }
}

void OctetManager::slowWrite(rt::ThreadContext &TC, rt::ObjectId Obj) {
  std::atomic<uint64_t> &Word = Heap.object(Obj).MetaWord;
  YieldBackoff BO;
  unsigned IntSpins = 0;
  for (;;) {
    if (aborted())
      return;
    uint64_t W = Word.load(std::memory_order_acquire);
    StateKind K = kindOf(W);
    uint64_t Pay = payloadOf(W);
    switch (K) {
    case StateKind::Untouched:
      if (Word.compare_exchange_weak(W, encodeOwned(StateKind::WrEx, TC.Tid),
                                     std::memory_order_acq_rel)) {
        ++counters(TC.Tid).Claims;
        return;
      }
      break;
    case StateKind::WrEx:
      if (Pay == TC.Tid)
        return;
      if (Word.compare_exchange_weak(W, encodeOwned(StateKind::IntWrEx,
                                                    TC.Tid),
                                     std::memory_order_acq_rel)) {
        coordinate(TC, Obj, W, encodeOwned(StateKind::WrEx, TC.Tid));
        return;
      }
      break;
    case StateKind::RdEx:
      if (Pay == TC.Tid) {
        // Upgrading transition RdEx_T -> WrEx_T; ICD safely ignores it
        // (any new dependence is already implied transitively).
        if (Word.compare_exchange_weak(W, encodeOwned(StateKind::WrEx,
                                                      TC.Tid),
                                       std::memory_order_acq_rel)) {
          ++counters(TC.Tid).UpgradeWrEx;
          return;
        }
        break;
      }
      if (Word.compare_exchange_weak(W, encodeOwned(StateKind::IntWrEx,
                                                    TC.Tid),
                                     std::memory_order_acq_rel)) {
        coordinate(TC, Obj, W, encodeOwned(StateKind::WrEx, TC.Tid));
        return;
      }
      break;
    case StateKind::RdSh:
      // Conflicting transition RdSh -> WrEx_T: coordinate with all other
      // threads (any of them may have been reading).
      if (Word.compare_exchange_weak(W, encodeOwned(StateKind::IntWrEx,
                                                    TC.Tid),
                                     std::memory_order_acq_rel)) {
        coordinate(TC, Obj, W, encodeOwned(StateKind::WrEx, TC.Tid));
        return;
      }
      break;
    case StateKind::IntWrEx:
    case StateKind::IntRdEx:
      pollSafePoint(TC.Tid);
      if (IntSpins < SpinsBeforePark) {
        ++IntSpins;
        ++counters(TC.Tid).WaitSpins;
        BO.pause();
      } else {
        parkSelf(TC.Tid, /*CheckMailbox=*/true, [&Word, W] {
          return Word.load(std::memory_order_seq_cst) != W;
        });
      }
      break;
    }
  }
}

void OctetManager::coordinate(rt::ThreadContext &TC, rt::ObjectId Obj,
                              uint64_t OldWord, uint64_t NewWord) {
  Transition T;
  T.Requester = TC.Tid;
  T.Obj = Obj;
  T.Old = decodeState(OldWord);
  T.New = decodeState(NewWord);
  ++counters(TC.Tid).Conflicting;
  fanOut(TC, T, kindIndex(T));

  // The final store ends the intermediate state; seq_cst pairs with the
  // Parked flag of threads spinning-then-parking on this word in
  // slowRead/slowWrite.
  Heap.object(Obj).MetaWord.store(NewWord, std::memory_order_seq_cst);
  for (uint32_t W = 0; W < NumThreads; ++W)
    if (W != TC.Tid)
      maybeWake(W);
  if (T.New.Kind == StateKind::RdEx && Listener)
    Listener->onBecameRdEx(TC.Tid);
}

void OctetManager::fanOut(rt::ThreadContext &TC, const Transition &T,
                          unsigned Kind) {
  // Phase 1: one walk over the responders. Blocked responders are held and
  // handled implicitly on the spot; executing responders get a request
  // posted from this thread's pooled per-responder block, without waiting
  // for the previous responder's answer.
  std::vector<uint32_t> &Posted = Threads[TC.Tid].PostedScratch;
  Posted.clear();
  Counters &C = counters(TC.Tid);
  uint32_t Responders = 0;
  if (T.Old.Kind == StateKind::RdSh) {
    for (uint32_t Resp = 0; Resp < NumThreads; ++Resp)
      if (Resp != TC.Tid) {
        ++Responders;
        visitResponder(TC, Resp, T, Kind, Posted);
      }
  } else {
    assert(T.Old.Owner != TC.Tid && "conflict with self");
    Responders = 1;
    visitResponder(TC, T.Old.Owner, T, Kind, Posted);
  }
  ++C.FanoutBatches;
  C.FanoutResponders += Responders;
  // Phase 2: wait for every outstanding request together.
  if (!Posted.empty())
    waitForRequests(TC, Kind, Posted);
}

void OctetManager::visitResponder(rt::ThreadContext &TC, uint32_t RespTid,
                                  const Transition &T, unsigned Kind,
                                  std::vector<uint32_t> &Posted) {
  PerThread &Resp = Threads[RespTid];
  Counters &C = counters(TC.Tid);
  for (;;) {
    if (aborted())
      return; // Requests already posted are cancelled by waitForRequests.
    uint64_t St = Resp.Status.load(std::memory_order_acquire);
    if (isBlocked(St)) {
      if (!Resp.Status.compare_exchange_weak(St, St + HoldInc,
                                             std::memory_order_acq_rel))
        continue;
      // Implicit protocol: the responder is blocked and held; act on its
      // behalf. Draining its mailbox also answers requests from other
      // requesters stranded by the block.
      drainMailbox(RespTid);
      notifyConflicting(RespTid, T);
      releaseHold(RespTid);
      ++C.ImplicitRoundtrips;
      ++C.ImplicitByKind[Kind];
      return;
    }
    // Responder is executing: explicit protocol. Arm this thread's slot for
    // RespTid and push it; the answer is collected in phase 2.
    Request &Req = Threads[TC.Tid].Requests[RespTid];
    assert(Req.St.load(std::memory_order_relaxed) == Request::State::Done &&
           "request slot reused while still in flight");
    Req.T = T;
    Req.St.store(Request::State::Pending, std::memory_order_relaxed);
    Request *Head = Resp.MailboxHead.load(std::memory_order_relaxed);
    do {
      Req.Next.store(Head, std::memory_order_relaxed);
    } while (!Resp.MailboxHead.compare_exchange_weak(
        Head, &Req, std::memory_order_seq_cst, std::memory_order_relaxed));
    maybeWake(RespTid);
    // The responder may have blocked between the status load above and the
    // push, with its pre-block drain missing the request. The push and this
    // re-load are seq_cst, pairing with aboutToBlock's store + re-drain: if
    // its second drain did not catch the request, we must see the blocked
    // bit here — rescue by draining on its behalf.
    if (isBlocked(Resp.Status.load(std::memory_order_seq_cst)))
      rescueBlocked(TC, RespTid);
    Posted.push_back(RespTid);
    return;
  }
}

void OctetManager::waitForRequests(rt::ThreadContext &TC, unsigned Kind,
                                   const std::vector<uint32_t> &Posted) {
  Counters &C = counters(TC.Tid);
  Request *Slots = Threads[TC.Tid].Requests.get();
  YieldBackoff BO;
  unsigned Spins = 0;
  for (;;) {
    bool AllDone = true;
    for (uint32_t Resp : Posted)
      if (Slots[Resp].St.load(std::memory_order_acquire) !=
          Request::State::Done) {
        AllDone = false;
        break;
      }
    if (AllDone)
      break;
    if (aborted()) {
      cancelOutstanding(TC, Posted);
      return;
    }
    // Waiting is a safe point ourselves: keep answering requests so
    // simultaneous coordinations cannot deadlock on each other.
    pollSafePoint(TC.Tid);
    if (Spins < SpinsBeforePark) {
      ++Spins;
      ++C.WaitSpins;
      BO.pause();
      continue;
    }
    // Before parking, sweep for responders that blocked with our request
    // still Pending. The post-time rescue already covers the race; this
    // cheap re-check (it runs at most once per park slice) keeps phase 2
    // live even across a missed edge, e.g. after a spurious timeout wake.
    for (uint32_t Resp : Posted)
      if (Slots[Resp].St.load(std::memory_order_acquire) ==
              Request::State::Pending &&
          isBlocked(Threads[Resp].Status.load(std::memory_order_acquire)))
        rescueBlocked(TC, Resp);
    // Each responder's Done store is seq_cst and wakes us via maybeWake;
    // the mailbox check keeps us responsive to requests posted while we
    // wait (no lost wakeup: the pusher's seq_cst push pairs with our
    // seq_cst Parked store).
    parkSelf(TC.Tid, /*CheckMailbox=*/true, [&] {
      for (uint32_t Resp : Posted)
        if (Slots[Resp].St.load(std::memory_order_seq_cst) !=
            Request::State::Done)
          return false;
      return true;
    });
  }
  C.ExplicitRoundtrips += Posted.size();
  C.ExplicitByKind[Kind] += Posted.size();
}

void OctetManager::rescueBlocked(rt::ThreadContext &TC, uint32_t RespTid) {
  PerThread &Resp = Threads[RespTid];
  for (;;) {
    uint64_t St = Resp.Status.load(std::memory_order_acquire);
    if (!isBlocked(St))
      return; // Running again: it drains at its next safe point or block.
    if (Resp.Status.compare_exchange_weak(St, St + HoldInc,
                                          std::memory_order_acq_rel)) {
      drainMailbox(RespTid);
      releaseHold(RespTid);
      return;
    }
  }
}

void OctetManager::cancelRequest(rt::ThreadContext &TC, uint32_t RespTid) {
  Request &Req = Threads[TC.Tid].Requests[RespTid];
  Request::State Expected = Request::State::Pending;
  if (Req.St.compare_exchange_strong(Expected, Request::State::Cancelled,
                                     std::memory_order_acq_rel)) {
    ++counters(TC.Tid).CancelledRequests;
    return;
  }
  // Already Done, or Taken by a drainer mid-callback: the drainer never
  // blocks between Taken and Done, so this wait is bounded.
  YieldBackoff BO;
  while (Req.St.load(std::memory_order_acquire) != Request::State::Done)
    BO.pause();
}

void OctetManager::cancelOutstanding(rt::ThreadContext &TC,
                                     const std::vector<uint32_t> &Posted) {
  for (uint32_t Resp : Posted)
    cancelRequest(TC, Resp);
}

void OctetManager::releaseHold(uint32_t RespTid) {
  Threads[RespTid].Status.fetch_sub(HoldInc, std::memory_order_seq_cst);
  // The responder may be parked in unblocked() waiting for zero holds.
  maybeWake(RespTid);
}

void OctetManager::maybeWake(uint32_t Tid) {
  PerThread &T = Threads[Tid];
  // Dekker pairing: the caller already mutated the wait condition with
  // seq_cst ordering; the parking side stores Parked (seq_cst) before
  // re-checking the condition. Whichever runs second in the total order
  // observes the other, so either we see Parked here or the parker sees
  // the new condition value and does not sleep.
  if (T.Parked.load(std::memory_order_seq_cst) != 0) {
    T.WakeSeq.fetch_add(1, std::memory_order_seq_cst);
    parkWake(T.WakeSeq);
  }
}

template <typename ReadyFn>
void OctetManager::parkSelf(uint32_t Tid, bool CheckMailbox, ReadyFn Ready) {
  PerThread &Self = Threads[Tid];
  Self.Parked.store(1, std::memory_order_seq_cst);
  uint32_t Seq = Self.WakeSeq.load(std::memory_order_seq_cst);
  if (!Ready() &&
      !(CheckMailbox &&
        Self.MailboxHead.load(std::memory_order_seq_cst) != nullptr) &&
      !aborted()) {
    ++counters(Tid).Parks;
    parkWait(Self.WakeSeq, Seq);
  }
  Self.Parked.store(0, std::memory_order_seq_cst);
}

void OctetManager::drainMailbox(uint32_t Tid) {
  std::atomic<Request *> &Head = mailboxHead(Tid);
  // The hot implicit path drains an empty mailbox; skip the RMW then. The
  // load is seq_cst so aboutToBlock's post-store re-drain participates in
  // the total order with the pusher's seq_cst push (see aboutToBlock) —
  // on x86 this is still an ordinary load.
  if (Head.load(std::memory_order_seq_cst) == nullptr)
    return;
  Request *H = Head.exchange(nullptr, std::memory_order_acq_rel);
  while (H != nullptr) {
    // Read Next before publishing Done: once Done, the requester may
    // rearm and repost the slot. (Cancelled slots are simply unlinked —
    // the pool outlives the mailbox, so reading Next stays safe.)
    Request *Next = H->Next.load(std::memory_order_relaxed);
    Request::State Expected = Request::State::Pending;
    if (H->St.compare_exchange_strong(Expected, Request::State::Taken,
                                      std::memory_order_acq_rel)) {
      const uint32_t Requester = H->T.Requester;
      notifyConflicting(Tid, H->T);
      H->St.store(Request::State::Done, std::memory_order_seq_cst);
      // The requester may be parked in phase 2 on this answer.
      maybeWake(Requester);
    }
    H = Next;
  }
}

void OctetManager::notifyConflicting(uint32_t RespTid, const Transition &T) {
  // Reached from drainMailbox (the executing thread RespTid at its own safe
  // point or blocking point, or a requester draining on behalf of a
  // blocked, held RespTid) and from the implicit path of visitResponder
  // (RespTid blocked and held). In every case RespTid cannot concurrently
  // begin or end a transaction, and the requester named in T is the
  // executing thread or is waiting in its coordination. Several such
  // callbacks may run concurrently for one responder — see the
  // OctetListener contract in the header.
  if (Listener)
    Listener->onConflictingEdge(RespTid, T);
}

void OctetManager::flushStatistics() {
  Counters Sum;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    const Counters &C = Threads[T].C;
    Sum.FastRead += C.FastRead;
    Sum.FastWrite += C.FastWrite;
    Sum.Claims += C.Claims;
    Sum.Conflicting += C.Conflicting;
    Sum.UpgradeWrEx += C.UpgradeWrEx;
    Sum.UpgradeRdSh += C.UpgradeRdSh;
    Sum.Fence += C.Fence;
    Sum.ExplicitRoundtrips += C.ExplicitRoundtrips;
    Sum.ImplicitRoundtrips += C.ImplicitRoundtrips;
    Sum.WaitSpins += C.WaitSpins;
    Sum.Parks += C.Parks;
    Sum.FanoutBatches += C.FanoutBatches;
    Sum.FanoutResponders += C.FanoutResponders;
    Sum.CancelledRequests += C.CancelledRequests;
    for (unsigned K = 0; K < NumKinds; ++K) {
      Sum.ExplicitByKind[K] += C.ExplicitByKind[K];
      Sum.ImplicitByKind[K] += C.ImplicitByKind[K];
    }
  }
  Stats.get("octet.fast_read").add(Sum.FastRead);
  Stats.get("octet.fast_write").add(Sum.FastWrite);
  Stats.get("octet.claims").add(Sum.Claims);
  Stats.get("octet.conflicting").add(Sum.Conflicting);
  Stats.get("octet.upgrade_wrex").add(Sum.UpgradeWrEx);
  Stats.get("octet.upgrade_rdsh").add(Sum.UpgradeRdSh);
  Stats.get("octet.fence").add(Sum.Fence);
  Stats.get("octet.explicit_roundtrips").add(Sum.ExplicitRoundtrips);
  Stats.get("octet.implicit_roundtrips").add(Sum.ImplicitRoundtrips);
  Stats.get("octet.wait_spins").add(Sum.WaitSpins);
  Stats.get("octet.parks").add(Sum.Parks);
  Stats.get("octet.fanout_batches").add(Sum.FanoutBatches);
  Stats.get("octet.fanout_responders").add(Sum.FanoutResponders);
  Stats.get("octet.cancelled_requests").add(Sum.CancelledRequests);
  for (unsigned K = 0; K < NumKinds; ++K) {
    Stats.get(std::string("octet.explicit_") + KindNames[K])
        .add(Sum.ExplicitByKind[K]);
    Stats.get(std::string("octet.implicit_") + KindNames[K])
        .add(Sum.ImplicitByKind[K]);
  }
}
