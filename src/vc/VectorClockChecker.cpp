//===- vc/VectorClockChecker.cpp ------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vc/VectorClockChecker.h"

#include <cassert>
#include <chrono>
#include <utility>

using namespace dc;
using namespace dc::vc;
using analysis::CycleMember;
using analysis::ViolationRecord;

VectorClockRuntime::VectorClockRuntime(const ir::Program &P,
                                       VectorClockOptions Opts,
                                       analysis::ViolationLog &Violations,
                                       StatisticRegistry &Stats)
    : P(P), Opts(Opts), Violations(Violations), Stats(Stats) {}

VectorClockRuntime::~VectorClockRuntime() {
  for (uint32_t T = 0; T < NumThreads; ++T)
    for (VcTxn *Tx : Threads[T].Owned)
      delete Tx;
}

void VectorClockRuntime::beginRun(rt::Runtime &RT) {
  NumThreads = RT.numThreads();
  Threads = std::make_unique<PerThread[]>(NumThreads);
  Fields = std::vector<FieldMeta>(RT.heap().numFieldAddrs());
  ReaderSlots = std::make_unique<std::atomic<VcTxn *>[]>(
      Fields.size() * NumThreads);
}

void VectorClockRuntime::endRun(rt::Runtime &RT) {
  uint64_t Acc = 0, Locked = 0, Validated = 0, Retries = 0;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    Acc += Threads[T].Accesses;
    Locked += Threads[T].EngineLockAccesses;
    Validated += Threads[T].ValidatedReads;
    Retries += Threads[T].ValidatedReadRetries;
  }
  Stats.get("vc.accesses").add(Acc);
  Stats.get("vc.engine_lock_accesses").add(Locked);
  Stats.get("vc.validated_reads").add(Validated);
  Stats.get("vc.validated_read_retries").add(Retries);
  SpinLockGuard Guard(EngineLock);
  publishCountersLocked();
}

void VectorClockRuntime::publishCountersLocked() {
  const std::pair<const char *, uint64_t> Now[NumPublished] = {
      {"vc.txs", NextTxId},
      {"vc.cross_edges", CrossEdges},
      {"vc.joins", Joins},
      {"vc.epoch_joins", EpochJoins},
      {"vc.propagations", Propagations},
      {"vc.violations", ViolationCount},
      {"vc.collector_runs", CollectorRuns},
      {"vc.collector_ns", CollectorNs},
      {"vc.txs_swept", TxsSwept},
      {"vc.txs_sealed", TxsSealed},
  };
  for (size_t I = 0; I < NumPublished; ++I) {
    Stats.get(Now[I].first).add(Now[I].second - Published[I]);
    Published[I] = Now[I].second;
  }
  if (WindowsFlushed != PublishedWindows)
    Stats.get("vc.windows_flushed").add(WindowsFlushed - PublishedWindows);
  PublishedWindows = WindowsFlushed;
}

void VectorClockRuntime::threadStarted(rt::ThreadContext &TC) {
  SpinLockGuard Guard(EngineLock);
  newTransactionLocked(TC.Tid, ir::InvalidMethodId, /*Regular=*/false);
}

void VectorClockRuntime::threadExiting(rt::ThreadContext &TC) {
  SpinLockGuard Guard(EngineLock);
  endCurrentTxLocked(TC.Tid);
  Threads[TC.Tid].CurrTx.store(nullptr, std::memory_order_release);
}

void VectorClockRuntime::txBegin(rt::ThreadContext &TC, const ir::Method &M) {
  SpinLockGuard Guard(EngineLock);
  endCurrentTxLocked(TC.Tid);
  newTransactionLocked(TC.Tid, P.originalOf(M.Id), /*Regular=*/true);
}

void VectorClockRuntime::txEnd(rt::ThreadContext &TC, const ir::Method &M) {
  SpinLockGuard Guard(EngineLock);
  endCurrentTxLocked(TC.Tid);
  newTransactionLocked(TC.Tid, ir::InvalidMethodId, /*Regular=*/false);
}

VectorClockRuntime::VcTxn *
VectorClockRuntime::currentForAccess(rt::ThreadContext &TC) {
  PerThread &PT = Threads[TC.Tid];
  VcTxn *Cur = PT.CurrTx.load(std::memory_order_relaxed);
  assert(Cur && "access outside any transaction context");
  if (Cur->Regular || !Cur->Interrupted.load(std::memory_order_relaxed))
    return Cur;
  SpinLockGuard Guard(EngineLock);
  endCurrentTxLocked(TC.Tid);
  return newTransactionLocked(TC.Tid, ir::InvalidMethodId,
                              /*Regular=*/false);
}

VectorClockRuntime::VcTxn *VectorClockRuntime::edgeTargetLocked(uint32_t Tid,
                                                                 VcTxn *Cur) {
  if (!Cur->Sealed)
    return Cur;
  endCurrentTxLocked(Tid);
  return newTransactionLocked(Tid, ir::InvalidMethodId, /*Regular=*/false);
}

void VectorClockRuntime::instrumentedAccess(rt::ThreadContext &TC,
                                            const rt::AccessInfo &Info,
                                            function_ref<void()> Access) {
  if (!(Info.Flags & ir::IF_VelodromeBarrier)) {
    Access();
    return;
  }
  PerThread &PT = Threads[TC.Tid];
  ++PT.Accesses;
  VcTxn *Cur = currentForAccess(TC);
  FieldMeta &Meta = Fields[Info.Addr];
  std::atomic<VcTxn *> *Readers =
      &ReaderSlots[static_cast<size_t>(Info.Addr) * NumThreads];
  std::atomic<VcTxn *> &Own = Readers[TC.Tid];

  // Validated read (DESIGN.md §14): a read whose reader slot already holds
  // Cur changes no metadata and owes no edge, so it needs no field lock as
  // long as no write overlaps it. A write keeps Seq odd from before its
  // first metadata store until after its heap store, so an unchanged even
  // Seq around the slot check and the load means the read took effect at a
  // point where the slot held Cur. Otherwise the value is dropped and the
  // locked path below loads it again. The first slot check only filters:
  // a read bound for the lock leaves Meta's line alone until it locks it,
  // so it does not fetch the line shared and then again exclusive.
  if (!Info.IsWrite && Own.load(std::memory_order_relaxed) == Cur) {
    const uint32_t S1 = Meta.Seq.load(std::memory_order_acquire);
    if ((S1 & 1) == 0 && Own.load(std::memory_order_relaxed) == Cur) {
      Access();
      std::atomic_thread_fence(std::memory_order_acquire);
      if (Meta.Seq.load(std::memory_order_relaxed) == S1) {
        ++PT.ValidatedReads;
        return;
      }
      ++PT.ValidatedReadRetries;
    }
  }

  // Metadata stores need only the field lock (see FieldMeta); EngineLock is
  // taken only to add cross edges. Lock order: field lock, then EngineLock.
  SpinLockGuard FieldGuard(Meta.Lock);
  VcTxn *W = Meta.LastWrite.load(std::memory_order_relaxed);
  VcTxn *OwnRead = Own.load(std::memory_order_relaxed);
  // Reads W->Tid only when the rule needs it: W is hot in other threads'
  // caches, and a repeated access by Cur needs no edge.
  auto ForeignWriter = [&] {
    return W != nullptr && W != Cur && W->Tid != TC.Tid;
  };
  if (!Info.IsWrite) {
    // READ rule (Velodrome Fig. 5): write-read edge, then record the reader.
    if (OwnRead != Cur) {
      if (ForeignWriter()) {
        ++PT.EngineLockAccesses;
        SpinLockGuard EngineGuard(EngineLock);
        Cur = edgeTargetLocked(TC.Tid, Cur);
        addEdgeLocked(W, Cur);
      }
      if (OwnRead == nullptr)
        ++Meta.NumReaders;
      Own.store(Cur, std::memory_order_release);
    }
    Access();
  } else {
    // WRITE rule: write-write and read-write edges, then update. Seq is odd
    // from here until the store is done; the fence orders the odd value
    // before every store below for a validated read that sees one of them.
    const uint32_t S = Meta.Seq.load(std::memory_order_relaxed);
    Meta.Seq.store(S + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    const bool Foreign = ForeignWriter();
    if (Foreign || Meta.NumReaders > (OwnRead != nullptr ? 1u : 0u)) {
      ++PT.EngineLockAccesses;
      SpinLockGuard EngineGuard(EngineLock);
      Cur = edgeTargetLocked(TC.Tid, Cur);
      if (Foreign)
        addEdgeLocked(W, Cur);
      for (uint32_t T = 0; T < NumThreads; ++T)
        if (T != TC.Tid)
          addEdgeLocked(Readers[T].load(std::memory_order_relaxed), Cur);
    }
    for (uint32_t T = 0; T < NumThreads && Meta.NumReaders != 0; ++T)
      if (Readers[T].load(std::memory_order_relaxed) != nullptr) {
        Readers[T].store(nullptr, std::memory_order_release);
        --Meta.NumReaders;
      }
    if (W != Cur)
      Meta.LastWrite.store(Cur, std::memory_order_release);
    Access();
    Meta.Seq.store(S + 2, std::memory_order_release);
  }
}

void VectorClockRuntime::syncOp(rt::ThreadContext &TC,
                                const rt::AccessInfo &Info,
                                rt::SyncKind Kind) {
  if (Info.Flags == ir::IF_None)
    return;
  // Release-acquire dependences modelled as accesses of the sync slot,
  // exactly like the graph engines.
  instrumentedAccess(TC, Info, [] {});
}

VectorClockRuntime::VcTxn *
VectorClockRuntime::newTransactionLocked(uint32_t Tid, ir::MethodId Site,
                                         bool Regular) {
  PerThread &PT = Threads[Tid];
  auto *Tx = new VcTxn(++NextTxId, Tid, PT.NextSeq++, Site, Regular,
                       NumThreads);
  {
    SpinLockGuard Guard(PT.OwnedLock);
    PT.Owned.push_back(Tx);
  }
  VcTxn *Prev = PT.CurrTx.load(std::memory_order_relaxed);
  if (Prev != nullptr) {
    // Program-order edge Prev->Tx: join and subscribe, like any edge. The
    // subscription is what keeps each thread's clock component downward-
    // closed even when Prev learns of predecessors after Tx started — the
    // exactness of the single reachability comparison depends on it.
    ++Joins;
    if (Prev->Known.isEpoch())
      ++EpochJoins;
    Tx->Known.joinFrom(Prev->Known, [&](uint32_t T) { Tx->Pred[T] = Prev; });
    if (!Prev->Sealed)
      Prev->Subs.push_back(Tx);
    Prev->LastSub = Tx;
  }
  PT.CurrTx.store(Tx, std::memory_order_release);
  return Tx;
}

void VectorClockRuntime::endCurrentTxLocked(uint32_t Tid) {
  PerThread &PT = Threads[Tid];
  if (PT.CurrTx.load(std::memory_order_relaxed) == nullptr)
    return;
  ++FinishedTxs;
  if (Opts.WindowTxs != 0 && FinishedTxs % Opts.WindowTxs == 0)
    windowFlushLocked();
  else if (FinishedTxs % Opts.CollectEveryTx == 0)
    collectLocked();
}

void VectorClockRuntime::addEdgeLocked(VcTxn *Src, VcTxn *Dst) {
  if (Src == nullptr || Src == Dst)
    return;
  assert(!Dst->Sealed && "edge into a sealed transaction");
  // Cheap dedupe of the common consecutive-duplicate case (safe: the first
  // instance already ran the reachability check, and a duplicate edge can
  // never close a cycle the original did not).
  if (Src->LastSub == Dst)
    return;
  // Edges interrupt unary-transaction merging (same demarcation as the
  // graph engines).
  if (!Src->Regular)
    Src->Interrupted.store(true, std::memory_order_relaxed);
  if (!Dst->Regular)
    Dst->Interrupted.store(true, std::memory_order_relaxed);
  ++CrossEdges;
  // The new edge Src->Dst closes a cycle iff Dst already reaches Src, i.e.
  // Src's clock has caught up to Dst's own sequence number. Checked before
  // the join (which only grows Dst's clock, not Src's).
  if (Opts.DetectCycles && Src->Known.get(Dst->Tid) >= Dst->Seq)
    reportViolationLocked(Src, Dst);
  ++Joins;
  if (Src->Known.isEpoch())
    ++EpochJoins;
  bool Grew =
      Dst->Known.joinFrom(Src->Known, [&](uint32_t T) { Dst->Pred[T] = Src; });
  if (!Src->Sealed)
    Src->Subs.push_back(Dst);
  Src->LastSub = Dst;
  if (Grew)
    propagateLocked(Dst);
}

void VectorClockRuntime::propagateLocked(VcTxn *From) {
  // Monotone worklist: push grown clocks to subscribers until fixpoint.
  // Terminates because clocks only grow and are bounded by the per-thread
  // sequence counters.
  assert(Worklist.empty());
  Worklist.push_back(From);
  while (!Worklist.empty()) {
    VcTxn *N = Worklist.back();
    Worklist.pop_back();
    for (VcTxn *S : N->Subs) {
      if (S->Known.joinFrom(N->Known, [&](uint32_t T) { S->Pred[T] = N; })) {
        ++Propagations;
        Worklist.push_back(S);
      }
    }
  }
}

void VectorClockRuntime::reportViolationLocked(VcTxn *Src, VcTxn *Dst) {
  // One report per completing target, matching the graph engines' one
  // report per detected cycle.
  if (Dst->Reported)
    return;
  Dst->Reported = true;
  ++ViolationCount;
  // Blame the closing edge's endpoints first, then sharpen by walking the
  // per-slot provenance chain (VcTxn::Pred) backward from Src on Dst's
  // thread slot. Every chain member X satisfies X.Known[Dst.Tid] >= Dst.Seq
  // (the trigger condition, monotone through providers), so Dst reaches X
  // via Dst's thread's program order, X reaches Src via the join edges
  // walked, and the closing edge Src->Dst puts X on a dependence cycle —
  // every emitted member and blame site is therefore in the oracle's cycle
  // method set, just like graph blame. The walk is bounded and stops at
  // null (collection truncated the chain), Dst, or a repeat; a record with
  // Invalid blame still counts as a detection.
  ViolationRecord R;
  if (Dst->Regular)
    R.Blamed = Dst->Site;
  else if (Src->Regular)
    R.Blamed = Src->Site;
  R.Cycle.push_back(CycleMember{Dst->Tid, Dst->Site, Dst->Id});
  constexpr size_t MaxWalk = 16;
  std::vector<VcTxn *> Chain;
  for (VcTxn *Cur = Src->Pred[Dst->Tid];
       Cur != nullptr && Cur != Dst && Cur != Src && Chain.size() < MaxWalk;
       Cur = Cur->Pred[Dst->Tid]) {
    bool Seen = false;
    for (VcTxn *C : Chain)
      Seen |= C == Cur;
    if (Seen)
      break;
    Chain.push_back(Cur);
  }
  // Pred points backward (provider <- consumer); emit in cycle order
  // Dst -> ... -> Src.
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It)
    R.Cycle.push_back(CycleMember{(*It)->Tid, (*It)->Site, (*It)->Id});
  R.Cycle.push_back(CycleMember{Src->Tid, Src->Site, Src->Id});
  if (R.Blamed == ir::InvalidMethodId)
    for (VcTxn *C : Chain)
      if (C->Regular) {
        R.Blamed = C->Site;
        break;
      }
  Violations.report(std::move(R));
}

void VectorClockRuntime::collectLocked() {
  auto StartTime = std::chrono::steady_clock::now();
  const uint64_t Epoch = ++MarkEpoch;
  auto Mark = [&](VcTxn *Tx) {
    if (Tx == nullptr || Tx->MarkEpoch == Epoch)
      return false;
    Tx->MarkEpoch = Epoch;
    return true;
  };
  // Growable set: every clock that can still grow. Only an open transaction
  // (current, and regular or not yet interrupted) can be the target of a
  // future in-edge, and growth reaches everything else by pushes along
  // Subs, so the set is the forward closure of the open ones.
  std::vector<VcTxn *> Work;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    VcTxn *Cur = Threads[T].CurrTx.load(std::memory_order_relaxed);
    if (Cur != nullptr &&
        (Cur->Regular || !Cur->Interrupted.load(std::memory_order_relaxed)) &&
        Mark(Cur))
      Work.push_back(Cur);
  }
  while (!Work.empty()) {
    VcTxn *Tx = Work.back();
    Work.pop_back();
    for (VcTxn *S : Tx->Subs) {
      assert(!S->Sealed && "sealed transaction reachable from an open one");
      if (Mark(S))
        Work.push_back(S);
    }
  }
  // Any other transaction a thread or a field still references can source
  // a future edge, so it keeps its (now final) clock, Pred and identity —
  // but nothing can push to it any more, so it is sealed and its Subs go.
  // Marking stops here: what only a sealed transaction subscribes is free.
  // Field metadata is read without its lock: a store that races this scan
  // records its thread's current transaction, already retained above, and
  // the acquire loads order every read of a displaced value before the
  // sweep that frees it.
  auto Retain = [&](VcTxn *Tx) {
    if (!Mark(Tx))
      return;
    if (!Tx->Sealed) {
      Tx->Sealed = true;
      ++TxsSealed;
    }
    Tx->Subs.clear();
    Tx->Subs.shrink_to_fit();
  };
  for (uint32_t T = 0; T < NumThreads; ++T)
    Retain(Threads[T].CurrTx.load(std::memory_order_relaxed));
  for (FieldMeta &Meta : Fields)
    Retain(Meta.LastWrite.load(std::memory_order_acquire));
  for (size_t I = 0, N = Fields.size() * NumThreads; I < N; ++I)
    Retain(ReaderSlots[I].load(std::memory_order_acquire));
  // A survivor's Pred entries (and LastSub) can point at transactions about
  // to be swept. Null them before deleting anything: the blame walk then
  // stops at the truncation instead of chasing freed memory (it only ever
  // shortens the reported cycle, never a verdict), and the dedupe cannot
  // match a recycled address.
  for (uint32_t T = 0; T < NumThreads; ++T) {
    PerThread &PT = Threads[T];
    SpinLockGuard Guard(PT.OwnedLock);
    for (VcTxn *Tx : PT.Owned) {
      if (Tx->MarkEpoch != Epoch)
        continue;
      for (VcTxn *&Pred : Tx->Pred)
        if (Pred != nullptr && Pred->MarkEpoch != Epoch)
          Pred = nullptr;
      if (Tx->LastSub != nullptr && Tx->LastSub->MarkEpoch != Epoch)
        Tx->LastSub = nullptr;
    }
  }
  for (uint32_t T = 0; T < NumThreads; ++T) {
    PerThread &PT = Threads[T];
    SpinLockGuard Guard(PT.OwnedLock);
    size_t Kept = 0;
    for (VcTxn *Tx : PT.Owned) {
      if (Tx->MarkEpoch == Epoch)
        PT.Owned[Kept++] = Tx;
      else {
        delete Tx;
        ++TxsSwept;
      }
    }
    PT.Owned.resize(Kept);
  }
  ++CollectorRuns;
  CollectorNs += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - StartTime)
          .count());
}

void VectorClockRuntime::windowFlushLocked() {
  collectLocked();
  ++WindowsFlushed;
  WindowPinnedLast = liveTxsLocked();
  // Published per flush, so health events' stats carry them mid-run too.
  Stats.get("vc.window_pinned_peak").updateMax(WindowPinnedLast);
  publishCountersLocked();
  if (Opts.WindowHook) {
    rt::HealthSnapshot H;
    fillHealthLocked(H);
    Opts.WindowHook(H);
  }
}

uint64_t VectorClockRuntime::liveTxsLocked() {
  uint64_t Live = 0;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    SpinLockGuard Guard(Threads[T].OwnedLock);
    Live += Threads[T].Owned.size();
  }
  return Live;
}

void VectorClockRuntime::fillHealthLocked(rt::HealthSnapshot &H) {
  H.WindowIndex = WindowsFlushed;
  H.FinishedTxs = FinishedTxs;
  H.LiveTxs = liveTxsLocked();
  H.RetiredTxs = TxsSwept;
  H.SealedTxs = TxsSealed;
  H.PinnedTxs = WindowPinnedLast;
  H.CrossEdges = CrossEdges;
  H.Violations = ViolationCount;
  // No degradation ladder and no async components here: the engine's
  // verdicts are per-edge and synchronous, so Degradations/Fault stay zero.
  StatisticRegistry::Snapshot Snap = Stats.snapshot();
  H.StatsStable = Snap.Stable;
  H.Stats = std::move(Snap.Values);
}

void VectorClockRuntime::healthSnapshot(rt::HealthSnapshot &H) {
  if (NumThreads == 0)
    return; // beginRun has not happened yet.
  SpinLockGuard Guard(EngineLock);
  fillHealthLocked(H);
}

bool VectorClockRuntime::windowFlush() {
  if (NumThreads == 0)
    return true;
  SpinLockGuard Guard(EngineLock);
  windowFlushLocked();
  return true; // Nothing here can wedge or degrade: always clean.
}
