//===- analysis/DoubleChecker.cpp -----------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/DoubleChecker.h"

#include "support/ChromeTrace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>

using namespace dc;
using namespace dc::analysis;

namespace {

/// Holder id an external windowFlush() call uses for stripe acquisition
/// (never a program thread id).
constexpr uint32_t HolderExternalFlush = 0xFFFFFFFEu;

/// The program thread currently executing on this OS thread; every checker
/// hook stores it on entry. Octet listener callbacks run inside some hook
/// (a barrier, a safe-point poll, or a blocked-state operation), so this
/// identifies which thread's cache a stripe handoff would miss in.
thread_local uint32_t TlsPhysTid = StripedLockSet::NoHolder;

uint32_t physTid(uint32_t Fallback) {
  return TlsPhysTid == StripedLockSet::NoHolder ? Fallback : TlsPhysTid;
}

/// Ids are (thread, per-thread counter) compositions so allocation needs no
/// global synchronization. Uniqueness within a run is all the analysis
/// needs: nothing orders by id (OrderClock stamps do the ordering).
uint64_t composeId(uint32_t Tid, uint64_t Seq) {
  return (static_cast<uint64_t>(Tid + 1) << 40) | Seq;
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction / run lifecycle
//===----------------------------------------------------------------------===//

DoubleCheckerRuntime::DoubleCheckerRuntime(const ir::Program &P,
                                           DoubleCheckerOptions Opts,
                                           ViolationLog &Violations,
                                           StatisticRegistry &Stats)
    : P(P), Opts(Opts), Violations(Violations), Stats(Stats) {
  if (Opts.PcdOnly) {
    this->Opts.LogAccesses = true;
    this->Opts.RunPcd = false;
    // The persistent precise state pins transactions; never sweep.
    this->Opts.CollectEveryTx = ~0u;
    PcdOnlyAnalysis = std::make_unique<OnlinePcd>(Violations, Stats);
    return;
  }
  if (Opts.RunPcd) {
    PreciseCycleDetector::Options PcdOpts;
    PcdOpts.MaxSccTxs = Opts.MaxSccTxsForPcd;
    Pcd = std::make_unique<PreciseCycleDetector>(Violations, Stats, PcdOpts);
  }
}

DoubleCheckerRuntime::~DoubleCheckerRuntime() {
  Dog.reset();
  for (uint32_t T = 0; T < NumThreads; ++T)
    for (Transaction *Tx : Threads[T].Owned)
      delete Tx;
}

void DoubleCheckerRuntime::beginRun(rt::Runtime &RT) {
  TheRT = &RT;
  NumThreads = RT.numThreads();
  Threads = std::make_unique<PerThread[]>(NumThreads);
  // Stripe 0 is the global stripe (gLastRdSh); Tid+1 is thread Tid's.
  NumShards = NumThreads + 1;
  IdgShards = std::make_unique<StripedLockSet>(NumShards);
  // Cycle detection is incremental (DESIGN.md §12): every edge insert
  // answers "cycle?" directly. PcdOnly and the DetectIcdCycles ablation
  // need no cycle detection at all.
  if (!PcdOnlyAnalysis && Opts.DetectIcdCycles) {
    IncrementalCycleDetector::Options IOpts;
    IOpts.MaxRegion = std::max(1u, Opts.IcdMaxRegion);
    IOpts.RetryStorm = Opts.IcdSeqRetryStorm;
    Icd = std::make_unique<IncrementalCycleDetector>(IOpts);
  }
  Octet = std::make_unique<octet::OctetManager>(RT.heap(), NumThreads, this,
                                                Stats, &RT.abortFlag());
  // Resource governor: budgets come straight from the options; the chunk
  // pool charges log bytes against it and consults it on refills.
  ResourceBudgets B;
  B.MaxLiveTxs = Opts.MaxLiveTxs;
  B.MaxLogBytes = Opts.MaxLogBytes;
  Governor.configure(B);
  ChunkPool.setGovernor(&Governor);
  ChunkPool.failRefillAt(Opts.Faults.AllocFailAt);
  // Streaming mode always arms the watchdog: the window slot is what turns
  // a wedged flush into a structured WindowFlushStall instead of a stuck
  // server.
  const bool WantWindow = Opts.WindowTxs != 0;
  // The gate slot is the run's liveness net: it is busy for the whole run
  // and program threads beat it from safePoint, so a wedged scheduler gate
  // becomes a structured GateStall abort instead of a hang. Every
  // collecting run arms it; only the PcdOnly straw man (CollectEveryTx ==
  // ~0u) runs unwatched in batch mode.
  const bool WantGate = Opts.CollectEveryTx != ~0u || WantWindow;
  if (WantGate) {
    rt::Watchdog::Options WOpts;
    WOpts.TimeoutMs = std::max(1u, Opts.StallTimeoutMs);
    WOpts.PollMs = std::max(1u, Opts.WatchdogPollMs);
    Dog = std::make_unique<rt::Watchdog>(
        WOpts, [this](const std::string &Component, uint64_t SilentMs) {
          onComponentStall(Component, SilentMs);
        });
    DogGateSlot = Dog->addComponent("gate");
    if (WantWindow)
      DogWindowSlot = Dog->addComponent("window-flush");
    Dog->start();
    Dog->beginWork(DogGateSlot);
  }
  if (Opts.LogAccesses)
    for (uint32_t T = 0; T < NumThreads; ++T)
      Threads[T].ChunkCache.attach(&ChunkPool);
}

void DoubleCheckerRuntime::endRun(rt::Runtime &RT) {
  // The run is over: no program thread will beat the gate slot again, so
  // retire it before the (possibly long) finalize below can trip
  // GateStall.
  if (Dog)
    Dog->endWork(DogGateSlot);
  // Flush the tail of detection. Every cycle was claimed at its last
  // member's retire, so finalize only claims defensively
  // (icd.finalize_claims, expected 0).
  if (Icd) {
    IncrementalCycleDetector::ClaimList Claims;
    Icd->finalize(Claims);
    executeIcdClaims(Claims);
  }
  if (Dog)
    Dog->disarm();
  Octet->flushStatistics();
  uint64_t Regular = 0, Unary = 0, AccR = 0, AccU = 0, LogN = 0, LogE = 0;
  uint64_t Bytes = 0, Dropped = 0, Sheds = 0;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    const PerThread &PT = Threads[T];
    Regular += PT.RegularTxs;
    Unary += PT.UnaryTxs;
    AccR += PT.AccRegular;
    AccU += PT.AccUnary;
    LogN += PT.LogEntries;
    LogE += PT.LogElided;
    Dropped += PT.LogDropped;
    Sheds += PT.ShedCount;
    // Access appends don't bump BytesLogged inline (the hot path carries
    // no byte accounting; one slot per entry is implied) — only EdgeIn
    // markers do.
    Bytes += PT.BytesLogged + PT.LogEntries * sizeof(LogSlot);
  }
  Stats.get("icd.regular_transactions").add(Regular);
  Stats.get("icd.unary_transactions").add(Unary);
  Stats.get("icd.instrumented_accesses_regular").add(AccR);
  Stats.get("icd.instrumented_accesses_unary").add(AccU);
  Stats.get("icd.log_entries").add(LogN);
  Stats.get("icd.log_entries_elided").add(LogE);
  Stats.get("logging.bytes_logged").add(Bytes);
  Stats.get("logging.filter_hits").add(LogE);
  Stats.get("logging.chunk_allocs").add(ChunkPool.chunkAllocs());
  Stats.get("logging.chunk_recycles").add(ChunkPool.chunkRecycles());
  Stats.get("logging.refill_requests").add(ChunkPool.refillRequests());
  Stats.get("logging.refills_refused").add(ChunkPool.refillsRefused());
  Stats.get("degradation.log_dropped").add(Dropped);
  Stats.get("degradation.sheds").add(Sheds);
  Governor.flush(Stats);
  if (Opts.WindowTxs != 0)
    Stats.get("window.flushes_degraded")
        .add(WindowDegraded.load(std::memory_order_relaxed));
  Stats.get("icd.idg_cross_edges")
      .add(CrossEdges.load(std::memory_order_relaxed));
  Stats.get("icd.sccs").add(SccCount.load(std::memory_order_relaxed));
  Stats.get("icd.collector_runs")
      .add(CollectorRuns.load(std::memory_order_relaxed));
  Stats.get("icd.collector_ns")
      .add(CollectorNs.load(std::memory_order_relaxed));
  Stats.get("icd.txs_swept").add(TxsSwept.load(std::memory_order_relaxed));
  Stats.get("icd.txs_sealed").add(TxsSealed.load(std::memory_order_relaxed));
  Stats.get("icd.collector_live")
      .updateMax(CollectorLiveMax.load(std::memory_order_relaxed));
  Stats.get("icd.idg_shards").updateMax(NumShards);
  Stats.get("icd.idg_lock_handoffs").add(IdgShards->totalHandoffs());
  if (Icd)
    Icd->flushStats(Stats);
}

//===----------------------------------------------------------------------===//
// Stripe helpers
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::lockShards(const uint32_t *Shards, unsigned N,
                                      uint32_t Holder) {
  for (unsigned I = 0; I < N; ++I)
    lockShard(Shards[I], Holder);
}

void DoubleCheckerRuntime::lockAllShards(uint32_t Holder) {
  for (uint32_t S = 0; S < NumShards; ++S)
    lockShard(S, Holder);
}

void DoubleCheckerRuntime::unlockAllShards() {
  for (uint32_t S = NumShards; S-- > 0;)
    unlockShard(S);
}

//===----------------------------------------------------------------------===//
// Checker hooks
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::threadStarted(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  Octet->threadStarted(TC.Tid);
  const uint32_t S = shardOf(TC.Tid);
  lockShard(S, TC.Tid);
  newTransactionLocked(TC.Tid, ir::InvalidMethodId, /*Regular=*/false);
  unlockShard(S);
}

void DoubleCheckerRuntime::threadExiting(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  endCurrentTx(TC.Tid);
  // CurrTx intentionally stays on the (finished) final transaction: a
  // conflicting transition can still name this thread as its responder
  // (its objects keep their WrEx/RdEx states after exit), and the edge
  // source must then be the thread's last transaction — nulling it here
  // would silently drop those edges.
  Octet->threadExited(TC.Tid);
}

void DoubleCheckerRuntime::txBegin(rt::ThreadContext &TC,
                                   const ir::Method &M) {
  TlsPhysTid = TC.Tid;
  endCurrentTx(TC.Tid);
  const uint32_t S = shardOf(TC.Tid);
  lockShard(S, TC.Tid);
  newTransactionLocked(TC.Tid, P.originalOf(M.Id), /*Regular=*/true);
  unlockShard(S);
}

void DoubleCheckerRuntime::txEnd(rt::ThreadContext &TC, const ir::Method &M) {
  // §4: at method end, a new unary transaction begins.
  TlsPhysTid = TC.Tid;
  endCurrentTx(TC.Tid);
  const uint32_t S = shardOf(TC.Tid);
  lockShard(S, TC.Tid);
  newTransactionLocked(TC.Tid, ir::InvalidMethodId, /*Regular=*/false);
  unlockShard(S);
}

Transaction *DoubleCheckerRuntime::currentForAccess(rt::ThreadContext &TC,
                                                    PerThread &PT) {
  Transaction *Cur = PT.CurrTx.load(std::memory_order_relaxed);
  assert(Cur && "access outside any transaction context");
  if (Cur->Regular || !Cur->Interrupted.load(std::memory_order_relaxed))
    return Cur;
  // The merged unary transaction was interrupted by a cross-thread edge;
  // end it and start a fresh one (§4's merge optimization boundary).
  endCurrentTx(TC.Tid);
  const uint32_t S = shardOf(TC.Tid);
  lockShard(S, TC.Tid);
  Transaction *Fresh = newTransactionLocked(TC.Tid, ir::InvalidMethodId,
                                            /*Regular=*/false);
  unlockShard(S);
  return Fresh;
}

void DoubleCheckerRuntime::instrumentedAccess(rt::ThreadContext &TC,
                                              const rt::AccessInfo &Info,
                                              function_ref<void()> Access) {
  TlsPhysTid = TC.Tid;
  PerThread &PT = Threads[TC.Tid];
  Transaction *Cur = currentForAccess(TC, PT);
  if (Info.Flags & ir::IF_OctetBarrier) {
    if (Info.IsWrite)
      Octet->writeBarrier(TC, Info.Obj);
    else
      Octet->readBarrier(TC, Info.Obj);
  }
  Access();
  if (Opts.LogAccesses && (Info.Flags & ir::IF_LogAccess))
    logAccess(TC, PT, Cur, Info);
  if (Cur->Regular)
    ++PT.AccRegular;
  else
    ++PT.AccUnary;
}

void DoubleCheckerRuntime::logAccess(rt::ThreadContext &TC, PerThread &PT,
                                     Transaction *Cur,
                                     const rt::AccessInfo &Info) {
  // DESIGN.md §8: thread-local filter, chunked arena. The only
  // shared-visible write is the LogLen publication, and chunks come from
  // the thread's cache — zero shared writes beyond that, zero allocations
  // in steady state.
  if (PT.LogShedActive) {
    // Degradation ladder (DESIGN.md §10): this thread is shedding. Drop
    // the entry but mark the transaction, so any SCC it joins is degraded
    // to a potential violation instead of replayed from an incomplete log
    // (which would be unsound).
    Cur->LogShed.store(true, std::memory_order_relaxed);
    ++PT.LogDropped;
    return;
  }
  if (Opts.ElideDuplicates &&
      PT.Filter.testAndSet(ElisionFilter::key(Info.Obj, Info.Addr),
                           PT.CurTs.load(std::memory_order_relaxed),
                           Info.IsWrite)) {
    // Duplicate with no intervening edge or transaction boundary: elide.
    ++PT.LogElided;
    return;
  }
  if (Cur->Log.tailFull()) {
    // Chunk boundary: the refill is the ladder's decision point. A refused
    // refill (governor log-byte pressure or an injected allocation
    // failure) starts shedding on this thread — except under PcdOnly,
    // whose online analysis needs complete logs to stay meaningful, so it
    // falls back to a direct allocation.
    LogChunk *C = PT.ChunkCache.tryGet();
    if (C == nullptr) {
      if (PcdOnlyAnalysis) {
        C = new LogChunk();
      } else {
        beginShed(PT, TC.Tid, Cur);
        return;
      }
    }
    Cur->Log.adoptChunk(C);
  }
  Cur->LogLen.store(Cur->Log.appendAccess(Info.Obj, Info.Addr, Info.IsWrite,
                                          &PT.ChunkCache),
                    std::memory_order_release);
  ++PT.LogEntries; // Byte accounting is derived at flush: 1 slot/entry.
}

void DoubleCheckerRuntime::syncOp(rt::ThreadContext &TC,
                                  const rt::AccessInfo &Info,
                                  rt::SyncKind Kind) {
  if (Info.Flags == ir::IF_None)
    return;
  // Acquire-like ops behave as reads, release-like as writes, on the
  // synchronized object (already encoded in Info by the runtime).
  instrumentedAccess(TC, Info, [] {});
}

void DoubleCheckerRuntime::safePoint(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  if (Dog != nullptr) {
    // Program threads collectively beat the gate slot: as long as any
    // thread keeps retiring instructions the scheduler gate is healthy.
    // Throttled — an atomic store per safe point would be hot-path noise.
    PerThread &PT = Threads[TC.Tid];
    if ((++PT.SafePointBeats & 63u) == 0)
      Dog->heartbeat(DogGateSlot);
  }
  Octet->pollSafePoint(TC.Tid);
}

void DoubleCheckerRuntime::aboutToBlock(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  Octet->aboutToBlock(TC.Tid);
  setBlocked(TC.Tid, true);
}

void DoubleCheckerRuntime::unblocked(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  // Cleared before the thread can request anything. The stripe handoff
  // orders this after any collection that saw the flag set and sealed
  // CurrTx, so the next access sees Interrupted and rotates.
  setBlocked(TC.Tid, false);
  Octet->unblocked(TC.Tid);
}

void DoubleCheckerRuntime::setBlocked(uint32_t Tid, bool Blocked) {
  const uint32_t S = shardOf(Tid);
  lockShard(S, Tid);
  assert(Threads[Tid].Blocked != Blocked &&
         "unpaired aboutToBlock/unblocked");
  Threads[Tid].Blocked = Blocked;
  unlockShard(S);
}

//===----------------------------------------------------------------------===//
// Octet listener: Figure 4 edge creation
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::onConflictingEdge(uint32_t RespTid,
                                             const octet::Transition &T) {
  // Runs on the responder (explicit protocol) or on a requester holding /
  // rescuing the blocked responder (implicit); both endpoints' current
  // transactions are stable for the duration, but several of these
  // callbacks may run *concurrently* for the same responder under the
  // pipelined fan-out (see OctetListener's contract). That is sound here
  // because every insertion below locks the responder's stripe (and the
  // requester's), so same-responder edge creations serialize on shardOf
  // (RespTid) while the quiescence guarantee pins both CurrTx loads
  // (DESIGN.md §11).
  const uint32_t Phys = physTid(T.Requester);
  uint32_t A = shardOf(RespTid);
  uint32_t B = shardOf(T.Requester);
  if (A > B)
    std::swap(A, B);
  uint32_t Need[2] = {A, B};
  const unsigned N = B != A ? 2 : 1;
  lockShards(Need, N, Phys);
  addCrossEdgeLocked(Threads[RespTid].CurrTx.load(std::memory_order_relaxed),
                     Threads[T.Requester].CurrTx.load(
                         std::memory_order_relaxed),
                     Phys);
  for (unsigned I = N; I-- > 0;)
    unlockShard(Need[I]);
}

void DoubleCheckerRuntime::onBecameRdEx(uint32_t Tid) {
  // Always runs on thread Tid itself (the thread claiming RdEx ownership).
  const uint32_t S = shardOf(Tid);
  lockShard(S, physTid(Tid));
  Threads[Tid].LastRdEx = Threads[Tid].CurrTx.load(std::memory_order_relaxed);
  unlockShard(S);
}

void DoubleCheckerRuntime::onUpgradeToRdSh(uint32_t Tid, uint32_t OldOwner,
                                           uint64_t Counter) {
  const uint32_t Phys = physTid(Tid);
  // Stripe 0 pins gLastRdSh's identity; the remaining stripes are only
  // known after reading it, and are all ranked above stripe 0, so the
  // ascending lock order is preserved.
  lockShard(0, Phys);
  Transaction *Rd = GLastRdSh;
  uint32_t Need[3] = {0, 0, 0};
  unsigned N = 0;
  auto Add = [&](uint32_t S) {
    if (S == 0)
      return; // Already held.
    for (unsigned I = 0; I < N; ++I)
      if (Need[I] == S)
        return;
    Need[N++] = S;
  };
  Add(shardOf(OldOwner));
  Add(shardOf(Tid));
  if (Rd != nullptr)
    Add(shardOf(Rd->Tid));
  // Ascending order, by hand: N <= 3 and std::sort trips a GCC
  // -Warray-bounds false positive on arrays this small.
  for (unsigned I = 1; I < N; ++I)
    for (unsigned J = I; J > 0 && Need[J] < Need[J - 1]; --J)
      std::swap(Need[J], Need[J - 1]);
  lockShards(Need, N, Phys);
  Transaction *Cur = Threads[Tid].CurrTx.load(std::memory_order_relaxed);
  // Edge from the old owner's last transition into RdEx (conservative
  // source for the write-read dependence being upgraded over).
  addCrossEdgeLocked(Threads[OldOwner].LastRdEx, Cur, Phys);
  // Edge ordering all transitions to RdSh (needed so fence transitions
  // capture write-read dependences transitively, Fig. 3).
  addCrossEdgeLocked(Rd, Cur, Phys);
  GLastRdSh = Cur;
  for (unsigned I = N; I-- > 0;)
    unlockShard(Need[I]);
  unlockShard(0);
}

void DoubleCheckerRuntime::onFence(uint32_t Tid) {
  const uint32_t Phys = physTid(Tid);
  lockShard(0, Phys);
  Transaction *Rd = GLastRdSh;
  if (Rd == nullptr) {
    unlockShard(0);
    return;
  }
  uint32_t Need[2] = {0, 0};
  unsigned N = 0;
  auto Add = [&](uint32_t S) {
    if (S == 0)
      return;
    for (unsigned I = 0; I < N; ++I)
      if (Need[I] == S)
        return;
    Need[N++] = S;
  };
  Add(shardOf(Rd->Tid));
  Add(shardOf(Tid));
  if (N == 2 && Need[1] < Need[0])
    std::swap(Need[0], Need[1]);
  lockShards(Need, N, Phys);
  addCrossEdgeLocked(Rd,
                     Threads[Tid].CurrTx.load(std::memory_order_relaxed),
                     Phys);
  for (unsigned I = N; I-- > 0;)
    unlockShard(Need[I]);
  unlockShard(0);
}

//===----------------------------------------------------------------------===//
// IDG maintenance
//===----------------------------------------------------------------------===//

Transaction *DoubleCheckerRuntime::newTransactionLocked(uint32_t Tid,
                                                        ir::MethodId Site,
                                                        bool Regular) {
  PerThread &PT = Threads[Tid];
  auto *Tx =
      new Transaction(composeId(Tid, PT.NextSeq), Tid, PT.NextSeq, Site,
                      Regular);
  ++PT.NextSeq;
  PT.Owned.push_back(Tx);
  Transaction *Prev = PT.CurrTx.load(std::memory_order_relaxed);
  if (Prev != nullptr) {
    OutEdge E;
    E.Dst = Tx;
    E.Id = composeId(Tid, ++PT.NextEdgeSeq);
    E.SrcPos = Prev->LogLen.load(std::memory_order_relaxed);
    E.Intra = true;
    Prev->Out.push_back(E);
  }
  if (Icd) {
    // Both calls are lock-free — the per-transaction hot path never
    // touches the detector lock. The intra edge targets a brand-new
    // maximal vertex, so it is consistent by construction; if Prev's
    // region is poisoned, the first search that reaches it through the
    // chain repairs the contact (IncrementalCycles.h).
    Icd->addNode(Tx);
    Icd->addChainEdge(Prev, Tx);
  }
  PT.CurrTx.store(Tx, std::memory_order_release);
  PT.CurTs.fetch_add(1, std::memory_order_relaxed);
  if (Regular)
    ++PT.RegularTxs;
  else
    ++PT.UnaryTxs;
  Governor.txCreated();
  if (PT.LogShedActive) {
    // Re-arm ladder: after RearmAfterTxs boundaries, resume logging iff
    // every governed gauge has fallen under half budget (hysteresis, so a
    // system hovering at the budget does not thrash shed/re-arm).
    if (PT.RearmCountdown > 0 && --PT.RearmCountdown == 0) {
      if (Governor.underLowWater()) {
        PT.LogShedActive = false;
        recordDegradation(
            {rt::DegradationEvent::Action::Rearm, Tid,
             OrderClock.load(std::memory_order_relaxed)});
      } else {
        PT.RearmCountdown = std::max(1u, Opts.RearmAfterTxs);
      }
    }
    // Still shedding: the new transaction's log is incomplete from birth.
    if (PT.LogShedActive)
      Tx->LogShed.store(true, std::memory_order_relaxed);
  }
  return Tx;
}

void DoubleCheckerRuntime::endCurrentTx(uint32_t Tid) {
  const uint32_t Shard = shardOf(Tid);
  lockShard(Shard, Tid);
  PerThread &PT = Threads[Tid];
  Transaction *Cur = PT.CurrTx.load(std::memory_order_relaxed);
  if (Cur == nullptr) {
    unlockShard(Shard);
    return;
  }
  Cur->EndTime = OrderClock.fetch_add(1, std::memory_order_relaxed) + 1;
  Cur->Finished.store(true, std::memory_order_release);
  unlockShard(Shard);
  // The follow-ups run without the own stripe. Cur is finished, so its log
  // and incoming-edge set are frozen: edges always target the *requesting*
  // thread's own current transaction, and this thread — the only one that
  // could name Cur as an edge destination — is here, not requesting.
  if (PcdOnlyAnalysis) {
    SpinLockGuard Guard(PcdOnlyLock);
    PcdOnlyAnalysis->processTransaction(Cur);
  }
  if (Icd) {
    // Observing the end is what can complete a cycle's claim (last member
    // to finish). No stripes are held here, so a claim may block on PCD
    // backpressure safely. Until retire returns, Cur is still this
    // thread's CurrTx, and a current transaction on a detected cycle is a
    // strong collector root even once finished, so an unclaimed component
    // containing it cannot be swept.
    IncrementalCycleDetector::ClaimList Claims;
    Icd->retire(Cur, Claims);
    executeIcdClaims(Claims);
  }
  if (Opts.Trace)
    Opts.Trace->instant("tx", Cur->Regular ? "tx-end" : "unary-end", Tid,
                        TraceRecorder::Args().num("id", Cur->Id));
  const uint64_t Finished =
      FinishedTxs.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Opts.WindowTxs != 0 && Finished % Opts.WindowTxs == 0)
    // Streaming mode: this thread crossed a retirement-window boundary.
    // Exactly one thread observes each multiple of WindowTxs (fetch_add),
    // so the boundary election is deterministic per schedule. The flush
    // subsumes a collection, so the periodic trigger below is skipped.
    windowFlushNow(Tid);
  else if (Opts.CollectEveryTx != ~0u &&
           (Finished % Opts.CollectEveryTx == 0 || liveBudgetDue(Finished)))
    // Collection runs inline on the finishing thread, like the window
    // flush (DESIGN.md §7, "Collector").
    collectNow(Tid);
}

bool DoubleCheckerRuntime::liveBudgetDue(uint64_t Finished) const {
  // Live-transaction budget breached: collect now instead of waiting for
  // the periodic trigger. Collection is the correct relief valve here —
  // shedding would not free a single finished transaction. But a pass
  // cannot free what is still reachable, so wait until as many
  // transactions have finished since the last pass as that pass kept:
  // marking stays amortized O(1) per finished transaction even when the
  // whole live graph is reachable.
  return (Governor.pressure() & PressureLiveTxs) != 0 &&
         Finished >= BudgetCollectAt.load(std::memory_order_relaxed);
}

void DoubleCheckerRuntime::addCrossEdgeLocked(Transaction *Src,
                                              Transaction *Dst,
                                              uint32_t Phys) {
  if (Src == nullptr || Dst == nullptr || Src == Dst)
    return;
  // The collector stopped tracing from a sealed transaction on the promise
  // that nothing targets it again.
  assert(!Dst->Sealed && "edge into a sealed transaction");
  OutEdge E;
  E.Dst = Dst;
  E.Id = composeId(Src->Tid, ++Threads[Src->Tid].NextEdgeSeq);
  E.SrcPos = Src->LogLen.load(std::memory_order_acquire);
  E.Intra = false;
  Src->Out.push_back(E);
  // Timestamp bumps end log-elision windows on both threads (§4).
  Threads[Src->Tid].CurTs.fetch_add(1, std::memory_order_relaxed);
  Threads[Dst->Tid].CurTs.fetch_add(1, std::memory_order_relaxed);
  // Edges interrupt unary-transaction merging.
  if (!Src->Regular)
    Src->Interrupted.store(true, std::memory_order_relaxed);
  if (!Dst->Regular)
    Dst->Interrupted.store(true, std::memory_order_relaxed);
  if (Opts.LogAccesses) {
    LogEntry Marker;
    Marker.K = LogEntry::Kind::EdgeIn;
    Marker.Obj = Src->Tid;
    Marker.Addr = E.SrcPos;
    Marker.SrcSeq = Src->SeqInThread;
    Marker.Time = OrderClock.fetch_add(1, std::memory_order_relaxed) + 1;
    // The physical thread executing this call supplies the chunks; it may
    // differ from Dst's owner (requester-side edges), which is fine because
    // chunks have no owner affinity once linked into a log.
    Dst->appendLog(Marker,
                   Phys < NumThreads ? &Threads[Phys].ChunkCache : nullptr);
    Threads[Phys < NumThreads ? Phys : Dst->Tid].BytesLogged +=
        2 * sizeof(LogSlot);
  }
  CrossEdges.fetch_add(1, std::memory_order_relaxed);
  if (Opts.Trace)
    // TraceRecorder's lock is a leaf — safe under the endpoint stripes.
    Opts.Trace->instant("edge", "cross-edge", Src->Tid,
                        TraceRecorder::Args()
                            .num("src", Src->Id)
                            .num("dst", Dst->Id)
                            .num("dst_tid", Dst->Tid));
  if (Icd) {
    // The caller holds exactly the two endpoint stripes — the detector
    // adds only its own internal lock, never another stripe. A precise
    // claim cannot happen here (the edge's target is unfinished, so its
    // component has an unretired member); an oversized absorption can, and
    // its execution touches only innermost locks.
    IncrementalCycleDetector::ClaimList Claims;
    Icd->addEdge(Src, Dst, Claims);
    executeIcdClaims(Claims);
  }
}

//===----------------------------------------------------------------------===//
// Incremental claim execution (IncrementalCycles.h)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::executeIcdClaims(
    IncrementalCycleDetector::ClaimList &Claims) {
  for (IncrementalCycleDetector::Claim &C : Claims) {
    std::vector<Transaction *> &Members = C.Members;
    const auto Unpin = [&Members] {
      for (Transaction *M : Members)
        M->Pins.fetch_sub(1, std::memory_order_release);
    };
    // The injected unsound filter drops a two-member component before it
    // reaches the site set, SccCount, or PCD, so the fuzzer's
    // bug-detection differential sees it in every output.
    if (!C.Oversized && Opts.TestOnlyUnsoundFilter && Members.size() == 2) {
      Unpin();
      continue;
    }
    // Sites feed multi-run mode's static info for every claim kind.
    {
      SpinLockGuard Guard(SccStateLock);
      for (Transaction *M : Members) {
        if (M->Regular)
          SccSites.insert(M->Site);
        else
          SccAnyUnary = true;
      }
    }
    // Stamps: max member EndTime, like degradeScc — but members of an
    // oversized absorption may still be running (EndTime unset).
    uint64_t MaxEnd = 0;
    bool Shed = false;
    for (Transaction *M : Members) {
      if (M->Finished.load(std::memory_order_acquire))
        MaxEnd = std::max(MaxEnd, M->EndTime);
      Shed |= M->LogShed.load(std::memory_order_relaxed);
    }
    if (C.Oversized) {
      // Region-cap degradation (DoubleCheckerOptions::IcdMaxRegion):
      // everything absorbed into a poisoned region is reported Potential.
      if (Pcd)
        degradeScc(Members, MaxEnd);
      Unpin();
      continue;
    }
    SccCount.fetch_add(1, std::memory_order_relaxed);
    if (Opts.Trace)
      Opts.Trace->instant("scc", "scc-claim", 0,
                          TraceRecorder::Args()
                              .num("members", Members.size())
                              .num("stamp", MaxEnd));
    if (!Pcd) {
      Unpin(); // First run of multi-run mode: sites were all it wanted.
      continue;
    }
    if (Members.size() > Opts.MaxSccTxsForPcd || Shed) {
      degradeScc(Members, MaxEnd);
      Unpin();
      continue;
    }
    Pcd->processScc(Members);
    Unpin();
  }
  Claims.clear();
}

uint32_t DoubleCheckerRuntime::stripesHeldByCurrentThread() const {
  return IdgShards ? IdgShards->heldCount(TlsPhysTid) : 0;
}

//===----------------------------------------------------------------------===//
// Transaction collection (stands in for the JVM's GC)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::collectNow(uint32_t Holder) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<Transaction *> Doomed;
  lockAllShards(Holder);
  const uint64_t Epoch = ++MarkEpochCounter;
  std::vector<Transaction *> Work;
  auto AddRoot = [&](Transaction *Tx) {
    if (Tx != nullptr && Tx->MarkEpoch != Epoch) {
      Tx->MarkEpoch = Epoch;
      Work.push_back(Tx);
    }
  };
  // Strong roots: the current transactions that can still gain an
  // in-edge (DESIGN.md §7, "Collector"). An edge only ever targets its
  // requesting thread's current transaction, so every existing member of a
  // future cycle is forward-reachable from one of them. A finished
  // transaction gains no in-edge (its thread requests nothing until its
  // next one is current), and neither does a sealed one (see
  // Transaction::Sealed); both are weak roots below. Tracing from them
  // would let main's unary transaction, interrupted by the fork edges and
  // current through every join, keep the whole run alive.
  //
  // Sealing is sticky: re-deciding it from Blocked on every pass would
  // re-trace, once its thread unblocks, a transaction whose successors an
  // earlier pass swept. And a current transaction on a detected cycle
  // stays strong even once sealed or finished, because its component is
  // claimed only when its last member retires. Oversized groups are not
  // exempt: their members were pinned and reported on absorption, and
  // absorption can reach a transaction whose Out list already dangles.
  uint64_t Sealed = 0;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    const PerThread &PT = Threads[T];
    Transaction *Cur = PT.CurrTx.load(std::memory_order_relaxed);
    if (Cur == nullptr)
      continue;
    if (!Cur->Sealed && PT.Blocked && !Cur->Regular &&
        Cur->Interrupted.load(std::memory_order_relaxed)) {
      Cur->Sealed = true;
      ++Sealed;
    }
    const IcdGroup *G = Cur->IcdG.load(std::memory_order_acquire);
    if ((G != nullptr && !G->Oversized) ||
        (!Cur->Sealed && !Cur->Finished.load(std::memory_order_relaxed)))
      AddRoot(Cur);
  }
  while (!Work.empty()) {
    Transaction *Tx = Work.back();
    Work.pop_back();
    for (const OutEdge &E : Tx->Out)
      AddRoot(E.Dst);
  }
  // Weak roots: the untraced current transactions, lastRdEx and gLastRdSh
  // may still become *sources* of future edges, so the nodes themselves
  // must survive — but their stale forward closures need not: a cycle
  // through such a node would need an edge from the live region into it,
  // which can never be created. Marking them after the traversal (without
  // enqueueing) keeps the node and lets its unreachable successors be
  // swept, while one a strong root reaches is still traced. Their Out
  // lists then hold dangling pointers, which is fine because only this
  // mark phase ever walks the Out edges of a transaction, and a node
  // outside the strong closure never re-enters it: getting back in would
  // take an in-edge, and none of these can gain one.
  auto WeakRoot = [&](Transaction *Tx) {
    if (Tx != nullptr)
      Tx->MarkEpoch = Epoch;
  };
  for (uint32_t T = 0; T < NumThreads; ++T) {
    WeakRoot(Threads[T].CurrTx.load(std::memory_order_relaxed));
    WeakRoot(Threads[T].LastRdEx);
  }
  WeakRoot(GLastRdSh);
  // Sweep: an unmarked transaction is finished, can never gain another
  // edge (edge sinks are strong roots; edge sources are marked), and so
  // cannot join a future cycle. Unmarked also stays unmarked once the
  // stripes drop, and un-pinned stays un-pinned (a claim pins the members
  // of a detected cycle, which a strong root reaches), so the frees can
  // happen outside the stripes.
  uint64_t Live = 0;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    PerThread &PT = Threads[T];
    size_t Kept = 0;
    for (size_t I = 0; I < PT.Owned.size(); ++I) {
      Transaction *Tx = PT.Owned[I];
      if (Tx->MarkEpoch == Epoch ||
          Tx->Pins.load(std::memory_order_acquire) != 0) {
        PT.Owned[Kept++] = Tx;
      } else {
        assert(Tx->Finished.load(std::memory_order_relaxed) &&
               "sweeping a live transaction");
        Doomed.push_back(Tx);
      }
    }
    PT.Owned.resize(Kept);
    Live += Kept;
  }
  // Doomed transactions must vacate the incremental detector's order while
  // the graph is still frozen and before anything is freed: unlink their
  // detector adjacency and group membership so no later search touches a
  // dangling node. Dropping vertices cannot invalidate the remaining
  // topological order, and a swept (unreachable, finished) transaction can
  // never rejoin a cycle.
  if (Icd)
    Icd->removeNodes(Doomed);
  BudgetCollectAt.store(FinishedTxs.load(std::memory_order_relaxed) + Live,
                        std::memory_order_relaxed);
  unlockAllShards();
  uint64_t PrevMax = CollectorLiveMax.load(std::memory_order_relaxed);
  while (Live > PrevMax && !CollectorLiveMax.compare_exchange_weak(
                               PrevMax, Live, std::memory_order_relaxed))
    ;
  for (Transaction *Tx : Doomed) {
    // Recycle the dead log's chunks before freeing the node; future logs
    // then append into recycled storage instead of allocating.
    Tx->Log.releaseTo(ChunkPool);
    delete Tx;
  }
  TxsSwept.fetch_add(Doomed.size(), std::memory_order_relaxed);
  TxsSealed.fetch_add(Sealed, std::memory_order_relaxed);
  Governor.txsFreed(Doomed.size());
  CollectorRuns.fetch_add(1, std::memory_order_relaxed);
  CollectorNs.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - Start)
              .count()),
      std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Overload and fault health (DESIGN.md §10)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::recordFault(rt::CheckerFault F,
                                       std::string Diagnosis) {
  Stats.get("faults.detected").add(1);
  bool First = false;
  {
    SpinLockGuard Guard(HealthLock);
    // First fault wins: the earliest diagnosis names the root cause; later
    // faults are usually its downstream symptoms.
    if (Fault == rt::CheckerFault::None) {
      Fault = F;
      FaultDiagnosis = Diagnosis;
      First = true;
    }
  }
  if (First) {
    if (Opts.Trace)
      Opts.Trace->instant("fault", toString(F), 0,
                          TraceRecorder::Args().str("diagnosis", Diagnosis));
    // Streaming observer (no checker lock held: the hook may take its
    // own stream lock and do I/O).
    if (Opts.FaultHook)
      Opts.FaultHook(F, Diagnosis);
  }
}

void DoubleCheckerRuntime::recordDegradation(rt::DegradationEvent E) {
  SpinLockGuard Guard(HealthLock);
  DegEvents.push_back(E);
}

void DoubleCheckerRuntime::beginShed(PerThread &PT, uint32_t Tid,
                                     Transaction *Cur) {
  PT.LogShedActive = true;
  PT.RearmCountdown = std::max(1u, Opts.RearmAfterTxs);
  ++PT.ShedCount;
  ++PT.LogDropped; // The access that hit the refused refill is dropped too.
  Cur->LogShed.store(true, std::memory_order_relaxed);
  recordDegradation({rt::DegradationEvent::Action::ShedLogging, Tid,
                     OrderClock.load(std::memory_order_relaxed)});
  if (Opts.Trace)
    Opts.Trace->instant("degrade", "shed-logging", Tid);
}

void DoubleCheckerRuntime::degradeScc(
    const std::vector<Transaction *> &Members, uint64_t Stamp) {
  // Pcd always exists here: degradation is only reachable from claim
  // execution, which guards it by Pcd.
  Pcd->reportPotential(Members);
  recordDegradation(
      {rt::DegradationEvent::Action::PotentialOnly, 0, Stamp});
  if (Opts.Trace)
    Opts.Trace->instant("degrade", "potential-only", 0,
                        TraceRecorder::Args()
                            .num("members", Members.size())
                            .num("stamp", Stamp));
}

void DoubleCheckerRuntime::onComponentStall(const std::string &Component,
                                            uint64_t SilentMs) {
  const rt::CheckerFault F = Component == "window-flush"
                                ? rt::CheckerFault::WindowFlushStall
                                : rt::CheckerFault::GateStall;
  recordFault(F, Component + " made no progress for " +
                     std::to_string(SilentMs) + " ms");
  // A stalled window flush only delays analysis — the run can finish,
  // since the flush's stall wait is bounded. A stalled gate means no
  // program thread is retiring instructions: the run itself is wedged, so
  // convert the hang into a structured abort.
  if (F == rt::CheckerFault::GateStall && TheRT != nullptr)
    TheRT->requestAbort();
}

void DoubleCheckerRuntime::reportHealth(rt::RunResult &R) {
  SpinLockGuard Guard(HealthLock);
  R.Fault = Fault;
  R.FaultDiagnosis = FaultDiagnosis;
  R.Degradation = DegEvents;
  // Deterministic order for cross-config comparison: events are stamped
  // with OrderClock values (shed/re-arm) or max member EndTime (degrade),
  // both schedule-determined, but the recording order is not.
  std::sort(R.Degradation.begin(), R.Degradation.end(),
            [](const rt::DegradationEvent &A, const rt::DegradationEvent &B) {
              if (A.Stamp != B.Stamp)
                return A.Stamp < B.Stamp;
              if (A.A != B.A)
                return static_cast<uint8_t>(A.A) < static_cast<uint8_t>(B.A);
              return A.Tid < B.Tid;
            });
}

//===----------------------------------------------------------------------===//
// Streaming service mode: windowed retirement (DESIGN.md §15)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::fillHealth(rt::HealthSnapshot &H) {
  H.WindowIndex = Governor.windowsFlushed();
  H.FinishedTxs = FinishedTxs.load(std::memory_order_relaxed);
  H.LiveTxs = Governor.liveTxs();
  H.RetiredTxs = TxsSwept.load(std::memory_order_relaxed);
  H.SealedTxs = TxsSealed.load(std::memory_order_relaxed);
  H.PinnedTxs = Governor.windowPinnedLast();
  H.CrossEdges = CrossEdges.load(std::memory_order_relaxed);
  H.Violations = Violations.count();
  {
    SpinLockGuard Guard(HealthLock);
    H.Degradations = DegEvents.size();
    H.Fault = Fault;
    H.FaultDiagnosis = FaultDiagnosis;
  }
  StatisticRegistry::Snapshot Snap = Stats.snapshot();
  H.StatsStable = Snap.Stable;
  H.Stats = std::move(Snap.Values);
}

void DoubleCheckerRuntime::healthSnapshot(rt::HealthSnapshot &H) {
  fillHealth(H);
}

bool DoubleCheckerRuntime::windowFlush() {
  return windowFlushNow(HolderExternalFlush);
}

bool DoubleCheckerRuntime::windowFlushNow(uint32_t Holder) {
  // Two threads can cross consecutive boundaries while the first flush is
  // still draining; serialize whole flushes so the second sees (and
  // retires) the first's results instead of interleaving with them.
  std::lock_guard<std::mutex> WindowGuard(WindowMu);
  const uint64_t Nth =
      WindowFlushCounter.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t T0 = Opts.Trace ? Opts.Trace->nowUs() : 0;
  if (Dog)
    Dog->beginWork(DogWindowSlot);
  if (Nth == Opts.Faults.WindowStallAt && Dog) {
    // Injected wedged flush: park busy-and-silent on the window slot until
    // the watchdog converts the stall into a structured WindowFlushStall,
    // then complete the flush normally (faults degrade observability,
    // never the run). The gate stays beaten — the program is healthy, only
    // this boundary is stuck — so the fault classification is
    // deterministic, not a race against GateStall.
    const auto Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(2 * std::max(1u, Opts.StallTimeoutMs) +
                                  50u * std::max(1u, Opts.WatchdogPollMs) +
                                  200u);
    for (;;) {
      {
        SpinLockGuard Guard(HealthLock);
        if (Fault != rt::CheckerFault::None)
          break;
      }
      if (std::chrono::steady_clock::now() >= Deadline)
        break;
      Dog->heartbeat(DogGateSlot);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  size_t DegBefore;
  {
    SpinLockGuard Guard(HealthLock);
    DegBefore = DegEvents.size();
  }
  // Detection needs no flush: cycles are claimed at their last member's
  // retire, so mid-run there is no deferred detection state (and
  // Icd->finalize must NOT run here, it assumes end-of-run quiescence).
  // Precise replay needs no flush either: the claiming thread replays
  // its SCC inline before it retires, and a replay still running on
  // another thread pins its members, so the sweep below keeps them.
  if (Dog) {
    Dog->heartbeat(DogWindowSlot);
    Dog->heartbeat(DogGateSlot);
  }
  // Sound retirement: mark-sweep from the current transactions that can
  // still gain an in-edge, plus pins. Everything the sweep keeps is the
  // cross-window state that cannot yet be proven cycle-free (current,
  // reachable from a receptive current transaction, or pinned by a
  // replay) — those transactions are carried into the next window;
  // nothing is silently dropped (DESIGN.md §15's soundness argument).
  collectNow(Holder);
  const uint64_t Pinned = Governor.liveTxs();
  Governor.windowFlushed(Pinned);
  if (Dog)
    Dog->endWork(DogWindowSlot);
  // A flush is "clean" when no stage moved work down the degradation
  // ladder. Concurrent sheds on other threads can land in the scan window
  // and mis-flag a clean flush — acceptable: the flag is a health signal,
  // and both outcomes are sound. Re-arms are recoveries, not degradations.
  bool Clean = true;
  {
    SpinLockGuard Guard(HealthLock);
    for (size_t I = DegBefore; I < DegEvents.size(); ++I)
      if (DegEvents[I].A != rt::DegradationEvent::Action::Rearm)
        Clean = false;
  }
  if (!Clean)
    WindowDegraded.fetch_add(1, std::memory_order_relaxed);
  if (Opts.Trace)
    Opts.Trace->complete("window", "window-flush", 0, T0,
                         Opts.Trace->nowUs() - T0,
                         TraceRecorder::Args()
                             .num("window", Governor.windowsFlushed())
                             .num("pinned", Pinned)
                             .num("clean", Clean ? 1 : 0));
  if (Opts.WindowHook) {
    rt::HealthSnapshot H;
    fillHealth(H);
    Opts.WindowHook(H);
  }
  return Clean;
}

StaticTransactionInfo DoubleCheckerRuntime::staticInfo() {
  // Everything was claimed at retire time; finalize is a defensive no-op
  // sweep that makes the site set complete as of the snapshot.
  if (Icd) {
    IncrementalCycleDetector::ClaimList Claims;
    Icd->finalize(Claims);
    executeIcdClaims(Claims);
  }
  SpinLockGuard Guard(SccStateLock);
  StaticTransactionInfo Info;
  Info.AnyUnary = SccAnyUnary;
  for (ir::MethodId Site : SccSites)
    if (Site != ir::InvalidMethodId)
      Info.MethodNames.insert(P.Methods[Site].Name);
  return Info;
}
