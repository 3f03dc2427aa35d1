//===- velodrome/Velodrome.cpp --------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "velodrome/Velodrome.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_map>

using namespace dc;
using namespace dc::velodrome;
using analysis::CycleMember;
using analysis::Transaction;
using analysis::ViolationRecord;

VelodromeRuntime::VelodromeRuntime(const ir::Program &P,
                                   VelodromeOptions Opts,
                                   analysis::ViolationLog &Violations,
                                   StatisticRegistry &Stats)
    : P(P), Opts(Opts), Violations(Violations), Stats(Stats) {}

VelodromeRuntime::~VelodromeRuntime() {
  for (uint32_t T = 0; T < NumThreads; ++T)
    for (Transaction *Tx : Threads[T].Owned)
      delete Tx;
}

void VelodromeRuntime::beginRun(rt::Runtime &RT) {
  NumThreads = RT.numThreads();
  Threads = std::make_unique<PerThread[]>(NumThreads);
  FieldLocks = std::vector<SpinLock>(RT.heap().numFieldAddrs());
  Fields = std::vector<FieldMeta>(RT.heap().numFieldAddrs());
}

void VelodromeRuntime::endRun(rt::Runtime &RT) {
  uint64_t Acc = 0, Fast = 0;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    Acc += Threads[T].Accesses;
    Fast += Threads[T].FastSkips;
  }
  Stats.get("velodrome.accesses").add(Acc);
  Stats.get("velodrome.unsound_fast_skips").add(Fast);
  SpinLockGuard Guard(GraphLock);
  Stats.get("velodrome.cross_edges").add(CrossEdges);
  Stats.get("velodrome.cycle_checks").add(CycleChecks);
  Stats.get("velodrome.cycles").add(Cycles);
  Stats.get("velodrome.collector_runs").add(CollectorRuns);
  Stats.get("velodrome.collector_ns").add(CollectorNs);
  Stats.get("velodrome.txs_swept").add(TxsSwept);
}

void VelodromeRuntime::threadStarted(rt::ThreadContext &TC) {
  SpinLockGuard Guard(GraphLock);
  newTransactionLocked(TC.Tid, ir::InvalidMethodId, /*Regular=*/false);
}

void VelodromeRuntime::threadExiting(rt::ThreadContext &TC) {
  SpinLockGuard Guard(GraphLock);
  endCurrentTxLocked(TC.Tid);
  Threads[TC.Tid].CurrTx.store(nullptr, std::memory_order_release);
}

void VelodromeRuntime::txBegin(rt::ThreadContext &TC, const ir::Method &M) {
  SpinLockGuard Guard(GraphLock);
  endCurrentTxLocked(TC.Tid);
  newTransactionLocked(TC.Tid, P.originalOf(M.Id), /*Regular=*/true);
}

void VelodromeRuntime::txEnd(rt::ThreadContext &TC, const ir::Method &M) {
  SpinLockGuard Guard(GraphLock);
  endCurrentTxLocked(TC.Tid);
  newTransactionLocked(TC.Tid, ir::InvalidMethodId, /*Regular=*/false);
}

Transaction *VelodromeRuntime::currentForAccess(rt::ThreadContext &TC) {
  PerThread &PT = Threads[TC.Tid];
  Transaction *Cur = PT.CurrTx.load(std::memory_order_relaxed);
  assert(Cur && "access outside any transaction context");
  if (Cur->Regular || !Cur->Interrupted.load(std::memory_order_relaxed))
    return Cur;
  SpinLockGuard Guard(GraphLock);
  endCurrentTxLocked(TC.Tid);
  return newTransactionLocked(TC.Tid, ir::InvalidMethodId,
                              /*Regular=*/false);
}

void VelodromeRuntime::instrumentedAccess(rt::ThreadContext &TC,
                                          const rt::AccessInfo &Info,
                                          function_ref<void()> Access) {
  if (!(Info.Flags & ir::IF_VelodromeBarrier)) {
    Access();
    return;
  }
  PerThread &PT = Threads[TC.Tid];
  ++PT.Accesses;
  Transaction *Cur = currentForAccess(TC);
  FieldMeta &Meta = Fields[Info.Addr];

  if (Opts.UnsoundMetadataFastPath) {
    // Racy pre-check: skip the critical section when the metadata appears
    // not to need changing. Can miss dependences under races (§5.3).
    if (!Info.IsWrite) {
      Transaction *W = Meta.LastWrite.load(std::memory_order_relaxed);
      bool AlreadyReader = false;
      for (const auto &R : Meta.Readers) {
        if (R.first == TC.Tid) {
          AlreadyReader = R.second == Cur;
          break;
        }
      }
      if (AlreadyReader && (W == nullptr || W->Tid == TC.Tid)) {
        ++PT.FastSkips;
        Access();
        return;
      }
    } else if (Meta.LastWrite.load(std::memory_order_relaxed) == Cur &&
               Meta.Readers.empty()) {
      ++PT.FastSkips;
      Access();
      return;
    }
  }

  // Lock order: field lock, then GraphLock. Metadata is *mutated* only
  // while both are held, so the collector (which holds GraphLock) can scan
  // field metadata as roots without racing vector mutations.
  SpinLockGuard FieldGuard(FieldLocks[Info.Addr]);
  Transaction *W = Meta.LastWrite.load(std::memory_order_relaxed);
  if (!Info.IsWrite) {
    // READ rule (Fig. 5): write-read edge, then record the reader.
    Transaction **Slot = nullptr;
    for (auto &R : Meta.Readers)
      if (R.first == TC.Tid)
        Slot = &R.second;
    bool AlreadyRecorded = Slot != nullptr && *Slot == Cur;
    if (!AlreadyRecorded) {
      SpinLockGuard GraphGuard(GraphLock);
      if (W != nullptr && W->Tid != TC.Tid)
        addEdgeLocked(W, Cur);
      if (Slot != nullptr)
        *Slot = Cur;
      else
        Meta.Readers.emplace_back(TC.Tid, Cur);
    }
  } else {
    // WRITE rule (Fig. 5): write-write and read-write edges, then update.
    bool NeedsChange = W != Cur || !Meta.Readers.empty();
    if (NeedsChange) {
      SpinLockGuard GraphGuard(GraphLock);
      if (W != nullptr && W->Tid != TC.Tid)
        addEdgeLocked(W, Cur);
      for (const auto &R : Meta.Readers)
        if (R.first != TC.Tid)
          addEdgeLocked(R.second, Cur);
      Meta.LastWrite.store(Cur, std::memory_order_relaxed);
      Meta.Readers.clear();
    }
  }
  Access();
}

void VelodromeRuntime::syncOp(rt::ThreadContext &TC,
                              const rt::AccessInfo &Info, rt::SyncKind Kind) {
  if (Info.Flags == ir::IF_None)
    return;
  // Release-acquire dependences: the sync slot behaves as the "extra header
  // word" tracking the last transaction to release the object's lock (§4).
  instrumentedAccess(TC, Info, [] {});
}

Transaction *VelodromeRuntime::newTransactionLocked(uint32_t Tid,
                                                    ir::MethodId Site,
                                                    bool Regular) {
  PerThread &PT = Threads[Tid];
  auto *Tx = new Transaction(++NextTxId, Tid, PT.NextSeq++, Site, Regular);
  {
    SpinLockGuard Guard(PT.OwnedLock);
    PT.Owned.push_back(Tx);
  }
  Transaction *Prev = PT.CurrTx.load(std::memory_order_relaxed);
  if (Prev != nullptr) {
    analysis::OutEdge E;
    E.Dst = Tx;
    E.Id = ++NextEdgeId;
    E.Intra = true;
    Prev->Out.push_back(E);
  }
  PT.CurrTx.store(Tx, std::memory_order_release);
  return Tx;
}

void VelodromeRuntime::endCurrentTxLocked(uint32_t Tid) {
  PerThread &PT = Threads[Tid];
  Transaction *Cur = PT.CurrTx.load(std::memory_order_relaxed);
  if (Cur == nullptr)
    return;
  Cur->Finished.store(true, std::memory_order_release);
  if (++FinishedTxs % Opts.CollectEveryTx == 0)
    collectLocked();
}

void VelodromeRuntime::addEdgeLocked(Transaction *Src, Transaction *Dst) {
  if (Src == nullptr || Src == Dst)
    return;
  // Cheap dedupe of the common consecutive-duplicate case.
  if (!Src->Out.empty() && Src->Out.back().Dst == Dst)
    return;
  analysis::OutEdge E;
  E.Dst = Dst;
  E.Id = ++NextEdgeId;
  E.Intra = false;
  Src->Out.push_back(E);
  // Edges interrupt unary-transaction merging (same demarcation as ICD).
  if (!Src->Regular)
    Src->Interrupted.store(true, std::memory_order_relaxed);
  if (!Dst->Regular)
    Dst->Interrupted.store(true, std::memory_order_relaxed);
  ++CrossEdges;
  if (Opts.DetectCycles)
    checkCycleLocked(Src, Dst);
}

void VelodromeRuntime::checkCycleLocked(Transaction *Src, Transaction *Dst) {
  ++CycleChecks;
  // The new edge Src->Dst closes a cycle iff Dst already reaches Src.
  const uint64_t Epoch = ++DfsEpoch;
  std::unordered_map<Transaction *, Transaction *> Parent;
  std::vector<Transaction *> Stack{Dst};
  Dst->SccEpoch = Epoch;
  bool Found = false;
  while (!Stack.empty() && !Found) {
    Transaction *Cur = Stack.back();
    Stack.pop_back();
    for (const analysis::OutEdge &E : Cur->Out) {
      if (E.Dst->SccEpoch == Epoch)
        continue;
      E.Dst->SccEpoch = Epoch;
      Parent[E.Dst] = Cur;
      if (E.Dst == Src) {
        Found = true;
        break;
      }
      Stack.push_back(E.Dst);
    }
  }
  if (!Found)
    return;
  ++Cycles;

  // Reconstruct the cycle Dst -> ... -> Src (-> Dst via the new edge).
  std::vector<Transaction *> Cycle;
  for (Transaction *Cur = Src;; Cur = Parent[Cur]) {
    Cycle.push_back(Cur);
    if (Cur == Dst)
      break;
  }
  std::reverse(Cycle.begin(), Cycle.end());

  // Blame: the transaction whose outgoing cycle edge was created earlier
  // than its incoming one (it completed the cycle). Edge ids are creation-
  // ordered. Prefer regular transactions.
  auto EdgeIdOf = [](Transaction *From, Transaction *To) {
    uint64_t Best = ~0ULL;
    for (const analysis::OutEdge &E : From->Out)
      if (E.Dst == To && E.Id < Best)
        Best = E.Id;
    return Best;
  };
  const size_t N = Cycle.size();
  ir::MethodId Blamed = ir::InvalidMethodId;
  for (size_t I = 0; I < N && Blamed == ir::InvalidMethodId; ++I) {
    Transaction *Prev = Cycle[(I + N - 1) % N];
    Transaction *Cur = Cycle[I];
    Transaction *Next = Cycle[(I + 1) % N];
    if (Cur->Regular && EdgeIdOf(Cur, Next) < EdgeIdOf(Prev, Cur))
      Blamed = Cur->Site;
  }
  if (Blamed == ir::InvalidMethodId) {
    for (Transaction *Tx : Cycle)
      if (Tx->Regular) {
        Blamed = Tx->Site;
        break;
      }
  }

  ViolationRecord R;
  R.Blamed = Blamed;
  for (Transaction *Tx : Cycle)
    R.Cycle.push_back(CycleMember{Tx->Tid, Tx->Site, Tx->Id});
  Violations.report(std::move(R));
}

void VelodromeRuntime::collectLocked() {
  auto StartTime = std::chrono::steady_clock::now();
  const uint64_t Epoch = ++MarkEpoch;
  std::vector<Transaction *> Work;
  auto AddRoot = [&](Transaction *Tx) {
    if (Tx != nullptr && Tx->MarkEpoch != Epoch) {
      Tx->MarkEpoch = Epoch;
      Work.push_back(Tx);
    }
  };
  for (uint32_t T = 0; T < NumThreads; ++T)
    AddRoot(Threads[T].CurrTx.load(std::memory_order_relaxed));
  // Field metadata references are roots: a last-writer/reader can still
  // source a future edge. (Bounded by the number of fields; see header.)
  for (FieldMeta &Meta : Fields) {
    AddRoot(Meta.LastWrite.load(std::memory_order_relaxed));
    for (const auto &R : Meta.Readers)
      AddRoot(R.second);
  }
  while (!Work.empty()) {
    Transaction *Tx = Work.back();
    Work.pop_back();
    for (const analysis::OutEdge &E : Tx->Out)
      AddRoot(E.Dst);
  }
  for (uint32_t T = 0; T < NumThreads; ++T) {
    PerThread &PT = Threads[T];
    SpinLockGuard Guard(PT.OwnedLock);
    size_t Kept = 0;
    for (Transaction *Tx : PT.Owned) {
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
