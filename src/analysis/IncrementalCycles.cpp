//===- analysis/IncrementalCycles.cpp - Online IDG cycle detection --------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/IncrementalCycles.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace dc {
namespace analysis {

namespace {
/// Fast-path attempts before giving up and classifying under Mu. A retry
/// only happens while a reorder is in flight, so the cap is a liveness
/// backstop, not a tuning knob: under a reorder storm the slow path is the
/// correct place to wait anyway (the region being permuted probably
/// involves our endpoints).
constexpr unsigned FastPathRetryCap = 8;
} // namespace

IncrementalCycleDetector::~IncrementalCycleDetector() {
  for (IcdGroup *G : Groups)
    delete G;
  for (IcdGroup *G : Graveyard)
    delete G;
  IcdEdgeNode *N = AllNodes.load(std::memory_order_acquire);
  while (N != nullptr) {
    IcdEdgeNode *Next = N->NextAll;
    delete N;
    N = Next;
  }
}

void IncrementalCycleDetector::lockMu() {
  if (Mu.tryLock())
    return;
  const auto Start = std::chrono::steady_clock::now();
  Mu.lock();
  const auto Waited = std::chrono::steady_clock::now() - Start;
  // Charge only after the lock is held, nanoseconds before count; the
  // flush side drains count before nanoseconds. A flush racing a charge
  // can therefore never observe a wait whose nanoseconds have not landed —
  // at worst a wait's nanoseconds slip into the *next* flush, so the pair
  // is momentarily over on ns, never torn under.
  LockWaitNs.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Waited).count(),
      std::memory_order_relaxed);
  LockWaits.fetch_add(1, std::memory_order_relaxed);
}

void IncrementalCycleDetector::addNode(Transaction *Tx) {
  // Lock-free: new nodes are maximal (no edge can point at a transaction
  // that does not exist yet), and a relaxed fetch-add keeps the key above
  // everything a concurrent reorder could be permuting. The key reaches
  // other threads through the stripe hand-off that publishes Tx itself.
  Tx->IcdOrd.store(NextOrd.fetch_add(1, std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

void IncrementalCycleDetector::addChainEdge(Transaction *Prev,
                                            Transaction *Tx) {
  if (Prev == nullptr || Tx == nullptr || Prev == Tx)
    return;
  // Tx's key is fresh and maximal, so ord(Prev) < ord(Tx) holds no matter
  // what any concurrent reorder permutes — the edge is consistent by
  // construction and needs no lock at all. The release store (paired with
  // the searches' acquire loads) publishes Tx's key with the link.
  Tx->IcdChainPrev.store(Prev, std::memory_order_relaxed);
  Prev->IcdChainNext.store(Tx, std::memory_order_release);
  ChainEdges.fetch_add(1, std::memory_order_relaxed);
}

IcdEdgeNode *IncrementalCycleDetector::allocNode() {
  // Recycle if the free list is uncontended; a contended tryLock just
  // allocates, so the fast path never blocks here. Pops and pushes are
  // both under FreeMu, so there is no lock-free-pop ABA window.
  if (FreeMu.tryLock()) {
    IcdEdgeNode *N = FreeList;
    if (N != nullptr)
      FreeList = N->NextFree;
    FreeMu.unlock();
    if (N != nullptr) {
      N->Next = nullptr;
      N->NextFree = nullptr;
      return N;
    }
  }
  IcdEdgeNode *N = new IcdEdgeNode;
  // Thread every allocation on the ownership chain the destructor sweeps.
  IcdEdgeNode *Head = AllNodes.load(std::memory_order_relaxed);
  do {
    N->NextAll = Head;
  } while (!AllNodes.compare_exchange_weak(Head, N, std::memory_order_release,
                                           std::memory_order_relaxed));
  return N;
}

void IncrementalCycleDetector::publishEdge(Transaction *Src,
                                           Transaction *Dst) {
  // Two cells per logical edge, each published with a release CAS so an
  // acquire head load (searches under Mu, the duplicate check) sees the
  // cell's Peer/Next fully written. C++ release sequences continue through
  // the RMWs of later pushers, so one acquire load of the head
  // synchronizes with every push before it.
  IcdEdgeNode *OutN = allocNode();
  OutN->Peer = Dst;
  IcdEdgeNode *Head = Src->IcdOutHead.load(std::memory_order_relaxed);
  do {
    OutN->Next = Head;
  } while (!Src->IcdOutHead.compare_exchange_weak(
      Head, OutN, std::memory_order_release, std::memory_order_relaxed));
  IcdEdgeNode *InN = allocNode();
  InN->Peer = Src;
  Head = Dst->IcdInHead.load(std::memory_order_relaxed);
  do {
    InN->Next = Head;
  } while (!Dst->IcdInHead.compare_exchange_weak(
      Head, InN, std::memory_order_release, std::memory_order_relaxed));
}

void IncrementalCycleDetector::registerGroup(IcdGroup *G) {
  G->RegIdx = Groups.size();
  Groups.push_back(G);
}

void IncrementalCycleDetector::unregisterGroup(IcdGroup *G) {
  const size_t I = G->RegIdx;
  Groups[I] = Groups.back();
  Groups[I]->RegIdx = I;
  Groups.pop_back();
}

void IncrementalCycleDetector::buryGroup(IcdGroup *G) {
  // A fast-path reader may still hold this pointer from a snapshot that
  // is about to fail seqlock validation — it must stay dereferenceable
  // until no thread can be inside addEdge, which is exactly when the
  // collector holds every stripe (removeNodes) or at destruction.
  unregisterGroup(G);
  Graveyard.push_back(G);
}

void IncrementalCycleDetector::claimGroup(IcdGroup *G, ClaimList &Out) {
  G->Claimed = true;
  for (Transaction *M : G->Members)
    M->Pins.fetch_add(1, std::memory_order_relaxed);
  Claim C;
  C.Members = G->Members;
  Out.push_back(std::move(C));
}

void IncrementalCycleDetector::addEdge(Transaction *Src, Transaction *Dst,
                                       ClaimList &Out) {
  if (Src == nullptr || Dst == nullptr || Src == Dst)
    return;
  EdgesObserved.fetch_add(1, std::memory_order_relaxed);
  // Lock-free fast path: snapshot both endpoints' group/key state under
  // the reorder seqlock, and if the edge is order-consistent publish the
  // adjacency cells and revalidate. Only a snapshot that raced an actual
  // reorder falls through to Mu. DESIGN.md §12 has the linearization
  // argument for why a validated fast edge is observed by every later
  // reorder or cycle check.
  uint32_t Storm = Opts.RetryStorm;
  for (unsigned Attempt = 0; Attempt < FastPathRetryCap; ++Attempt) {
    const uint64_t E = Seq.readBegin();
    if (Storm > 0) {
      // Deterministic validation failure for tests/fault sweeps.
      --Storm;
      SeqRetries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    IcdGroup *GS = Src->IcdG.load(std::memory_order_acquire);
    IcdGroup *GD = Dst->IcdG.load(std::memory_order_acquire);
    const bool Same = GS != nullptr && GS == GD;
    const bool Poisoned =
        (GS != nullptr && GS->Oversized) || (GD != nullptr && GD->Oversized);
    const uint64_t KS = GS != nullptr
                            ? GS->Ord.load(std::memory_order_relaxed)
                            : Src->IcdOrd.load(std::memory_order_relaxed);
    const uint64_t KD = GD != nullptr
                            ? GD->Ord.load(std::memory_order_relaxed)
                            : Dst->IcdOrd.load(std::memory_order_relaxed);
    if (Seq.readRetry(E)) {
      SeqRetries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // The snapshot was stable at epoch E.
    if (Same)
      return; // Internal to a merged component: not recorded (see the
              // slow path's rationale), and a later merge racing this
              // conclusion can only have *added* the same-group fact.
    if (Poisoned || KS >= KD)
      break; // Needs absorption or a reorder: classify under Mu.
    if (headIsDuplicate(Src, Dst)) {
      // Consecutive duplicate (one transaction pair conflicting on many
      // variables): the existing cell already carries the edge, so the
      // order invariant is already upheld — nothing to publish.
      LfFast.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    publishEdge(Src, Dst);
    if (!Seq.readRetry(E)) {
      // No reorder overlapped [snapshot, publication]: the edge was
      // consistent when published and every later writer section will
      // observe the cells (fence argument, DESIGN.md §12). Done — the
      // hot path never touched Mu.
      LfFast.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // A reorder raced the publication. The cells are in the chains
    // (possibly already seen by the writer's search); only the
    // *classification* is stale. Reconcile under Mu without
    // re-publishing.
    SeqRetries.fetch_add(1, std::memory_order_relaxed);
    addEdgeSlow(Src, Dst, Out, /*Publish=*/false);
    return;
  }
  addEdgeSlow(Src, Dst, Out, /*Publish=*/true);
}

void IncrementalCycleDetector::addEdgeSlow(Transaction *Src, Transaction *Dst,
                                           ClaimList &Out, bool Publish) {
  TimedGuard L(*this);
  if (sameVertex(Src, Dst))
    return; // Internal to an already-merged component: changes neither
            // reachability (searches expand whole groups) nor order, so
            // it is not even recorded — hot ping-pong pairs would
            // otherwise grow the merged component's adjacency forever. A
            // cell a racing fast path already published is harmless for
            // the same reason.
  // Detector-private symmetric adjacency. Consecutive duplicates collapse:
  // repeated conflicts between one transaction pair are the common case,
  // and a duplicate edge changes neither reachability nor order. Published
  // before the oversized checks so absorption closures cross the new edge.
  if (Publish && !headIsDuplicate(Src, Dst))
    publishEdge(Src, Dst);
  IcdGroup *GS = groupOf(Src);
  IcdGroup *GD = groupOf(Dst);
  if (GS != nullptr && GS->Oversized) {
    SeqWriteGuard W(Seq);
    absorbInto(GS, {Dst}, Out);
    return;
  }
  if (GD != nullptr && GD->Oversized) {
    SeqWriteGuard W(Seq);
    absorbInto(GD, {Src}, Out);
    return;
  }
  if (ordOf(Src) < ordOf(Dst)) {
    ++NumFastEdges; // Order already consistent (fast path raced or capped
                    // out): no traversal.
    return;
  }
  SeqWriteGuard W(Seq);
  insertInconsistent(Src, Dst, Out);
}

void IncrementalCycleDetector::insertInconsistent(Transaction *Src,
                                                  Transaction *Dst,
                                                  ClaimList &Out) {
  const uint64_t HiOrd = ordOf(Src);
  const uint64_t LoOrd = ordOf(Dst);
  const uint64_t FStamp = ++VisitClock;
  const uint64_t BStamp = ++VisitClock;

  // Forward search from Dst over vertices with keys ≤ ord(Src). Visits are
  // per condensation vertex (a group shares one stamp and one order key).
  std::vector<Transaction *> VF;    // Forward-visited (members included).
  std::vector<Transaction *> BOnly; // Backward-only.
  std::vector<Transaction *> MemberV; // F∩B: the new component's vertices.
  std::vector<Transaction *> Stack;

  bool Oversize = false;
  IcdGroup *Poison = nullptr; // Oversized group a search touched.
  stampOf(Dst) = FStamp;
  VF.push_back(Dst);
  Stack.push_back(Dst);
  while (!Stack.empty() && Poison == nullptr) {
    if (VF.size() > Opts.MaxRegion) {
      Oversize = true;
      break;
    }
    Transaction *V = Stack.back();
    Stack.pop_back();
    auto Visit = [&](Transaction *N) {
      if (N == nullptr || stampOf(N) == FStamp)
        return;
      IcdGroup *GN = groupOf(N);
      if (GN != nullptr && GN->Oversized) {
        // Lazy poison contact (a chain link published after the region
        // was absorbed): abandon the search and absorb the new edge.
        Poison = GN;
        return;
      }
      if (ordOf(N) > HiOrd)
        return;
      stampOf(N) = FStamp;
      VF.push_back(N);
      Stack.push_back(N);
    };
    auto Expand = [&](Transaction *M) {
      for (IcdEdgeNode *C = M->IcdOutHead.load(std::memory_order_acquire);
           C != nullptr; C = C->Next)
        Visit(C->Peer);
      Visit(M->IcdChainNext.load(std::memory_order_acquire));
    };
    if (IcdGroup *GV = groupOf(V))
      for (Transaction *M : GV->Members)
        Expand(M);
    else
      Expand(V);
  }

  // Backward search from Src over keys ≥ ord(Dst). A vertex already
  // carrying the forward stamp is in both frontiers — i.e. on the cycle
  // the new edge closes.
  if (!Oversize && Poison == nullptr) {
    Stack.clear();
    auto VisitB = [&](Transaction *N) {
      const bool WasF = stampOf(N) == FStamp;
      stampOf(N) = BStamp;
      (WasF ? MemberV : BOnly).push_back(N);
      Stack.push_back(N);
    };
    VisitB(Src);
    while (!Stack.empty() && Poison == nullptr) {
      if (VF.size() + BOnly.size() > Opts.MaxRegion) {
        Oversize = true;
        break;
      }
      Transaction *V = Stack.back();
      Stack.pop_back();
      auto Visit = [&](Transaction *N) {
        if (N == nullptr || stampOf(N) == BStamp)
          return;
        IcdGroup *GN = groupOf(N);
        if (GN != nullptr && GN->Oversized) {
          Poison = GN;
          return;
        }
        if (ordOf(N) < LoOrd)
          return;
        VisitB(N);
      };
      auto Expand = [&](Transaction *M) {
        for (IcdEdgeNode *C = M->IcdInHead.load(std::memory_order_acquire);
             C != nullptr; C = C->Next)
          Visit(C->Peer);
        Visit(M->IcdChainPrev.load(std::memory_order_acquire));
      };
      if (IcdGroup *GV = groupOf(V))
        for (Transaction *M : GV->Members)
          Expand(M);
      else
        Expand(V);
    }
  }

  if (Poison != nullptr) {
    // Touching a poisoned region means the new edge connects to it:
    // absorb both endpoints (and their undirected closure) instead of
    // reordering. The stamps left behind are epoch-based garbage.
    absorbInto(Poison, {Src, Dst}, Out);
    return;
  }

  const size_t Region = VF.size() + BOnly.size();
  RegionMax = std::max<uint64_t>(RegionMax, Region);

  if (Oversize) {
    // The region is too dense to keep reordering: poison it. Everything
    // connected (in the undirected sense) to the new edge collapses into
    // one oversized group whose members are reported as Potential; the
    // stamps left behind are epoch-based and need no cleanup.
    IcdGroup *G = new IcdGroup;
    G->Oversized = true;
    G->Claimed = true;
    // Never consulted: searches skip oversized groups.
    G->Ord.store(HiOrd, std::memory_order_relaxed);
    registerGroup(G);
    absorbInto(G, {Src, Dst}, Out);
    return;
  }

  ++NumReorders;
  ReorderVisited += Region;
  if (ReorderHook)
    ReorderHook(Region);

  // Restore order consistency by permuting the region's own keys:
  // backward frontier gets the lowest keys, the merged component the next
  // one, the forward frontier the highest. Relative order within each
  // block is preserved, so every edge into, out of, or across the region
  // stays consistent (see the proof sketch in DESIGN.md §12).
  std::vector<uint64_t> Pool;
  Pool.reserve(Region);
  for (Transaction *V : VF)
    Pool.push_back(ordOf(V));
  for (Transaction *V : BOnly)
    Pool.push_back(ordOf(V));
  std::sort(Pool.begin(), Pool.end());

  const auto ByOrd = [this](Transaction *A, Transaction *B) {
    return ordOf(A) < ordOf(B);
  };
  std::sort(BOnly.begin(), BOnly.end(), ByOrd);
  std::vector<Transaction *> FOnly; // VF minus members: stamp still FStamp
  for (Transaction *V : VF)        // (members were restamped BStamp).
    if (stampOf(V) == FStamp)
      FOnly.push_back(V);
  std::sort(FOnly.begin(), FOnly.end(), ByOrd);

  size_t Slot = 0;
  for (Transaction *V : BOnly)
    setOrd(V, Pool[Slot++]);

  if (!MemberV.empty()) {
    // The edge closed a cycle: merge F∩B into one condensation vertex.
    IcdGroup *G = new IcdGroup;
    for (Transaction *V : MemberV) {
      if (IcdGroup *Old = groupOf(V)) {
        for (Transaction *M : Old->Members) {
          M->IcdG.store(G, std::memory_order_release);
          G->Members.push_back(M);
        }
        buryGroup(Old);
      } else {
        V->IcdG.store(G, std::memory_order_release);
        G->Members.push_back(V);
      }
    }
    for (Transaction *M : G->Members)
      if (!M->IcdRetired)
        ++G->Unretired;
    // Between the backward and forward blocks.
    G->Ord.store(Pool[Slot], std::memory_order_relaxed);
    G->Epoch = BStamp;
    registerGroup(G);
    ++NumCycles;
    // The runtime's edges always target an unfinished (hence unretired)
    // transaction, so the claim waits for retire(); hand-built graphs may
    // close a cycle among finished nodes, in which case claim here.
    if (G->Unretired == 0)
      claimGroup(G, Out);
  }

  Slot = Pool.size() - FOnly.size();
  for (Transaction *V : FOnly)
    setOrd(V, Pool[Slot++]);
}

void IncrementalCycleDetector::absorbInto(
    IcdGroup *G, const std::vector<Transaction *> &Seeds, ClaimList &Out) {
  assert(G->Oversized && "absorption is the oversized-region valve");
  // Fresh doubles as the BFS worklist and the claim's member list: the
  // undirected closure of the seeds, minus what the group already holds.
  std::vector<Transaction *> Fresh;
  auto Absorb = [&](Transaction *N) {
    if (groupOf(N) == G)
      return;
    if (IcdGroup *Old = groupOf(N)) {
      // Members of another *oversized* group were already reported (and
      // pinned) when that group absorbed them: splice them in silently.
      const bool Report = !Old->Oversized;
      for (Transaction *M : Old->Members) {
        M->IcdG.store(G, std::memory_order_release);
        G->Members.push_back(M);
        if (Report)
          Fresh.push_back(M);
      }
      buryGroup(Old);
    } else {
      N->IcdG.store(G, std::memory_order_release);
      G->Members.push_back(N);
      Fresh.push_back(N);
    }
  };
  for (Transaction *S : Seeds)
    Absorb(S);
  for (size_t I = 0; I < Fresh.size(); ++I) {
    Transaction *M = Fresh[I];
    for (IcdEdgeNode *C = M->IcdOutHead.load(std::memory_order_acquire);
         C != nullptr; C = C->Next)
      Absorb(C->Peer);
    for (IcdEdgeNode *C = M->IcdInHead.load(std::memory_order_acquire);
         C != nullptr; C = C->Next)
      Absorb(C->Peer);
    if (Transaction *N = M->IcdChainNext.load(std::memory_order_acquire))
      Absorb(N);
    if (Transaction *N = M->IcdChainPrev.load(std::memory_order_acquire))
      Absorb(N);
  }
  if (Fresh.empty())
    return;
  ++CapDegrades;
  for (Transaction *M : Fresh)
    M->Pins.fetch_add(1, std::memory_order_relaxed);
  Claim C;
  C.Members = std::move(Fresh);
  C.Oversized = true;
  Out.push_back(std::move(C));
}

void IncrementalCycleDetector::retire(Transaction *Tx, ClaimList &Out) {
  TimedGuard L(*this);
  if (Tx->IcdRetired)
    return;
  Tx->IcdRetired = true;
  IcdGroup *G = groupOf(Tx);
  if (G != nullptr && !G->Claimed && G->Unretired > 0 &&
      --G->Unretired == 0)
    claimGroup(G, Out); // Last member to finish claims the component.
}

void IncrementalCycleDetector::removeNodes(
    const std::vector<Transaction *> &Doomed) {
  TimedGuard L(*this);
  // All stripes are held (collectNow), so no thread is inside addEdge —
  // no seqlock writer mode needed, no fast-path snapshot can be live, and
  // the deferred reclamation below is safe.
  std::vector<IcdEdgeNode *> Recycled;
  // Removes every cell whose Peer is Tx from the chain at Head,
  // preserving the order of the survivors.
  const auto PurgeChain = [&Recycled](std::atomic<IcdEdgeNode *> &Head,
                                      Transaction *Tx) {
    IcdEdgeNode *Cur = Head.load(std::memory_order_relaxed);
    IcdEdgeNode *Kept = nullptr;
    IcdEdgeNode **Tail = &Kept;
    while (Cur != nullptr) {
      IcdEdgeNode *Next = Cur->Next;
      if (Cur->Peer == Tx) {
        Recycled.push_back(Cur);
      } else {
        *Tail = Cur;
        Tail = &Cur->Next;
      }
      Cur = Next;
    }
    *Tail = nullptr;
    Head.store(Kept, std::memory_order_relaxed);
  };
  for (Transaction *Tx : Doomed) {
    for (IcdEdgeNode *C = Tx->IcdOutHead.load(std::memory_order_relaxed);
         C != nullptr; C = C->Next)
      if (C->Peer != Tx)
        PurgeChain(C->Peer->IcdInHead, Tx);
    for (IcdEdgeNode *C = Tx->IcdInHead.load(std::memory_order_relaxed);
         C != nullptr; C = C->Next)
      if (C->Peer != Tx)
        PurgeChain(C->Peer->IcdOutHead, Tx);
    for (IcdEdgeNode *C = Tx->IcdOutHead.load(std::memory_order_relaxed);
         C != nullptr;) {
      IcdEdgeNode *Next = C->Next;
      Recycled.push_back(C);
      C = Next;
    }
    for (IcdEdgeNode *C = Tx->IcdInHead.load(std::memory_order_relaxed);
         C != nullptr;) {
      IcdEdgeNode *Next = C->Next;
      Recycled.push_back(C);
      C = Next;
    }
    Tx->IcdOutHead.store(nullptr, std::memory_order_relaxed);
    Tx->IcdInHead.store(nullptr, std::memory_order_relaxed);
    // Chain unlink. In the runtime a doomed node's chain neighbours are
    // doomed with it (the mark phase follows the same edges), so this is
    // defensive, like the purges above.
    if (Transaction *N = Tx->IcdChainPrev.load(std::memory_order_relaxed))
      if (N->IcdChainNext.load(std::memory_order_relaxed) == Tx)
        N->IcdChainNext.store(nullptr, std::memory_order_relaxed);
    if (Transaction *N = Tx->IcdChainNext.load(std::memory_order_relaxed))
      if (N->IcdChainPrev.load(std::memory_order_relaxed) == Tx)
        N->IcdChainPrev.store(nullptr, std::memory_order_relaxed);
    Tx->IcdChainNext.store(nullptr, std::memory_order_relaxed);
    Tx->IcdChainPrev.store(nullptr, std::memory_order_relaxed);
    if (IcdGroup *G = groupOf(Tx)) {
      // Only claimed (processed or poisoned) groups can lose members: an
      // unclaimed group has an unretired member rooting the whole
      // component through the mark phase.
      G->Members.erase(
          std::remove(G->Members.begin(), G->Members.end(), Tx),
          G->Members.end());
      if (!Tx->IcdRetired && G->Unretired > 0)
        --G->Unretired;
      Tx->IcdG.store(nullptr, std::memory_order_relaxed);
      if (G->Members.empty())
        buryGroup(G);
    }
  }
  // Safe reclamation point (see above): drain the graveyard and return
  // the purged cells to the free list so streaming runs keep RSS bounded.
  for (IcdGroup *G : Graveyard)
    delete G;
  Graveyard.clear();
  if (!Recycled.empty()) {
    SpinLockGuard F(FreeMu);
    for (IcdEdgeNode *N : Recycled) {
      N->Peer = nullptr;
      N->Next = nullptr;
      N->NextFree = FreeList;
      FreeList = N;
    }
  }
}

void IncrementalCycleDetector::finalize(ClaimList &Out) {
  TimedGuard L(*this);
  for (size_t I = 0; I < Groups.size(); ++I) {
    IcdGroup *G = Groups[I];
    if (!G->Claimed) {
      ++FinalizeClaims;
      claimGroup(G, Out);
    }
  }
}

void IncrementalCycleDetector::flushStats(StatisticRegistry &Stats) {
  TimedGuard L(*this);
  // Chain links are the ultimate fast path: consistent by construction.
  const uint64_t Chain = ChainEdges.exchange(0, std::memory_order_relaxed);
  const uint64_t Lf = LfFast.exchange(0, std::memory_order_relaxed);
  const uint64_t Edges = EdgesObserved.exchange(0, std::memory_order_relaxed);
  Stats.get("icd.inc_edges").add(Edges + Chain);
  Stats.get("icd.inc_fast_edges").add(NumFastEdges + Lf + Chain);
  Stats.get("icd.fastpath_lockfree").add(Lf);
  Stats.get("icd.seqlock_retries")
      .add(SeqRetries.exchange(0, std::memory_order_relaxed));
  Stats.get("icd.reorders").add(NumReorders);
  Stats.get("icd.reorder_visited").add(ReorderVisited);
  Stats.get("icd.region_max").updateMax(RegionMax);
  Stats.get("icd.cycles_incremental").add(NumCycles);
  Stats.get("icd.region_cap_degrades").add(CapDegrades);
  Stats.get("icd.finalize_claims").add(FinalizeClaims);
  // Count before nanoseconds — the charge side adds nanoseconds before
  // count (lockMu), so this order can never drain a wait without its time.
  Stats.get("icd.lock_waits")
      .add(LockWaits.exchange(0, std::memory_order_relaxed));
  Stats.get("icd.lock_wait_ns")
      .add(LockWaitNs.exchange(0, std::memory_order_relaxed));
  NumFastEdges = NumReorders = ReorderVisited = 0;
  RegionMax = NumCycles = CapDegrades = FinalizeClaims = 0;
}

} // namespace analysis
} // namespace dc
