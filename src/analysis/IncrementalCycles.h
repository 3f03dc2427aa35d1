//===- analysis/IncrementalCycles.h - Online IDG cycle detection -*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental online cycle detection over the IDG (DESIGN.md §12). Instead
/// of stop-the-world SCC passes that freeze every IDG stripe, the detector
/// maintains a topological order of the condensation of the live+finished
/// transaction graph under edge insertion, Pearce–Kelly style:
///
///  * every transaction gets a monotonically increasing order key at
///    creation (new nodes are maximal, so the intra-thread chain is free);
///  * a cross edge u→v with ord(u) < ord(v) is consistent — O(1), no
///    traversal, no stripe beyond the two the edge writer already holds,
///    and no detector lock either: the keys are read under the reorder
///    seqlock and the adjacency node publishes with a lock-free push (see
///    "Locking" below);
///  * an inconsistent edge triggers a bounded two-way search of the
///    affected region (forward from v over keys ≤ ord(u), backward from u
///    over keys ≥ ord(v)). If the searches meet, the edge closed a cycle:
///    the meeting vertices are exactly the new SCC, which is merged into
///    one condensation vertex (IcdGroup) so later searches cross it in one
///    step. Either way the region's keys are permuted — backward frontier
///    below, merged component in the middle, forward frontier on top — to
///    restore order consistency.
///
/// Claiming is exactly-once: a confirmed component is handed to PCD by the
/// *last member to finish* (retire()) — the first instant the cycle is
/// complete over finished transactions (§3.2.3), since every edge targets
/// an unfinished transaction. The caller executes claims (pinning,
/// degradation checks, PCD hand-off) outside the detector lock.
///
/// Soundness valve (the Bender-style dense-end bound): when an affected
/// region exceeds Options::MaxRegion, the detector stops reordering that
/// neighbourhood. The region collapses into one poisoned "oversized" group
/// that absorbs — via undirected closure — everything an edge ever connects
/// to it, and every absorbed transaction is reported as a Potential
/// violation (Pcd::reportPotential path). Order consistency among
/// non-absorbed vertices is preserved (deleting vertices from a DAG cannot
/// invalidate a topological order), and any future cycle that touches the
/// poisoned region has all its members absorbed and reported, so no
/// violation is lost — precision degrades, soundness does not.
///
/// Locking: one internal spin lock Mu, strictly *after* IDG stripes in the
/// acquisition order (edge writers hold ≤ 2 stripes, the collector holds
/// all of them; the detector never takes a stripe), plus a reorder seqlock
/// whose writer mode is entered only under Mu and only around sections that
/// permute order keys or group membership. The per-transaction hot path
/// never touches either: key assignment (addNode) is a relaxed fetch-add,
/// and the program-order edge (addChainEdge) is two atomic pointer stores —
/// consistent by construction because the new vertex's key is maximal.
/// Consistent *cross* edges are also lock-free: addEdge snapshots both
/// endpoints' keys/groups, validates the snapshot against the seqlock,
/// publishes two adjacency nodes with release CASes, and re-validates; only
/// a fast path that raced a concurrent reorder falls back to Mu to
/// reconcile (DESIGN.md §12 gives the linearization argument). Inconsistent
/// edges, retirement, collection, and finalize take Mu; reorders and merges
/// additionally run in seqlock writer mode. The collector unlinks doomed
/// nodes (removeNodes) while it still holds every stripe — which excludes
/// every fast path, since edge writers hold endpoint stripes — and before
/// it frees anything, so the detector never sees a dangling node: a swept
/// transaction is unreachable and finished, hence can never appear on a
/// future cycle, and dropping it cannot invalidate the remaining order.
///
//===----------------------------------------------------------------------===//

#ifndef DC_ANALYSIS_INCREMENTALCYCLES_H
#define DC_ANALYSIS_INCREMENTALCYCLES_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/Transaction.h"
#include "support/SeqLock.h"
#include "support/SpinLock.h"
#include "support/Statistic.h"

namespace dc {
namespace analysis {

/// One cell of a transaction's detector-private adjacency chain. Owned by
/// the detector (recycled through a free list; every cell ever allocated is
/// additionally threaded on an all-nodes chain the destructor sweeps).
/// Peer/Next are written before the cell is published with a release CAS on
/// the chain head and never change afterwards until the cell is unlinked
/// under Mu + all stripes (removeNodes) — so chain walks under Mu need no
/// per-cell synchronization beyond the acquire head load.
struct IcdEdgeNode {
  Transaction *Peer = nullptr;
  IcdEdgeNode *Next = nullptr;
  /// All-nodes ownership chain (push-once, walked only by the destructor)
  /// and, while the cell sits on the free list, the free-list link.
  IcdEdgeNode *NextAll = nullptr;
  IcdEdgeNode *NextFree = nullptr;
};

/// A condensation vertex: the members of one confirmed (or poisoned) SCC,
/// sharing a single order key and visit stamp. Mutated only under the
/// detector's internal lock (in seqlock writer mode when the order key
/// moves); Ord is atomic because the lock-free fast path reads it through
/// a seqlock-validated snapshot.
struct IcdGroup {
  std::vector<Transaction *> Members;
  std::atomic<uint64_t> Ord{0};
  uint64_t Epoch = 0;   ///< Visit stamp shared by all members.
  uint32_t Unretired = 0;
  size_t RegIdx = 0;    ///< Position in the detector's registry.
  bool Claimed = false; ///< Handed to the PCD path (or poisoned).
  /// Immutable after the group is published through a member's IcdG release
  /// store, so fast-path readers may read it plain after an acquire load.
  bool Oversized = false;
};

class IncrementalCycleDetector {
public:
  struct Options {
    /// Affected-region cap: searches visiting more vertices than this stop
    /// reordering and degrade the region to Potential reports. The default
    /// is far beyond any region a bounded live graph can produce; tests
    /// shrink it to force the valve.
    uint32_t MaxRegion = 1u << 20;
    /// Test/fault knob: make each fast-path attempt fail seqlock
    /// validation this many times before proceeding, deterministically
    /// exercising the retry counter and — at or past the retry cap — the
    /// Mu fallback even under serialized scheduling. 0 = off.
    uint32_t RetryStorm = 0;
  };

  /// One component the caller must hand to the PCD/refinement path. The
  /// detector has already pinned every member (Transaction::Pins); the
  /// caller unpins with release order when it is done with the members' logs.
  struct Claim {
    std::vector<Transaction *> Members;
    /// Poisoned-region absorption (only the newly absorbed transactions):
    /// report Potential, never replay.
    bool Oversized = false;
  };
  using ClaimList = std::vector<Claim>;

  explicit IncrementalCycleDetector(const Options &O) : Opts(O) {}
  ~IncrementalCycleDetector();

  IncrementalCycleDetector(const IncrementalCycleDetector &) = delete;
  IncrementalCycleDetector &
  operator=(const IncrementalCycleDetector &) = delete;

  /// Registers a new transaction as a maximal vertex. Called at
  /// transaction creation (the caller holds the owner's stripe; any stripe
  /// set composes with the internal lock).
  void addNode(Transaction *Tx);

  /// Observes an IDG edge (intra or cross). The caller holds the stripes
  /// it already holds for the IDG append — the detector takes none. A
  /// consistent edge (the common case) completes lock-free; only
  /// inconsistent or racing edges take the internal lock. Only Oversized
  /// claims can be produced here (a cycle's precise claim always waits for
  /// retire(), because an edge's target is unfinished).
  void addEdge(Transaction *Src, Transaction *Dst, ClaimList &Out);

  /// Observes the program-order edge \p Prev → \p Tx at \p Tx's creation —
  /// the per-transaction hot path, and entirely lock-free: \p Tx just
  /// received a maximal order key (addNode), so the edge is consistent by
  /// construction, and the chain pointer publishes with release order
  /// under the owner's stripe. If \p Prev's region is poisoned the
  /// contact is repaired lazily — the first search that reaches the
  /// poisoned group through the chain absorbs the toucher (soundness is
  /// preserved because pruning at a poisoned group now implies
  /// absorption, never a silently missed path).
  void addChainEdge(Transaction *Prev, Transaction *Tx);

  /// Observes a transaction's end. Must be called with *no* stripes held:
  /// a produced precise Claim is executed by the caller right after, and
  /// that execution replays the SCC inline (PCD).
  void retire(Transaction *Tx, ClaimList &Out);

  /// Unlinks doomed transactions before the collector frees them. Must be
  /// called under all stripes (collectNow), before any free. An unclaimed
  /// component can never be doomed — some member is unretired, hence still
  /// a thread's CurrTx (a strong root), and the members are mutually
  /// reachable through Out edges the mark phase follows. Holding all
  /// stripes excludes every lock-free fast path (edge writers hold their
  /// endpoint stripes), so this is also where deferred group reclamation
  /// and edge-cell recycling drain safely.
  void removeNodes(const std::vector<Transaction *> &Doomed);

  /// End-of-run sweep: claims any complete-but-unclaimed components. With
  /// every transaction retired through the normal path this finds nothing;
  /// it exists so shutdown is sound even if a future caller forgets a
  /// retire. Counted in icd.finalize_claims (expected 0).
  void finalize(ClaimList &Out);

  /// Adds the detector's counters to the run's registry (endRun).
  void flushStats(StatisticRegistry &Stats);

  /// Test hook: invoked (under the detector lock) on every reorder with
  /// the affected-region vertex count. The stripe-locality test asserts
  /// from inside the hook that the reordering thread holds at most the two
  /// stripes of the edge it is inserting.
  void setReorderHook(std::function<void(size_t)> Hook) {
    ReorderHook = std::move(Hook);
  }

private:
  // Mu-side helpers. The Icd* atomics they touch are only *written* under
  // Mu (order keys and group pointers additionally only in seqlock writer
  // mode), so relaxed accesses suffice here; the lock-free fast path has
  // its own acquire-snapshot-and-validate reads in addEdge.
  IcdGroup *groupOf(const Transaction *Tx) const {
    return Tx->IcdG.load(std::memory_order_relaxed);
  }
  Transaction *repOf(Transaction *Tx) const {
    IcdGroup *G = groupOf(Tx);
    return G && !G->Members.empty() ? G->Members.front() : Tx;
  }
  bool sameVertex(const Transaction *A, const Transaction *B) const {
    if (A == B)
      return true;
    IcdGroup *GA = groupOf(A);
    return GA != nullptr && GA == groupOf(B);
  }
  uint64_t ordOf(const Transaction *Tx) const {
    IcdGroup *G = groupOf(Tx);
    return G ? G->Ord.load(std::memory_order_relaxed)
             : Tx->IcdOrd.load(std::memory_order_relaxed);
  }
  uint64_t &stampOf(Transaction *Tx) {
    IcdGroup *G = groupOf(Tx);
    return G ? G->Epoch : Tx->IcdEpoch;
  }
  void setOrd(Transaction *Tx, uint64_t Ord) {
    if (IcdGroup *G = groupOf(Tx))
      G->Ord.store(Ord, std::memory_order_relaxed);
    else
      Tx->IcdOrd.store(Ord, std::memory_order_relaxed);
  }

  void claimGroup(IcdGroup *G, ClaimList &Out);
  void registerGroup(IcdGroup *G);
  void unregisterGroup(IcdGroup *G);
  /// Moves a dead group to the graveyard instead of deleting it inline: a
  /// fast-path reader may still hold the pointer from a snapshot that is
  /// about to fail validation. Drained in removeNodes (all stripes held ⇒
  /// no thread is inside a fast path) and in the destructor.
  void buryGroup(IcdGroup *G);
  /// Slow path for an inconsistent edge: two-way search, reorder, merge.
  /// Runs in seqlock writer mode (under Mu).
  void insertInconsistent(Transaction *Src, Transaction *Dst, ClaimList &Out);
  /// Absorbs the undirected closure of \p Seeds into oversized group \p G,
  /// reporting the newly absorbed transactions as one Oversized claim.
  /// Caller must be in seqlock writer mode.
  void absorbInto(IcdGroup *G, const std::vector<Transaction *> &Seeds,
                  ClaimList &Out);
  /// Mu slow path for inconsistent edges and fast-path fallbacks.
  /// \p Publish: the adjacency nodes are not in the chains yet and must be
  /// appended here (false when the fast path already published them and
  /// only the classification raced).
  void addEdgeSlow(Transaction *Src, Transaction *Dst, ClaimList &Out,
                   bool Publish);

  /// Pops a recycled adjacency cell or allocates one (threading it on the
  /// all-nodes ownership chain). Lock-free callers pop via tryLock only —
  /// a contended free list just allocates — so there is no concurrent-pop
  /// ABA window.
  IcdEdgeNode *allocNode();
  /// Publishes edge Src→Dst: one cell on Src's out-chain, one on Dst's
  /// in-chain, each with a release CAS. Safe without Mu.
  void publishEdge(Transaction *Src, Transaction *Dst);
  /// True if Src's out-chain head already records Src→Dst (the IDG append
  /// path emits consecutive duplicates when one transaction pair conflicts
  /// on several variables; collapsing them keeps chains short).
  static bool headIsDuplicate(Transaction *Src, Transaction *Dst) {
    IcdEdgeNode *H = Src->IcdOutHead.load(std::memory_order_acquire);
    return H != nullptr && H->Peer == Dst;
  }

  /// Takes Mu, charging any contention to the lock-wait counters: a failed
  /// tryLock means some other edge writer / the retire path holds the
  /// detector, and the blocked interval is exactly the serialization the
  /// scaling bench wants to see. Uncontended acquisitions stay one CAS.
  class TimedGuard {
  public:
    explicit TimedGuard(IncrementalCycleDetector &D) : D(D) { D.lockMu(); }
    ~TimedGuard() { D.Mu.unlock(); }
    TimedGuard(const TimedGuard &) = delete;
    TimedGuard &operator=(const TimedGuard &) = delete;

  private:
    IncrementalCycleDetector &D;
  };
  void lockMu();

  Options Opts;
  SpinLock Mu;
  /// Reorder seqlock: writer mode (under Mu) brackets every section that
  /// permutes order keys or group membership; addEdge's lock-free fast
  /// path validates its key/group snapshot and its publication against it.
  SeqLock Seq;
  /// Outside Mu: key assignment is a relaxed fetch-add so transaction
  /// creation (addNode) never touches the detector lock. Monotonicity is
  /// all addNode needs — a new node is maximal under any interleaving,
  /// because every existing key was drawn earlier and reorders only
  /// permute keys already drawn (all below any fresh one).
  std::atomic<uint64_t> NextOrd{1};
  uint64_t VisitClock = 0;
  std::vector<IcdGroup *> Groups;
  /// Groups unlinked by a merge/absorb but possibly still referenced by an
  /// in-flight fast-path snapshot; deleted in removeNodes / destructor.
  std::vector<IcdGroup *> Graveyard;
  /// Recycled adjacency cells. Fast paths pop via tryLock (fall back to
  /// new); removeNodes pushes under Mu.
  SpinLock FreeMu;
  IcdEdgeNode *FreeList = nullptr;
  /// Every cell ever allocated, for destructor reclamation (lock-free
  /// push-once via NextAll).
  std::atomic<IcdEdgeNode *> AllNodes{nullptr};
  std::function<void(size_t)> ReorderHook;

  // Counters (under Mu except the atomics), flushed at endRun.
  std::atomic<uint64_t> ChainEdges{0}; ///< Lock-free program-order links.
  std::atomic<uint64_t> LfFast{0};     ///< Cross edges completed lock-free.
  std::atomic<uint64_t> SeqRetries{0}; ///< Fast-path seqlock validation
                                       ///< failures (forced retries incl.).
  std::atomic<uint64_t> EdgesObserved{0}; ///< addEdge calls (either path).
  /// Contended acquisitions of Mu and the nanoseconds spent blocked in
  /// them. Charged *after* the lock is held, ns before count, and drained
  /// count-then-ns, so a racing flush can never see waits whose
  /// nanoseconds have not landed yet (the pair may be momentarily over- on
  /// ns, never under-). With the consistent fast path lock-free these are
  /// reorder-only: on a cycle-free workload they stay 0.
  std::atomic<uint64_t> LockWaits{0};
  std::atomic<uint64_t> LockWaitNs{0};
  uint64_t NumFastEdges = 0;   ///< Consistent edges resolved under Mu
                               ///< (slow-path fallback).
  uint64_t NumReorders = 0;    ///< Inconsistent edges that ran the search.
  uint64_t ReorderVisited = 0; ///< Total affected-region vertices.
  uint64_t RegionMax = 0;      ///< Largest single affected region.
  uint64_t NumCycles = 0;      ///< Components confirmed incrementally.
  uint64_t CapDegrades = 0;    ///< Oversized absorption batches.
  uint64_t FinalizeClaims = 0; ///< Leftovers claimed at finalize (want 0).
};

} // namespace analysis
} // namespace dc

#endif // DC_ANALYSIS_INCREMENTALCYCLES_H
