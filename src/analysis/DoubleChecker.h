//===- analysis/DoubleChecker.h - ICD(+PCD) checker runtime -----*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DoubleCheckerRuntime is the paper's analysis attached to one execution:
///
///  * It owns an OctetManager and implements OctetListener: every Octet
///    transition becomes an imprecise-dependence-graph edge per Figure 4
///    (conflicting -> edge from the responder's current transaction;
///    upgrading to RdSh -> edges from the old owner's lastRdEx and from
///    gLastRdSh; fence -> edge from gLastRdSh).
///  * It demarcates regular transactions at txBegin/txEnd and merges
///    non-transactional accesses into unary transactions until a
///    cross-thread edge interrupts them.
///  * When the last member of a cycle ends, the incremental detector claims
///    the maximal SCC containing it over *finished* transactions (§3.2.3);
///    members' static sites feed multi-run mode's StaticTransactionInfo,
///    and — when logging is on — the SCC goes to PCD for precise checking.
///  * A mark-sweep collector reclaims transactions unreachable from the
///    current transactions that can still gain an in-edge, standing in for
///    the JVM garbage collector the paper relies on (see DESIGN.md §2 for
///    the liveness argument). The other current transactions — finished,
///    or sealed: a blocked thread's interrupted unary transaction — and
///    each thread's lastRdEx and gLastRdSh are weak roots, kept but not
///    traced; a current transaction on a detected cycle stays traced
///    until its component is claimed (DESIGN.md §7, "Collector").
///
/// Concurrency (see DESIGN.md §7 for the full argument): the IDG is
/// sharded — one lock stripe per thread plus one global stripe — so the
/// per-thread transaction lifecycle only touches its own stripe, cross
/// edges take the two involved threads' stripes, and only collection
/// quiesces the whole graph. Cycle detection is incremental
/// (IncrementalCycles.h): each edge insert answers "cycle?" under the
/// stripes its writer already holds. Collection runs inline on the thread
/// that finishes the triggering transaction, and PCD replays each SCC
/// inline on the thread that claims it.
///
/// Configure with LogAccesses=false, RunPcd=false for the first run of
/// multi-run mode ("ICD w/o logging"); defaults give single-run mode.
///
//===----------------------------------------------------------------------===//

#ifndef DC_ANALYSIS_DOUBLECHECKER_H
#define DC_ANALYSIS_DOUBLECHECKER_H

#include <functional>
#include <memory>
#include <mutex>
#include <set>

#include "analysis/IncrementalCycles.h"
#include "analysis/OnlinePcd.h"
#include "analysis/Pcd.h"
#include "analysis/StaticInfo.h"
#include "analysis/Transaction.h"
#include "analysis/Violation.h"
#include "octet/OctetManager.h"
#include "rt/CheckerRuntime.h"
#include "rt/Runtime.h"
#include "rt/Watchdog.h"
#include "support/FaultPlan.h"
#include "support/ResourceGovernor.h"
#include "support/SpinLock.h"
#include "support/Statistic.h"
#include "support/StripedLock.h"

namespace dc {

class TraceRecorder;

namespace analysis {

/// Knobs selecting between single-run mode and the runs of multi-run mode.
struct DoubleCheckerOptions {
  /// Record read/write logs (required for PCD). Single-run and the second
  /// run of multi-run mode: true. First run: false.
  bool LogAccesses = true;
  /// Run PCD on each ICD SCC. First run: false.
  bool RunPcd = true;
  /// Disable ICD SCC detection entirely (§5.4 array-instrumentation
  /// ablation, where conflated metadata makes cycles meaningless).
  bool DetectIcdCycles = true;
  /// Incremental detector's affected-region cap: an inconsistent edge
  /// whose two-way search would visit more vertices than this stops
  /// reordering and degrades the region soundly — it collapses into one
  /// poisoned group whose members are reported as Potential violations
  /// (Pcd::reportPotential) instead of being replayed. The default is
  /// unreachable for any governed live graph; tests shrink it.
  uint32_t IcdMaxRegion = 1u << 20;
  /// Test/fault knob: force each ICD fast-path attempt to fail seqlock
  /// validation this many times (0 = off), deterministically exercising
  /// the retry counter and — past the retry cap — the detector-lock
  /// fallback (DESIGN.md §12).
  uint32_t IcdSeqRetryStorm = 0;
  /// §5.4 straw man: feed *every* transaction to a persistent precise
  /// analysis instead of filtering through ICD SCCs. Implies LogAccesses;
  /// the transaction collector is disabled (the persistent maps pin
  /// transactions), reproducing the variant's memory blow-up.
  bool PcdOnly = false;
  /// Trigger the transaction collector every this many finished
  /// transactions.
  uint32_t CollectEveryTx = 8192;
  /// Passed through to PCD.
  uint32_t MaxSccTxsForPcd = 1u << 20;
  /// Log duplicate elision (paper §4). On by default; off is a
  /// differential-testing mode that logs every access.
  bool ElideDuplicates = true;
  /// Test-only fault injection (never set by real configurations):
  /// deliberately break the ICD filter's soundness by dropping two-member
  /// SCCs before they reach PCD or the multi-run static info. The schedule
  /// fuzzer (tools/dcfuzz.cpp) must catch the resulting missed violations
  /// as divergences from Velodrome and the trace oracle, and minimize them
  /// to a small replayable witness — the standing proof that the harness
  /// would notice a real unsound filter.
  bool TestOnlyUnsoundFilter = false;

  // --- Overload / fault tolerance (DESIGN.md §10) -------------------------

  /// Deterministic counter-keyed fault injection (tests / fuzzing only).
  FaultPlan Faults;
  /// ResourceGovernor budget: live (uncollected) transactions. 0 = off.
  /// A breach triggers extra inline collections and sheds logging at the
  /// next chunk refill (sound: shed threads degrade to ICD-only).
  uint64_t MaxLiveTxs = 0;
  /// ResourceGovernor budget: bytes of log chunks out of the pool. 0 = off.
  uint64_t MaxLogBytes = 0;
  /// Watchdog/stall timeout: a busy component (window flush, scheduler
  /// gate) silent for longer trips a CheckerFault.
  uint32_t StallTimeoutMs = 10000;
  /// Watchdog poll interval.
  uint32_t WatchdogPollMs = 10;
  /// After shedding, a thread attempts to re-arm full logging once this
  /// many of its transactions have started and the governor reports
  /// pressure subsided (hysteresis at half-budget).
  uint32_t RearmAfterTxs = 64;

  // --- Streaming service mode (DESIGN.md §15) -----------------------------

  /// Retirement-window size: every this many finished transactions, the
  /// thread that crossed the boundary runs one window flush — a
  /// synchronous collection — so everything decidable as of the boundary
  /// is decided and swept.
  /// Transactions the flush cannot retire (still running, strongly
  /// reachable, or pinned by an in-flight replay) are carried — "pinned" —
  /// into the next window; nothing is dropped. 0 disables windowing (plain
  /// batch mode).
  uint32_t WindowTxs = 0;
  /// Chrome-trace timeline recorder (tools/dcheck --trace-out). Null
  /// disables all trace hooks. Must outlive the runtime.
  TraceRecorder *Trace = nullptr;
  /// Streaming observer called after each window flush with the
  /// post-flush health snapshot (no checker locks held).
  std::function<void(const rt::HealthSnapshot &)> WindowHook;
  /// Streaming observer for the first structured checker fault.
  std::function<void(rt::CheckerFault, const std::string &)> FaultHook;
};

/// The DoubleChecker analysis for one run. Implements the interpreter's
/// checker hooks and Octet's transition listener.
class DoubleCheckerRuntime : public rt::CheckerRuntime,
                                   public octet::OctetListener {
public:
  /// \p P must be the compiled program the runtime executes (used to map
  /// compiled methods back to original sites). \p Violations and \p Stats
  /// must outlive the runtime.
  DoubleCheckerRuntime(const ir::Program &P, DoubleCheckerOptions Opts,
                       ViolationLog &Violations, StatisticRegistry &Stats);
  ~DoubleCheckerRuntime() override;

  // -- rt::CheckerRuntime --------------------------------------------------
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
  void safePoint(rt::ThreadContext &TC) override;
  void aboutToBlock(rt::ThreadContext &TC) override;
  void unblocked(rt::ThreadContext &TC) override;
  void reportHealth(rt::RunResult &R) override;
  void healthSnapshot(rt::HealthSnapshot &H) override;
  bool windowFlush() override;

  // -- octet::OctetListener -------------------------------------------------
  void onConflictingEdge(uint32_t RespTid, const octet::Transition &T)
      override;
  void onBecameRdEx(uint32_t Tid) override;
  void onUpgradeToRdSh(uint32_t Tid, uint32_t OldOwner,
                       uint64_t Counter) override;
  void onFence(uint32_t Tid) override;

  /// Static transaction information accumulated from ICD SCCs (multi-run
  /// mode's first-run output). Valid after endRun.
  StaticTransactionInfo staticInfo();

  /// The underlying Octet manager; valid between beginRun and destruction.
  octet::OctetManager *octetManager() { return Octet.get(); }

  /// The incremental cycle detector, or null in PcdOnly /
  /// DetectIcdCycles=false modes. Test-only: the stripe-locality stress
  /// test installs its reorder hook here.
  IncrementalCycleDetector *icdDetector() { return Icd.get(); }
  /// Test-only: how many IDG stripes the calling thread holds right now
  /// (exact for self-queries; see StripedLockSet::heldBy). The locality
  /// test asserts from inside a reorder that this never reaches
  /// stripeCount().
  uint32_t stripesHeldByCurrentThread() const;
  uint32_t stripeCount() const { return NumShards; }

private:
  struct alignas(64) PerThread {
    std::atomic<Transaction *> CurrTx{nullptr}; ///< Written under own stripe.
    /// Log-elision timestamp (paper §4): bumped on transaction start and on
    /// any edge touching the thread's current transaction.
    std::atomic<uint64_t> CurTs{1};
    Transaction *LastRdEx = nullptr; ///< Own stripe.
    /// Between aboutToBlock and unblocked (own stripe). The collector seals
    /// an interrupted unary CurrTx only while this is set; see
    /// Transaction::Sealed.
    bool Blocked = false;
    uint64_t NextSeq = 0;            ///< Own thread only (tx lifecycle).
    uint64_t NextEdgeSeq = 0;        ///< Own stripe (edge ids, src side).
    // Per-thread statistics, flushed at endRun.
    uint64_t RegularTxs = 0;
    uint64_t UnaryTxs = 0;
    uint64_t AccRegular = 0;
    uint64_t AccUnary = 0;
    uint64_t LogEntries = 0;
    uint64_t LogElided = 0;
    uint64_t BytesLogged = 0;
    uint64_t LogDropped = 0; ///< Accesses not logged while shedding.
    /// Degradation ladder (owner thread only): true while this thread has
    /// shed logging (ICD-only). Entered when a chunk refill is refused;
    /// re-armed after RearmAfterTxs new transactions if pressure subsided.
    bool LogShedActive = false;
    uint32_t RearmCountdown = 0;
    uint64_t ShedCount = 0;
    /// Gate-heartbeat throttle (owner thread only).
    uint32_t SafePointBeats = 0;
    /// Transactions allocated by this thread; pushed under own stripe,
    /// swept by the collector under all stripes.
    std::vector<Transaction *> Owned;
    /// Thread-local duplicate-access filter (default logging path); epochs
    /// are CurTs values, so the existing bumps invalidate it for free.
    ElisionFilter Filter;
    /// Chunk source for this thread's appends, refilled from ChunkPool.
    LogChunkCache ChunkCache;
  };

  // -- IDG stripes ---------------------------------------------------------
  // Stripe 0 guards gLastRdSh; stripe Tid+1 guards thread Tid's IDG state
  // (CurrTx identity, lastRdEx, Owned, and the Out lists of its
  // transactions). Lock order: ascending stripe index; SccStateLock /
  // PcdOnlyLock are innermost and never held while acquiring a stripe.
  static uint32_t shardOf(uint32_t Tid) { return Tid + 1; }
  void lockShard(uint32_t S, uint32_t Holder) { IdgShards->lock(S, Holder); }
  void unlockShard(uint32_t S) { IdgShards->unlock(S); }
  /// Acquires the N stripes in Shards (caller-sorted ascending).
  void lockShards(const uint32_t *Shards, unsigned N, uint32_t Holder);
  void lockAllShards(uint32_t Holder);
  void unlockAllShards();

  /// Requires shard(Tid). Installs and returns Tid's next transaction.
  Transaction *newTransactionLocked(uint32_t Tid, ir::MethodId Site,
                                    bool Regular);
  /// Finishes Tid's current transaction, then runs the out-of-line
  /// follow-ups (PCD-only feed, cycle claims, window flush or collection).
  /// Caller must hold no stripe. CurrTx intentionally keeps pointing at
  /// the finished transaction until the next newTransactionLocked.
  void endCurrentTx(uint32_t Tid);
  /// Flips Tid's Blocked flag under its own stripe (see PerThread).
  void setBlocked(uint32_t Tid, bool Blocked);
  /// Requires shard(Src->Tid) and shard(Dst->Tid). \p Phys is the physical
  /// thread executing the call (its chunk cache feeds the EdgeIn append).
  void addCrossEdgeLocked(Transaction *Src, Transaction *Dst, uint32_t Phys);
  /// Executes component claims the incremental detector produced: site
  /// accumulation, the injected unsound filter, the degradation checks,
  /// the inline PCD replay, unpinning.
  /// Precise claims only arise on the retire()/finalize paths (no stripes
  /// held — the replay may take a while); Oversized
  /// claims also arise under ≤ 2 stripes from edge insertion, where they
  /// touch only innermost locks.
  void executeIcdClaims(IncrementalCycleDetector::ClaimList &Claims);
  /// One mark-sweep pass; takes all stripes, frees outside them.
  void collectNow(uint32_t Holder);
  /// True when the live-tx budget is breached and enough transactions
  /// finished since the last pass (\p Finished counts them) for another
  /// pass to be worth its mark (see definition).
  bool liveBudgetDue(uint64_t Finished) const;
  /// Returns the transaction the next access belongs to, replacing an
  /// interrupted unary transaction if needed. \p PT must be TC's block
  /// (hoisted by the caller so the hot path resolves it once).
  Transaction *currentForAccess(rt::ThreadContext &TC, PerThread &PT);
  void logAccess(rt::ThreadContext &TC, PerThread &PT, Transaction *Cur,
                 const rt::AccessInfo &Info);

  // -- Overload / fault tolerance (DESIGN.md §10) --------------------------
  /// Records the first checker-internal fault (later ones only count).
  void recordFault(rt::CheckerFault F, std::string Diagnosis);
  /// Appends one ladder transition to the structured report.
  void recordDegradation(rt::DegradationEvent E);
  /// Enters shed mode for \p PT's thread: the current transaction's log is
  /// marked incomplete, further accesses are dropped (ICD-only), and a
  /// ShedLogging event is recorded with a deterministic OrderClock stamp.
  void beginShed(PerThread &PT, uint32_t Tid, Transaction *Cur);
  /// Degrades one detected SCC to a Potential violation record instead of
  /// a precise replay (members need not be pinned). \p Stamp is the SCC's
  /// max member EndTime — deterministic across configs.
  void degradeScc(const std::vector<Transaction *> &Members, uint64_t Stamp);
  /// Watchdog handler (monitor thread): map component -> CheckerFault.
  void onComponentStall(const std::string &Component, uint64_t SilentMs);

  // -- Streaming service mode (DESIGN.md §15) ------------------------------
  /// One retirement-window flush: force everything decidable as of the
  /// boundary to a decision (PCD drain), then collect synchronously so
  /// quiesced transactions retire. Returns false when any stage degraded
  /// (stall-timeout steal, shed member) — the window still completed, but
  /// some verdicts moved down the ladder to Potential. Serialized by
  /// WindowMu; caller must hold no stripes.
  bool windowFlushNow(uint32_t Holder);
  /// Fills a point-in-time health snapshot from atomics + the stats
  /// registry's stable-snapshot API. Safe mid-run from any thread.
  void fillHealth(rt::HealthSnapshot &H);

  const ir::Program &P;
  DoubleCheckerOptions Opts;
  ViolationLog &Violations;
  StatisticRegistry &Stats;

  std::unique_ptr<octet::OctetManager> Octet;
  std::unique_ptr<PreciseCycleDetector> Pcd;
  /// Incremental online cycle detection; null in PcdOnly /
  /// DetectIcdCycles=false modes.
  std::unique_ptr<IncrementalCycleDetector> Icd;
  /// Gate and window-flush stall monitor; null when the run is unwatched.
  std::unique_ptr<rt::Watchdog> Dog;
  std::unique_ptr<OnlinePcd> PcdOnlyAnalysis;
  /// Global free list backing every thread's chunk cache; the collector
  /// splices swept transactions' chunks back into it. Declared before
  /// Threads so it outlives the caches that recycle into it on teardown.
  LogChunkPool ChunkPool;
  std::unique_ptr<PerThread[]> Threads;
  uint32_t NumThreads = 0;
  uint32_t NumShards = 0;
  std::unique_ptr<StripedLockSet> IdgShards;

  Transaction *GLastRdSh = nullptr; ///< Stripe 0.
  /// Global order clock: ticks at transaction ends and edge creations;
  /// stamps transaction EndTime and EdgeIn markers for PCD's replay-
  /// ordering constraints. A relaxed fetch_add preserves the invariant
  /// PCD needs (DESIGN.md §7): atomic RMWs on one object have a single
  /// modification order consistent with happens-before, so along every
  /// happens-before path stamps are strictly increasing.
  std::atomic<uint64_t> OrderClock{0};
  std::atomic<uint64_t> CrossEdges{0};
  std::atomic<uint64_t> FinishedTxs{0};
  std::atomic<uint64_t> SccCount{0};
  std::atomic<uint64_t> CollectorRuns{0};
  std::atomic<uint64_t> CollectorNs{0};
  std::atomic<uint64_t> TxsSwept{0};
  std::atomic<uint64_t> TxsSealed{0};
  /// Largest live set (kept transactions) any collection observed.
  std::atomic<uint64_t> CollectorLiveMax{0};
  /// FinishedTxs plus the kept count as of the last collection: the
  /// earliest finish count at which a budget breach collects again
  /// (written under all stripes; read racily by liveBudgetDue).
  std::atomic<uint64_t> BudgetCollectAt{0};
  uint64_t MarkEpochCounter = 0; ///< All stripes (collector mark epoch).

  /// Guards SccSites/SccAnyUnary (innermost; also used by staticInfo).
  mutable SpinLock SccStateLock;
  std::set<ir::MethodId> SccSites;
  bool SccAnyUnary = false;
  /// Serializes the PCD-only straw man's persistent analysis (innermost).
  SpinLock PcdOnlyLock;

  // -- Overload / fault tolerance (DESIGN.md §10) --------------------------
  /// Unified resource accounting (live txs, log bytes).
  ResourceGovernor Governor;
  /// The runtime of the current run (gate-stall aborts); beginRun..endRun.
  rt::Runtime *TheRT = nullptr;
  /// Watchdog slot ids (valid while Dog is set).
  uint32_t DogGateSlot = 0;
  uint32_t DogWindowSlot = 0;
  /// Serializes window flushes against each other (two threads can cross
  /// consecutive boundaries while the first flush is still draining).
  /// Ordered outermost: acquired before any stripe or checker lock.
  std::mutex WindowMu;
  /// Windows whose flush degraded work instead of fully quiescing.
  std::atomic<uint64_t> WindowDegraded{0};
  /// Flush counter keying FaultPlan::WindowStallAt.
  std::atomic<uint64_t> WindowFlushCounter{0};
  /// Guards the health report below (innermost; never held while taking
  /// any other checker lock).
  mutable SpinLock HealthLock;
  rt::CheckerFault Fault = rt::CheckerFault::None;
  std::string FaultDiagnosis;
  std::vector<rt::DegradationEvent> DegEvents;
};

} // namespace analysis
} // namespace dc

#endif // DC_ANALYSIS_DOUBLECHECKER_H
