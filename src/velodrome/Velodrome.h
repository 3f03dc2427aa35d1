//===- velodrome/Velodrome.h - Velodrome baseline checker -------*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Our implementation of Velodrome (Flanagan, Freund, Yi, PLDI 2008), the
/// sound-and-precise baseline the paper compares against. At every
/// instrumented access it maintains, per field: the last transaction to
/// write and the last transaction per thread to read since that write. The
/// analysis and the program access execute together inside a small critical
/// section that locks the field's metadata (analysis-access atomicity, §2) —
/// this per-access synchronization is the dominant cost the paper measures.
/// Cross-thread dependence edges go into a transaction graph; a cycle check
/// runs after every cross-thread edge; each cycle is a violation with blame
/// assignment.
///
/// The *unsound* variant (§5.3) checks "does the metadata even need to
/// change?" before acquiring the field lock and skips the critical section
/// when it appears not to — racy reads that can miss dependences under
/// concurrent accesses.
///
/// Transactions are reclaimed by a mark-sweep collector; field metadata
/// references are treated as roots (a bounded-by-#fields strengthening of
/// the paper's weak references — see DESIGN.md §2).
///
//===----------------------------------------------------------------------===//

#ifndef DC_VELODROME_VELODROME_H
#define DC_VELODROME_VELODROME_H

#include <memory>
#include <vector>

#include "analysis/Transaction.h"
#include "analysis/Violation.h"
#include "rt/CheckerRuntime.h"
#include "rt/Runtime.h"
#include "support/SpinLock.h"
#include "support/Statistic.h"

namespace dc {
namespace velodrome {

struct VelodromeOptions {
  /// Unsound variant: skip the metadata lock when a racy pre-check says the
  /// metadata would not change.
  bool UnsoundMetadataFastPath = false;
  /// Disable cycle detection (used by the array-instrumentation ablation,
  /// where conflated array metadata would make reports meaningless).
  bool DetectCycles = true;
  /// Collector trigger, in finished transactions.
  uint32_t CollectEveryTx = 8192;
};

/// Velodrome attached to one execution.
class VelodromeRuntime final : public rt::CheckerRuntime {
public:
  VelodromeRuntime(const ir::Program &P, VelodromeOptions Opts,
                   analysis::ViolationLog &Violations,
                   StatisticRegistry &Stats);
  ~VelodromeRuntime() override;

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

private:
  using Transaction = analysis::Transaction;

  struct alignas(64) PerThread {
    std::atomic<Transaction *> CurrTx{nullptr};
    uint64_t NextSeq = 0;
    uint64_t Accesses = 0;
    uint64_t FastSkips = 0;
    std::vector<Transaction *> Owned;
    SpinLock OwnedLock;
  };

  /// Per-field metadata ("two words per field", §4 of the paper).
  struct FieldMeta {
    std::atomic<Transaction *> LastWrite{nullptr};
    /// Last reader per thread since the last write. Guarded by the field
    /// lock; searched linearly (reader sets are small).
    std::vector<std::pair<uint32_t, Transaction *>> Readers;
  };

  Transaction *newTransactionLocked(uint32_t Tid, ir::MethodId Site,
                                    bool Regular);
  void endCurrentTxLocked(uint32_t Tid);
  Transaction *currentForAccess(rt::ThreadContext &TC);
  /// Adds edge Src->Dst (if distinct threads' transactions) and checks for
  /// a cycle. Caller holds GraphLock.
  void addEdgeLocked(Transaction *Src, Transaction *Dst);
  void checkCycleLocked(Transaction *Src, Transaction *Dst);
  void collectLocked();

  const ir::Program &P;
  VelodromeOptions Opts;
  analysis::ViolationLog &Violations;
  StatisticRegistry &Stats;

  std::unique_ptr<PerThread[]> Threads;
  uint32_t NumThreads = 0;

  std::vector<SpinLock> FieldLocks;
  std::vector<FieldMeta> Fields;

  /// Guards the transaction graph, lifecycle, cycle checks, collection.
  /// Lock order: field lock, then GraphLock.
  SpinLock GraphLock;
  uint64_t NextTxId = 0;
  uint64_t NextEdgeId = 0;
  uint64_t CrossEdges = 0;
  uint64_t CycleChecks = 0;
  uint64_t Cycles = 0;
  uint64_t FinishedTxs = 0;
  uint64_t DfsEpoch = 0;
  uint64_t MarkEpoch = 0;
  uint64_t CollectorRuns = 0;
  uint64_t CollectorNs = 0;
  uint64_t TxsSwept = 0;
};

} // namespace velodrome
} // namespace dc

#endif // DC_VELODROME_VELODROME_H
