//===- analysis/Pcd.h - Precise cycle detection (replay) --------*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PCD consumes one ICD SCC at a time: the member transactions, their
/// read/write logs, and the cross-thread edges (with log positions). It
/// replays the logs in an order consistent with the actual execution —
/// same-thread members in sequence order; a member's EdgeIn marker is
/// passable once the edge's source cursor passed the sampled source
/// position — while maintaining Velodrome-style last-writer / per-thread
/// last-reader maps per *field* (Figure 5). Every resulting cross-thread
/// dependence becomes a precise dependence graph (PDG) edge; each PDG cycle
/// is an atomicity violation, reported with blame assignment.
///
/// Replay is sufficient for precision because any pair of conflicting
/// accesses from different threads is separated by at least one Octet state
/// transition, and every transition produced an IDG edge ordering the two
/// log positions (see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef DC_ANALYSIS_PCD_H
#define DC_ANALYSIS_PCD_H

#include <cstdint>
#include <vector>

#include "analysis/Transaction.h"
#include "analysis/Violation.h"
#include "support/Statistic.h"

namespace dc {
namespace analysis {

/// Replays ICD SCCs and reports precise atomicity violations.
class PreciseCycleDetector {
public:
  struct Options {
    /// SCCs larger than this are not replayed (the paper's PCD ran out of
    /// memory on such transactions). They are *degraded*, not dropped:
    /// counted in pcd.sccs_skipped and reported as potential violations
    /// via reportPotential, so soundness survives the cap.
    uint32_t MaxSccTxs = 1u << 20;
  };

  PreciseCycleDetector(ViolationLog &Sink, StatisticRegistry &Stats)
      : Sink(Sink), Stats(Stats) {}
  PreciseCycleDetector(ViolationLog &Sink, StatisticRegistry &Stats,
                       Options Opts)
      : Sink(Sink), Stats(Stats), Opts(Opts) {}

  /// Processes one SCC. \p Members must all be finished; their logs must
  /// be stable for the duration of the call (guaranteed once Finished is
  /// set — finished logs are immutable — plus a pin against collection).
  ///
  /// Thread-safe for concurrent calls on distinct SCCs: the detector keeps
  /// no state across calls, the replay only reads members' immutable
  /// state, and both sinks (ViolationLog, StatisticRegistry counters) are
  /// internally synchronized. Program threads that claim SCCs at the same
  /// time replay them inline concurrently and rely on this; SCCs
  /// from overlapping detections may even share members, which is still
  /// safe because the replay never writes to a Transaction.
  void processScc(const std::vector<Transaction *> &Members);

  /// Reports \p Members' static sites as one Potential ViolationRecord
  /// (multi-run run 1 semantics) — the sound fallback when an SCC cannot
  /// be replayed precisely: oversized, incomplete logs after shedding, or
  /// absorbed into an oversized incremental region. Thread-safe like
  /// processScc.
  void reportPotential(const std::vector<Transaction *> &Members);

private:
  ViolationLog &Sink;
  StatisticRegistry &Stats;
  Options Opts;
};

} // namespace analysis
} // namespace dc

#endif // DC_ANALYSIS_PCD_H
