//===- support/ResourceGovernor.h - Unified resource accounting -*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One accounting point for the two resources the checker can exhaust
/// under load: live (uncollected) transactions and bytes held by the
/// log-chunk arena. Producers update gauges with relaxed atomics; the
/// degradation ladder (DESIGN.md §10) polls overBudget() at coarse points
/// — chunk refills and transaction boundaries, never the per-access hot
/// path — and sheds work soundly when a budget is breached.
///
/// Budgets of 0 mean unlimited (the default): a run with no budgets pays
/// only the gauge updates, which happen at most once per transaction and
/// per 8-chunk refill batch.
///
/// Hysteresis: pressure "subsides" only once every breached gauge is back
/// under half its budget (underLowWater), so the ladder does not flap
/// between shedding and re-arming at the budget boundary.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SUPPORT_RESOURCEGOVERNOR_H
#define DC_SUPPORT_RESOURCEGOVERNOR_H

#include <atomic>
#include <cstdint>

#include "support/Statistic.h"

namespace dc {

/// Configurable ceilings; 0 = unlimited.
struct ResourceBudgets {
  uint64_t MaxLiveTxs = 0;  ///< Live (allocated, uncollected) transactions.
  uint64_t MaxLogBytes = 0; ///< Bytes of log chunks out of the pool.

  bool any() const { return MaxLiveTxs != 0 || MaxLogBytes != 0; }
};

/// Pressure sources, as a bitmask (pressure() return value).
enum : uint8_t {
  PressureLiveTxs = 1,
  PressureLogBytes = 2,
};

/// Thread-safe gauge set with budgets and high-water marks.
class ResourceGovernor {
public:
  void configure(const ResourceBudgets &Budgets) { B = Budgets; }
  const ResourceBudgets &budgets() const { return B; }

  void txCreated() {
    bumpMax(LiveTxsMax, LiveTxs.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  void txsFreed(uint64_t N) {
    LiveTxs.fetch_sub(static_cast<int64_t>(N), std::memory_order_relaxed);
  }

  /// \p Delta in bytes; positive when chunks leave the pool's free list,
  /// negative when the collector splices them back.
  void logBytes(int64_t Delta) {
    int64_t Now = LogBytesHeld.fetch_add(Delta, std::memory_order_relaxed) +
                  Delta;
    if (Delta > 0)
      bumpMax(LogBytesMax, static_cast<uint64_t>(Now < 0 ? 0 : Now));
  }

  uint64_t liveTxs() const {
    int64_t V = LiveTxs.load(std::memory_order_relaxed);
    return V < 0 ? 0 : static_cast<uint64_t>(V);
  }
  uint64_t logBytesHeld() const {
    int64_t V = LogBytesHeld.load(std::memory_order_relaxed);
    return V < 0 ? 0 : static_cast<uint64_t>(V);
  }

  /// Bitmask of breached budgets (0 = within budget).
  uint8_t pressure() const {
    uint8_t P = 0;
    if (B.MaxLiveTxs != 0 && liveTxs() > B.MaxLiveTxs)
      P |= PressureLiveTxs;
    if (B.MaxLogBytes != 0 && logBytesHeld() > B.MaxLogBytes)
      P |= PressureLogBytes;
    return P;
  }
  bool overBudget() const { return pressure() != 0; }

  /// True once every budgeted gauge is under half its budget — the
  /// hysteresis condition for re-arming shed logging.
  bool underLowWater() const {
    if (B.MaxLiveTxs != 0 && liveTxs() > B.MaxLiveTxs / 2)
      return false;
    if (B.MaxLogBytes != 0 && logBytesHeld() > B.MaxLogBytes / 2)
      return false;
    return true;
  }

  void countBreach() { Breaches.fetch_add(1, std::memory_order_relaxed); }

  /// Streaming service mode: records one retirement-window flush and how
  /// many live transactions survived it (cross-window state the collector
  /// had to pin into the next window rather than retire). The pinned peak
  /// is the number bounded-memory soaks watch: if it grows monotonically,
  /// retirement is not keeping up with admission.
  void windowFlushed(uint64_t PinnedLiveTxs) {
    WindowsFlushed.fetch_add(1, std::memory_order_relaxed);
    WindowPinnedLast.store(PinnedLiveTxs, std::memory_order_relaxed);
    bumpMax(WindowPinnedMax, PinnedLiveTxs);
  }
  uint64_t windowsFlushed() const {
    return WindowsFlushed.load(std::memory_order_relaxed);
  }
  uint64_t windowPinnedLast() const {
    return WindowPinnedLast.load(std::memory_order_relaxed);
  }

  /// Exports the gauges/high-water marks as governor.* statistics.
  void flush(StatisticRegistry &Stats) const {
    Stats.get("governor.live_txs_peak")
        .updateMax(LiveTxsMax.load(std::memory_order_relaxed));
    Stats.get("governor.log_bytes_peak")
        .updateMax(LogBytesMax.load(std::memory_order_relaxed));
    Stats.get("governor.budget_breaches")
        .add(Breaches.load(std::memory_order_relaxed));
    if (WindowsFlushed.load(std::memory_order_relaxed) != 0) {
      Stats.get("governor.windows_flushed")
          .add(WindowsFlushed.load(std::memory_order_relaxed));
      Stats.get("governor.window_pinned_peak")
          .updateMax(WindowPinnedMax.load(std::memory_order_relaxed));
    }
  }

private:
  static void bumpMax(std::atomic<uint64_t> &Max, uint64_t V) {
    uint64_t Prev = Max.load(std::memory_order_relaxed);
    while (V > Prev &&
           !Max.compare_exchange_weak(Prev, V, std::memory_order_relaxed))
      ;
  }

  ResourceBudgets B;
  std::atomic<int64_t> LiveTxs{0};
  std::atomic<int64_t> LogBytesHeld{0};
  std::atomic<uint64_t> LiveTxsMax{0};
  std::atomic<uint64_t> LogBytesMax{0};
  std::atomic<uint64_t> Breaches{0};
  std::atomic<uint64_t> WindowsFlushed{0};
  std::atomic<uint64_t> WindowPinnedLast{0};
  std::atomic<uint64_t> WindowPinnedMax{0};
};

} // namespace dc

#endif // DC_SUPPORT_RESOURCEGOVERNOR_H
