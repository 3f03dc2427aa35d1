//===- support/FaultPlan.h - Deterministic fault injection ------*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A counter-keyed plan of checker-internal faults to inject during one run.
/// Every trigger is keyed to a deterministic event counter — "the Nth chunk
/// refill request", "the Nth retirement-window flush" — rather than to
/// wall-clock time, so the same (program, schedule, plan) triple injects the
/// same faults at the same points on every replay. That bit-exactness is
/// what lets the schedule fuzzer sweep fault plans as one more config axis
/// (tools/FuzzLib) and lets dcfuzz witnesses carry a '# fault-plan:' line
/// that reproduces the degraded run.
///
/// The injected faults mirror the overload failure modes DESIGN.md §10
/// catalogues: allocation failure in the log-chunk arena, a delayed
/// collector, and a wedged retirement-window flush. The checker must
/// degrade *soundly* under every one of them: the reported violation set
/// (precise + potential) stays a superset of the true violations, and the
/// run terminates with a structured RunResult.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SUPPORT_FAULTPLAN_H
#define DC_SUPPORT_FAULTPLAN_H

#include <cstdint>
#include <string>

namespace dc {

/// A deterministic, counter-keyed fault-injection plan. All fields are
/// 1-based trigger counts; 0 disables the fault. Default-constructed plans
/// inject nothing (the production configuration).
struct FaultPlan {
  /// The Nth chunk refill request against the LogChunkPool fails as if
  /// allocation returned null. The requesting thread sheds logging (sound
  /// ICD-only degradation) instead of crashing or silently dropping the
  /// entry.
  uint64_t AllocFailAt = 0;
  /// Every collector pass sleeps this long (without heartbeating) before
  /// collecting; above the watchdog timeout this trips
  /// CheckerFault::CollectorStall.
  uint32_t CollectorDelayMs = 0;
  /// The Nth retirement-window flush (streaming service mode) wedges: the
  /// flushing thread sleeps past the stall timeout without heartbeating its
  /// window slot, so the watchdog converts the stuck boundary into
  /// CheckerFault::WindowFlushStall instead of the server hanging silently.
  uint64_t WindowStallAt = 0;

  /// True iff any fault is armed.
  bool any() const {
    return AllocFailAt != 0 || CollectorDelayMs != 0 || WindowStallAt != 0;
  }

  bool operator==(const FaultPlan &O) const {
    return AllocFailAt == O.AllocFailAt &&
           CollectorDelayMs == O.CollectorDelayMs &&
           WindowStallAt == O.WindowStallAt;
  }

  /// Canonical spec string: comma-separated `key@count` tokens in a fixed
  /// order, or "none" for the empty plan. Round-trips through parse().
  std::string spec() const;

  /// Parses a spec string: "none" / "" → empty plan; otherwise tokens
  ///   alloc-fail@N, collect-delay-ms@N, window-stall@N
  /// separated by commas. Returns false with \p Error set on bad input.
  static bool parse(const std::string &Spec, FaultPlan &Out,
                    std::string &Error);
};

} // namespace dc

#endif // DC_SUPPORT_FAULTPLAN_H
