//===- rt/Watchdog.h - Heartbeat monitor for checker components -*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small heartbeat monitor that converts "component silently wedged" into
/// a structured CheckerFault (DESIGN.md §10). Components — the window
/// flush, the scheduler gate — register a named
/// slot, mark themselves busy while holding work, and beat their slot as
/// they make progress. The monitor thread polls; a slot that is busy and
/// has not beaten for longer than the timeout fires the handler exactly
/// once (first fault wins at the handler's discretion). Idle slots never
/// fire, so a quiescent run costs one mostly-sleeping thread and nothing
/// else.
///
/// The handler runs on the monitor thread and must not block on the stalled
/// component; recording a fault and requesting a cooperative abort are the
/// intended actions.
///
//===----------------------------------------------------------------------===//

#ifndef DC_RT_WATCHDOG_H
#define DC_RT_WATCHDOG_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace dc {
namespace rt {

class Watchdog {
public:
  struct Options {
    uint32_t TimeoutMs = 10000; ///< Busy silence that counts as a stall.
    uint32_t PollMs = 10;       ///< Monitor poll interval.
  };

  /// Called (on the monitor thread) when \p Component has been busy and
  /// silent for \p SilentMs milliseconds.
  using Handler = std::function<void(const std::string &Component,
                                     uint64_t SilentMs)>;

  Watchdog(Options Opts, Handler OnStall);
  ~Watchdog();

  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  /// Registers a monitored component; the returned id is stable for the
  /// watchdog's lifetime. Must be called before start().
  uint32_t addComponent(std::string Name);

  /// Starts the monitor thread. No-op if there are no components.
  void start();

  /// Component API: mark busy (holding work), beat (progress), mark idle.
  /// beginWork also counts as a beat.
  void beginWork(uint32_t Id);
  void heartbeat(uint32_t Id);
  void endWork(uint32_t Id);

  /// Stops monitoring without stopping the thread (used on the clean
  /// shutdown path before components wind down out of order).
  void disarm();

private:
  struct Slot {
    std::string Name;
    std::atomic<uint64_t> LastBeatMs{0};
    std::atomic<bool> Busy{false};
    std::atomic<bool> Fired{false};
  };

  static uint64_t nowMs();
  void monitorLoop();

  Options Opts;
  Handler OnStall;
  std::deque<Slot> Slots; // deque: stable addresses as slots are added.
  std::atomic<bool> Armed{true};
  bool StopRequested = false;
  std::mutex StopLock;
  std::condition_variable StopCv;
  std::thread Monitor;
};

} // namespace rt
} // namespace dc

#endif // DC_RT_WATCHDOG_H
