//===- tools/FuzzLib.h - Config-matrix differential fuzzer ------*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule fuzzer behind tools/dcfuzz.cpp and tests/schedule_fuzz_test:
/// generate a tiny program, drive it through an adversarial schedule (PCT,
/// bounded-exhaustive, or uniform random), record the trace, and run the
/// same (program, schedule) pair through the checker config matrix —
///
///   single-run DoubleChecker, single-run with an ICD region cap of 1,
///   Velodrome, the vector-clock engine, and multi-run DoubleChecker
///
/// — asserting that they agree with each other and with the ground-truth
/// serializability oracle (src/support/Oracle.h). The region-capped config
/// is held to oracle soundness only (its valve trades blame precision for
/// bounded reorder cost). The vector-clock engine is held to verdict equality plus oracle-subset
/// blame (its closing-edge blame is legitimately coarser than the graph
/// engines' cycle scan — DESIGN.md §14). On divergence, the
/// (program, schedule) witness is delta-debugged down: drop workers, calls,
/// accesses, and locks while a bounded re-search keeps finding a divergent
/// schedule for the reduced program. The minimal witness is written as a
/// single file — '#'-comment header with the divergence and schedule,
/// followed by the textual IR — that dcfuzz --replay re-executes
/// deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef DC_TOOLS_FUZZLIB_H
#define DC_TOOLS_FUZZLIB_H

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ir/Ir.h"
#include "support/FaultPlan.h"
#include "support/Oracle.h"

namespace dc {
namespace fuzz {

/// Generator-level program description. The fuzzer mutates and minimizes
/// this (not ir::Program directly): reductions stay structurally valid by
/// construction — fork/join bookkeeping, method references, and lock
/// pairing are re-emitted by build().
struct SpecAccess {
  bool IsWrite = false;
  uint8_t Obj = 0;   ///< Shared-pool object index.
  uint8_t Field = 0; ///< Field index.
  uint8_t WorkAfter = 0;
};

struct SpecMethod {
  bool Atomic = true;
  bool Locked = false; ///< Wrap the body in the global lock.
  std::vector<SpecAccess> Body;
};

struct SpecThread {
  std::vector<uint32_t> Calls; ///< Method indices, invoked in order.
};

struct ProgSpec {
  uint64_t Seed = 1;
  uint32_t Objects = 2;
  uint32_t Fields = 1;
  std::vector<SpecMethod> Methods;
  std::vector<SpecThread> Workers;

  ir::Program build() const;
  /// Static count of shared data accesses the program performs (each body
  /// access runs once per call).
  uint64_t staticAccesses() const;
};

/// Tiny random program: 2-3 workers, 1-3 calls each, methods of 1-3
/// accesses over ≤ 4 shared objects, some under a global lock — always
/// ≤ ~40 shared data accesses so the oracle's trace stays small.
ProgSpec randomSpec(uint64_t Seed);

/// What one (program, schedule) comparison produced.
struct PairResult {
  /// Oracle called the recorded trace non-serializable.
  bool OracleViolation = false;
  /// Set when some config disagreed with another or with the oracle.
  std::optional<std::string> Divergence;
};

/// Runs the recorded pair through the config matrix (stopping at the first
/// mismatch) and compares against the oracle. \p InjectIcdBug forwards the
/// test-only unsound-filter fault to every DoubleChecker config.
PairResult checkPair(const ir::Program &Source,
                     const oracle::RecordedTrace &Trace, bool InjectIcdBug);

/// One fault-injection configuration the sweep exercises: a deterministic
/// FaultPlan plus the checker knobs that make its trigger reachable (a
/// window stall needs a window boundary; a shrunken SCC cap or region cap
/// forces degradation). Zero-valued knobs keep the checker defaults.
struct FaultCase {
  /// Checker engine the fault plan is injected into. DoubleChecker cases
  /// sweep the full plan; VectorClock cases exercise the one fault that
  /// engine owns (a delayed collector) under an aggressive collect cadence.
  enum class Engine : uint8_t { DoubleChecker, Vc };

  FaultPlan Plan;
  uint32_t MaxSccTxs = 0;
  uint32_t PcdTimeoutMs = 0;
  /// Incremental detector's affected-region cap (0 = default): tiny values
  /// force the oversized-region sound-degradation valve.
  uint32_t IcdMaxRegion = 0;
  /// Force each ICD fast-path attempt to fail seqlock validation this many
  /// times (0 = off): a deterministic retry storm that exercises the retry
  /// accounting and — past the retry cap — the Mu fallback.
  uint32_t IcdSeqRetryStorm = 0;
  /// Streaming service mode: retirement-window cadence for the case (0 =
  /// batch). The window-stall fault needs a window boundary to wedge, and
  /// any fault plan may be layered over windowing to prove the flush path
  /// degrades as soundly as batch mode.
  uint32_t WindowTxs = 0;
  Engine Eng = Engine::DoubleChecker;

  bool any() const {
    return Plan.any() || MaxSccTxs != 0 || PcdTimeoutMs != 0 ||
           IcdMaxRegion != 0 || IcdSeqRetryStorm != 0 || WindowTxs != 0 ||
           Eng != Engine::DoubleChecker;
  }
  /// Human-readable label, also used in witness headers.
  std::string name() const;
};

/// The built-in fault-sweep axis: one case per overload failure mode the
/// FaultPlan models (allocation failure, collector delay, wedged window
/// flush) and per degradation cap (oversized SCC, ICD region, seqlock
/// retry storm), plus combinations layered over windowing.
std::vector<FaultCase> faultSweepCases();

/// Replays the recorded pair through single-run DoubleChecker under \p
/// Case and checks the degradation soundness invariant: the run terminates
/// structurally (no hang, no abort, schedule covered) and the reported
/// violation set — precise blamed methods ∪ potential methods from
/// degraded SCCs — is a superset of the oracle's true violating methods.
/// Returns the violation description, or nullopt if the invariant holds.
std::optional<std::string> checkFaultCase(const ir::Program &Source,
                                          const oracle::RecordedTrace &Trace,
                                          const FaultCase &Case);

/// Replays the recorded pair through both windowed engines (single-run
/// DoubleChecker and the vector-clock engine) in streaming mode with the
/// given retirement-window cadence, wired into a StreamingSession, and
/// checks batch-vs-streaming verdict equality: same blamed methods, same
/// potential methods, same has-records bit, at least one window actually
/// flushed, and the streamed violation/window event counts matching the
/// run's recorded ones. Returns the violation description, or nullopt if
/// the invariant holds.
std::optional<std::string>
checkWindowedPair(const ir::Program &Source,
                  const oracle::RecordedTrace &Trace, uint32_t WindowTxs);

/// A divergence, packaged for minimization and replay.
struct Divergence {
  std::string Description;
  ProgSpec Spec;
  std::vector<uint32_t> Schedule;
  uint64_t DataAccesses = 0;
  /// Set when the divergence is a fault-sweep soundness violation (the
  /// witness then replays checkFaultCase instead of the config matrix).
  FaultCase Fault;
  /// The program to write instead of Spec.build(): a replayed witness
  /// carries a parsed program but no generator spec.
  std::optional<ir::Program> Program;
};

/// Delta-debugs \p Seed: applies program reductions, re-searching divergent
/// schedules (bounded exhaustive, then PCT, then random) after each, until
/// no reduction reproduces. Returns the smallest divergence found.
Divergence minimizeWitness(const Divergence &Seed, bool InjectIcdBug);

/// Witness file: '#' header (description, seed, schedule, inject flag) +
/// textual IR. Parses back via ir::parseProgram, which skips '#' lines.
bool writeWitness(const std::string &Path, const Divergence &D,
                  bool InjectIcdBug);

struct Witness {
  ir::Program P;
  std::vector<uint32_t> Schedule;
  bool InjectIcdBug = false;
  /// Parsed from the '# fault-plan:' header block; when armed, replay runs
  /// checkFaultCase under this configuration.
  FaultCase Fault;
  /// Parsed from '# window-txs:'; when set (and no fault is armed), replay
  /// additionally runs checkWindowedPair at this cadence, proving the
  /// witness's verdict survives streaming-mode retirement windows.
  uint32_t WindowTxs = 0;
};
/// Returns false (with \p Error set) on I/O or parse failure.
bool readWitness(const std::string &Path, Witness &W, std::string &Error);

/// Re-executes a witness deterministically through the matrix. Returns the
/// divergence description, or nullopt if every config agrees (witness no
/// longer reproduces).
std::optional<std::string> replayWitness(const Witness &W);

/// dcfuzz's exit code when one pair outlives its wall timeout: the pair's
/// witness was written and the process terminated, because a wedged replay
/// cannot be unwound.
constexpr int ExitPairTimeout = 3;

/// The default per-pair wall timeout: a fixed multiple of the checker's
/// stall budget (DoubleCheckerOptions::PcdStallTimeoutMs). Every timed wait
/// a healthy or degrading run performs is bounded by a small multiple of
/// that budget, so a pair that outlives this is wedged, not slow.
double defaultPairTimeoutSeconds();

/// Per-pair wall-clock guard. A background thread watches the armed pair;
/// if it is still armed when its timeout expires, the watch writes the
/// pair's witness (program, recorded schedule, fault case) and terminates
/// the process with ExitPairTimeout.
class PairWatch {
public:
  PairWatch(double TimeoutSeconds, std::string WitnessPath);
  ~PairWatch();
  PairWatch(const PairWatch &) = delete;
  PairWatch &operator=(const PairWatch &) = delete;

  /// Starts the clock for \p Pair (its Description is replaced by the
  /// timeout diagnosis if it expires).
  void arm(Divergence Pair, bool InjectIcdBug);
  /// Records which fault case the armed pair is running now, without
  /// restarting its clock.
  void setFault(const FaultCase &Case);
  void disarm();

private:
  void run();

  const double TimeoutSeconds;
  const std::string WitnessPath;
  std::mutex M;
  std::condition_variable CV;
  bool Stop = false;
  bool Armed = false;
  uint64_t Generation = 0;
  std::chrono::steady_clock::time_point Deadline;
  Divergence Pair;
  bool InjectIcdBug = false;
  std::thread Worker;
};

/// Campaign driver.
struct FuzzOptions {
  uint64_t Seed = 1;
  uint64_t MaxPairs = 1000;
  double BudgetSeconds = 0; ///< 0 = no wall-clock budget.
  enum class Strategy { Random, Pct, Exhaustive, Mixed };
  Strategy Strat = Strategy::Mixed;
  uint32_t PctChangePoints = 3;
  uint32_t PreemptionBound = 2;
  uint32_t SchedulesPerProgram = 6;
  uint32_t ExhaustiveRunsPerProgram = 24;
  bool InjectIcdBug = false;
  bool Minimize = true;
  /// Sweep the deterministic fault plans (faultSweepCases) over every pair
  /// whose config matrix agrees, checking degradation soundness.
  bool FaultSweep = false;
  /// Progress lines on stderr every this many pairs (0 = quiet).
  uint64_t ProgressEvery = 0;
  /// Armed around every pair's checks when set.
  PairWatch *Watch = nullptr;
};

struct FuzzReport {
  uint64_t Programs = 0;
  uint64_t Pairs = 0;
  uint64_t RandomPairs = 0;
  uint64_t PctPairs = 0;
  uint64_t ExhaustivePairs = 0;
  /// Pairs whose trace the oracle called non-serializable (schedule-quality
  /// signal: an adversarial strategy should score higher than random).
  uint64_t OracleViolations = 0;
  /// Individual fault-case runs performed by the fault sweep.
  uint64_t FaultPlansRun = 0;
  double Seconds = 0;
  /// First divergence hit (minimized when FuzzOptions::Minimize).
  std::optional<Divergence> Div;
};

FuzzReport runFuzz(const FuzzOptions &O);

} // namespace fuzz
} // namespace dc

#endif // DC_TOOLS_FUZZLIB_H
