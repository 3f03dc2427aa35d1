//===- tests/log_srcpos_test.cpp - LogLen publication contract ------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-free SrcPos sampling contract (Transaction.h): Transaction::
/// LogLen is published with release order once per record, so a concurrent
/// sample is always ≤ the owner's published length and always lands on a
/// record boundary — even while the owner's appends cross chunk boundaries
/// and split 2-slot EdgeIn records across chunks. The first test samples
/// concurrently with a real second thread (this file runs under
/// -DDC_SANITIZE=thread in CI, where any non-atomic sharing would trip);
/// the rest drive whole checker runs on real threads and assert the
/// replay built from sampled positions is a valid linearization (every
/// replay terminates: pcd.replay_stuck == 0).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "analysis/Transaction.h"
#include "core/Checker.h"
#include "tests/TestPrograms.h"

using namespace dc;
using namespace dc::analysis;

namespace {

TEST(SrcPosSamplingTest, SamplesAreBoundedMonotonicRecordBoundaries) {
  // ~4.5 chunks of slots with a 2-slot EdgeIn every 7th record, so records
  // straddle several chunk boundaries while the sampler runs.
  constexpr uint32_t NumRecords = 1024;
  constexpr uint32_t EdgeInPeriod = 7;

  // Record boundaries are deterministic: precompute the set of positions
  // appendLog ever publishes.
  std::vector<uint32_t> Boundaries;
  uint32_t Slots = 0;
  for (uint32_t I = 0; I < NumRecords; ++I) {
    Slots += (I % EdgeInPeriod == EdgeInPeriod - 1) ? 2 : 1;
    Boundaries.push_back(Slots);
  }
  const uint32_t FinalLen = Slots;
  std::vector<uint8_t> IsBoundary(FinalLen + 1, 0);
  IsBoundary[0] = 1; // The initial length is also observable.
  for (uint32_t B : Boundaries)
    IsBoundary[B] = 1;

  Transaction Tx(1, 0, 0, ir::MethodId(0), true);
  std::atomic<bool> Start{false};

  std::thread Sampler([&] {
    while (!Start.load(std::memory_order_acquire)) {
    }
    uint32_t Prev = 0;
    uint64_t Samples = 0;
    bool BadBoundary = false, NonMonotonic = false, OverPublished = false;
    for (;;) {
      const uint32_t Len = Tx.LogLen.load(std::memory_order_acquire);
      ++Samples;
      OverPublished |= Len > FinalLen;
      NonMonotonic |= Len < Prev;
      BadBoundary |= Len <= FinalLen && !IsBoundary[Len];
      Prev = Len;
      if (Len == FinalLen)
        break;
    }
    EXPECT_FALSE(OverPublished) << "sample exceeded the published length";
    EXPECT_FALSE(NonMonotonic) << "published lengths went backwards";
    EXPECT_FALSE(BadBoundary)
        << "a sample split a record (mid-EdgeIn position published)";
    EXPECT_GT(Samples, 0u);
  });

  LogChunkCache Cache; // No pool: plain allocation, single owner thread.
  Start.store(true, std::memory_order_release);
  for (uint32_t I = 0; I < NumRecords; ++I) {
    LogEntry E;
    if (I % EdgeInPeriod == EdgeInPeriod - 1) {
      E.K = LogEntry::Kind::EdgeIn;
      E.Obj = 1;
      E.Addr = I;
      E.SrcSeq = I;
      E.Time = I + 1;
    } else {
      E.K = I % 2 == 0 ? LogEntry::Kind::Read : LogEntry::Kind::Write;
      E.Obj = I;
      E.Addr = I * 3 + 1;
    }
    Tx.appendLog(E, &Cache);
  }
  Sampler.join();

  // The cursor's record boundaries must be exactly the published ones, and
  // the log decodes back to what was appended.
  uint32_t I = 0;
  for (LogCursor C(Tx); !C.atEnd(); C.advance(), ++I) {
    ASSERT_LT(I, NumRecords);
    EXPECT_EQ(C.pos(), I == 0 ? 0 : Boundaries[I - 1]);
    const LogEntry E = C.current();
    if (I % EdgeInPeriod == EdgeInPeriod - 1) {
      EXPECT_EQ(E.K, LogEntry::Kind::EdgeIn);
      EXPECT_EQ(E.SrcSeq, I);
      EXPECT_EQ(E.Time, I + 1);
    } else {
      EXPECT_EQ(E.K,
                I % 2 == 0 ? LogEntry::Kind::Read : LogEntry::Kind::Write);
      EXPECT_EQ(E.Addr, I * 3 + 1);
    }
  }
  EXPECT_EQ(I, NumRecords);
}

TEST(SrcPosSamplingTest, ConcurrentRunsReplaySampledPositionsToCompletion) {
  // Whole-checker runs on real interpreter threads: cross edges sample
  // LogLen lock-free while owners append, and PCD replays the sampled
  // SrcPos constraints. A stuck replay (unsatisfiable constraints) would
  // mean a sampled position was not a valid linearization point.
  ir::Program P = testprogs::racyBank(3, 300, 2);
  core::AtomicitySpec Spec = core::AtomicitySpec::initial(P);
  for (uint64_t Seed = 0; Seed < 3; ++Seed) {
    core::RunConfig Cfg;
    Cfg.M = core::Mode::SingleRun;
    Cfg.RunOpts.Deterministic = false; // Real threads, real racing appends.
    Cfg.RunOpts.ScheduleSeed = Seed;
    core::RunOutcome O = core::runChecker(P, Spec, Cfg);
    EXPECT_FALSE(O.Result.Aborted);
    EXPECT_EQ(O.stat("pcd.replay_stuck"), 0u) << "seed " << Seed;
  }
}

} // namespace
