//===- tests/log_elision_test.cpp - Logging-path differential tests -------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the logging hot path's pieces (ElisionFilter, ChunkedLog,
/// LogCursor, chunk recycling) plus the differential guarantee elision
/// rides on: the same oracle-recorded schedule, run with elision on and
/// off, must report byte-identical violation sets and identical PCD replay
/// outcomes — in single-run and in multi-run mode — and the blamed methods
/// must equal both Velodrome's and the ground-truth oracle's
/// (src/support/Oracle.h) on that schedule.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/LogArena.h"
#include "analysis/Transaction.h"
#include "core/Checker.h"
#include "support/Oracle.h"
#include "tests/TestPrograms.h"

using namespace dc;
using namespace dc::analysis;
using namespace dc::core;

namespace {

/// racyBank with each access doubled: deposit reads the balance twice and
/// writes it twice, so every transaction offers same-epoch duplicates
/// (read-after-read, write-after-write) for elision to remove — racyBank's
/// plain read-then-write never does (write-after-read must log).
ir::Program doubledRacyBank(uint32_t Workers, uint32_t DepositsPerWorker,
                            uint32_t Accounts) {
  using namespace ir;
  ProgramBuilder B("doubled-racy-bank", 42);
  PoolId Acct = B.addPool("accounts", Accounts, 1);
  MethodId Deposit = B.beginMethod("deposit", /*Atomic=*/true)
                         .read(Acct, idxParam(), 0u)
                         .read(Acct, idxParam(), 0u)
                         .work(20)
                         .write(Acct, idxParam(), 0u)
                         .write(Acct, idxParam(), 0u)
                         .endMethod();
  MethodId Worker = B.beginMethod("worker", /*Atomic=*/false)
                        .beginLoop(idxConst(DepositsPerWorker))
                        .call(Deposit, idxRandom(Accounts))
                        .endLoop()
                        .endMethod();
  auto &Main = B.beginMethod("main", /*Atomic=*/false);
  for (uint32_t W = 1; W <= Workers; ++W)
    Main.forkThread(idxConst(W));
  for (uint32_t W = 1; W <= Workers; ++W)
    Main.joinThread(idxConst(W));
  MethodId MainId = Main.endMethod();
  B.addThread(MainId);
  for (uint32_t W = 1; W <= Workers; ++W)
    B.addThread(Worker);
  return B.build();
}

//===----------------------------------------------------------------------===//
// ElisionFilter
//===----------------------------------------------------------------------===//

TEST(ElisionFilterTest, ReadAfterAnyAndWriteAfterWriteElide) {
  ElisionFilter F;
  const uint64_t K = ElisionFilter::key(3, 17);
  EXPECT_FALSE(F.testAndSet(K, 1, /*IsWrite=*/false)) << "first access logs";
  EXPECT_TRUE(F.testAndSet(K, 1, false)) << "read after read elides";
  EXPECT_FALSE(F.testAndSet(K, 1, true)) << "write after read logs";
  EXPECT_TRUE(F.testAndSet(K, 1, true)) << "write after write elides";
  EXPECT_TRUE(F.testAndSet(K, 1, false)) << "read after write elides";
}

TEST(ElisionFilterTest, EpochBumpInvalidatesWithoutClearing) {
  ElisionFilter F;
  const uint64_t K = ElisionFilter::key(1, 2);
  EXPECT_FALSE(F.testAndSet(K, 1, true));
  EXPECT_TRUE(F.testAndSet(K, 1, true));
  // A transaction boundary / incoming edge bumps the epoch; the stale
  // stamp must not elide the next access.
  EXPECT_FALSE(F.testAndSet(K, 2, true));
  EXPECT_TRUE(F.testAndSet(K, 2, true));
  // An older epoch never resurrects (epochs only move forward in the
  // runtime, but the filter must not care either way).
  EXPECT_FALSE(F.testAndSet(K, 3, false));
}

TEST(ElisionFilterTest, DistinctKeysDoNotAlias) {
  ElisionFilter F;
  EXPECT_FALSE(F.testAndSet(ElisionFilter::key(1, 5), 1, false));
  EXPECT_FALSE(F.testAndSet(ElisionFilter::key(2, 5), 1, false))
      << "same field of another object is a different key";
  EXPECT_FALSE(F.testAndSet(ElisionFilter::key(1, 6), 1, false));
  EXPECT_TRUE(F.testAndSet(ElisionFilter::key(1, 5), 1, false));
}

TEST(ElisionFilterTest, CollisionsOnlyLoseElisionNeverFabricateIt) {
  ElisionFilter F;
  // Hammer far more keys than slots in one epoch; whatever eviction does,
  // a key never elides before being recorded in the current epoch.
  for (uint32_t I = 0; I < 4 * ElisionFilter::NumSlots; ++I)
    EXPECT_FALSE(F.testAndSet(ElisionFilter::key(I, I * 7 + 1), 1, true))
        << "first access of a key must log";
}

//===----------------------------------------------------------------------===//
// ChunkedLog + LogCursor
//===----------------------------------------------------------------------===//

TEST(ChunkedLogTest, AppendsAcrossChunksAndDecodesBack) {
  Transaction Tx(1, 0, 0, ir::MethodId(0), true);
  const uint32_t N = LogChunk::SlotsPerChunk * 3 + 5;
  for (uint32_t I = 0; I < N; ++I) {
    LogEntry E;
    E.K = I % 3 == 0 ? LogEntry::Kind::Write : LogEntry::Kind::Read;
    E.Obj = I;
    E.Addr = I * 2 + 1;
    Tx.appendLog(E);
  }
  EXPECT_EQ(Tx.Log.size(), N);
  EXPECT_EQ(Tx.LogLen.load(), N);
  uint32_t I = 0;
  for (LogCursor C(Tx); !C.atEnd(); C.advance(), ++I) {
    const LogEntry E = C.current();
    EXPECT_EQ(E.K, I % 3 == 0 ? LogEntry::Kind::Write : LogEntry::Kind::Read);
    EXPECT_EQ(E.Obj, I);
    EXPECT_EQ(E.Addr, I * 2 + 1);
  }
  EXPECT_EQ(I, N);
}

TEST(ChunkedLogTest, EdgeInRecordStraddlesChunkBoundary) {
  Transaction Tx(1, 0, 0, ir::MethodId(0), true);
  // Fill to one slot short of the chunk boundary, then append a 2-slot
  // EdgeIn so its continuation lands in the next chunk.
  for (uint32_t I = 0; I < LogChunk::SlotsPerChunk - 1; ++I) {
    LogEntry E;
    E.Obj = I;
    E.Addr = I;
    Tx.appendLog(E);
  }
  LogEntry Marker;
  Marker.K = LogEntry::Kind::EdgeIn;
  Marker.Obj = 7;                  // Source tid.
  Marker.Addr = 1234;              // Sampled source position.
  Marker.SrcSeq = 0x123456789AULL; // Survives the Meta>>2 packing.
  Marker.Time = 0xFEDCBA9876543210ULL;
  Tx.appendLog(Marker);
  LogEntry After;
  After.K = LogEntry::Kind::Write;
  After.Obj = 99;
  After.Addr = 98;
  Tx.appendLog(After);
  EXPECT_EQ(Tx.Log.size(), LogChunk::SlotsPerChunk + 2);

  LogCursor C(Tx);
  for (uint32_t I = 0; I < LogChunk::SlotsPerChunk - 1; ++I)
    C.advance();
  ASSERT_FALSE(C.atEnd());
  LogEntry E = C.current();
  EXPECT_EQ(E.K, LogEntry::Kind::EdgeIn);
  EXPECT_EQ(E.Obj, 7u);
  EXPECT_EQ(E.Addr, 1234u);
  EXPECT_EQ(E.SrcSeq, 0x123456789AULL);
  EXPECT_EQ(E.Time, 0xFEDCBA9876543210ULL);
  C.advance(); // Consumes both slots.
  ASSERT_FALSE(C.atEnd());
  E = C.current();
  EXPECT_EQ(E.K, LogEntry::Kind::Write);
  EXPECT_EQ(E.Obj, 99u);
  C.advance();
  EXPECT_TRUE(C.atEnd());
}

TEST(ChunkPoolTest, RecycledChunksAreServedBeforeAllocating) {
  LogChunkPool Pool;
  LogChunkCache Cache;
  Cache.attach(&Pool);
  // Consume two full cache refills so the cache is empty when the second
  // transaction starts; its refill must then come from the recycled chunks.
  const uint32_t SlotsPerTx =
      LogChunk::SlotsPerChunk * 2 * LogChunkCache::RefillBatch;
  {
    Transaction Tx(1, 0, 0, ir::MethodId(0), true);
    for (uint32_t I = 0; I < SlotsPerTx; ++I) {
      LogEntry E;
      E.Obj = I;
      Tx.appendLog(E, &Cache);
    }
    Tx.Log.releaseTo(Pool); // What the collector does before delete.
  }
  const uint64_t AllocsBefore = Pool.chunkAllocs();
  Transaction Tx2(2, 0, 1, ir::MethodId(0), true);
  for (uint32_t I = 0; I < SlotsPerTx; ++I) {
    LogEntry E;
    E.Obj = I;
    Tx2.appendLog(E, &Cache);
  }
  EXPECT_GT(Pool.chunkRecycles(), 0u);
  EXPECT_EQ(Pool.chunkAllocs(), AllocsBefore)
      << "the second transaction must reuse the first one's chunks";
  uint32_t I = 0;
  for (LogCursor C(Tx2); !C.atEnd(); C.advance(), ++I)
    EXPECT_EQ(C.current().Obj, I) << "recycled chunks hold the new data";
}

//===----------------------------------------------------------------------===//
// Differential: elision on/off, against Velodrome and the oracle
//===----------------------------------------------------------------------===//

/// Canonical byte representation of a violation set (order-independent).
std::string serializeViolations(const std::vector<ViolationRecord> &Records) {
  std::vector<std::string> Lines;
  for (const ViolationRecord &R : Records) {
    std::ostringstream S;
    S << "blamed=" << R.Blamed << " cycle=";
    for (const CycleMember &M : R.Cycle)
      S << "(" << M.Tid << "," << M.Site << "," << M.TxId << ")";
    Lines.push_back(S.str());
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// One deterministic schedule recorded by the oracle, plus its verdict.
struct RecordedSchedule {
  oracle::RecordedTrace Trace;
  oracle::OracleVerdict Truth;
};

RecordedSchedule recordSchedule(const ir::Program &P,
                                const AtomicitySpec &Spec, uint64_t Seed) {
  rt::RunOptions RO;
  RO.Deterministic = true;
  RO.ScheduleSeed = Seed;
  RecordedSchedule R;
  R.Trace = oracle::recordTrace(P, Spec, RO);
  R.Truth = oracle::decideSerializability(P, R.Trace);
  return R;
}

/// Replays \p Schedule exactly (HardError on exhaustion: every mode
/// compiles to the same instruction stream, so a divergence is a bug).
RunOutcome replay(const ir::Program &P, const AtomicitySpec &Spec, Mode M,
                  const std::vector<uint32_t> &Schedule, bool Elide = true,
                  const StaticTransactionInfo *Info = nullptr) {
  RunConfig Cfg;
  Cfg.M = M;
  Cfg.RunOpts.Deterministic = true;
  Cfg.RunOpts.ExplicitSchedule = Schedule;
  Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
  Cfg.ElideDuplicates = Elide;
  Cfg.StaticInfo = Info;
  RunOutcome O = runChecker(P, Spec, Cfg);
  EXPECT_FALSE(O.Result.Aborted) << toString(M);
  EXPECT_FALSE(O.Result.ScheduleDiverged) << toString(M);
  return O;
}

TEST(LogDifferentialTest, SingleRunViolationsAreByteIdenticalAcrossPaths) {
  ir::Program P = doubledRacyBank(3, 400, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  bool AnyViolation = false;
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    RecordedSchedule S = recordSchedule(P, Spec, Seed);
    RunOutcome Ref = replay(P, Spec, Mode::SingleRun, S.Trace.Schedule);
    const std::string RefBytes = serializeViolations(Ref.Violations);
    AnyViolation |= !Ref.Violations.empty();
    EXPECT_EQ(Ref.stat("pcd.replay_stuck"), 0u);
    // The independent references: Velodrome's online precise graph and
    // the oracle's offline one. deposit is the only atomic method, so the
    // oracle's cycle methods are exactly what a precise checker blames.
    RunOutcome Velo = replay(P, Spec, Mode::Velodrome, S.Trace.Schedule);
    EXPECT_EQ(Ref.BlamedMethods, Velo.BlamedMethods) << "seed " << Seed;
    EXPECT_EQ(Ref.BlamedMethods, S.Truth.CycleMethods) << "seed " << Seed;

    RunOutcome O = replay(P, Spec, Mode::SingleRun, S.Trace.Schedule,
                          /*Elide=*/false);
    EXPECT_EQ(serializeViolations(O.Violations), RefBytes) << "seed " << Seed;
    // Identical replay outcomes, not just identical reports: the same SCCs
    // reach PCD, every replay terminates, and the same cycles fall out of
    // the reconstructed PDG.
    EXPECT_EQ(O.stat("pcd.sccs_processed"), Ref.stat("pcd.sccs_processed"))
        << "seed " << Seed;
    EXPECT_EQ(O.stat("pcd.cycles"), Ref.stat("pcd.cycles")) << "seed " << Seed;
    EXPECT_EQ(O.stat("pcd.replay_stuck"), 0u) << "seed " << Seed;
  }
  EXPECT_TRUE(AnyViolation) << "differential test never saw a violation";
}

TEST(LogDifferentialTest, MultiRunViolationsAreByteIdenticalAcrossPaths) {
  ir::Program P = doubledRacyBank(3, 400, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  bool AnyViolation = false;
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    RecordedSchedule S = recordSchedule(P, Spec, Seed);
    // First run (no logging) on the same schedule feeds both second runs.
    RunOutcome First = replay(P, Spec, Mode::FirstRun, S.Trace.Schedule);
    RunOutcome Ref = replay(P, Spec, Mode::SecondRun, S.Trace.Schedule,
                            /*Elide=*/true, &First.StaticInfo);
    const std::string RefBytes = serializeViolations(Ref.Violations);
    AnyViolation |= !Ref.Violations.empty();
    RunOutcome Velo = replay(P, Spec, Mode::Velodrome, S.Trace.Schedule);
    EXPECT_EQ(Ref.BlamedMethods, Velo.BlamedMethods) << "seed " << Seed;
    EXPECT_EQ(Ref.BlamedMethods, S.Truth.CycleMethods) << "seed " << Seed;

    RunOutcome O = replay(P, Spec, Mode::SecondRun, S.Trace.Schedule,
                          /*Elide=*/false, &First.StaticInfo);
    EXPECT_EQ(serializeViolations(O.Violations), RefBytes) << "seed " << Seed;
    EXPECT_EQ(O.stat("pcd.cycles"), Ref.stat("pcd.cycles")) << "seed " << Seed;
    EXPECT_EQ(O.stat("pcd.replay_stuck"), 0u) << "seed " << Seed;
  }
  EXPECT_TRUE(AnyViolation) << "differential test never saw a violation";
}

TEST(LogDifferentialTest, ElisionActuallyElidesOnBothPaths) {
  // Guard against the differential passing because elision silently became
  // a no-op: on the doubled workload the log must elide something when
  // enabled and nothing when disabled.
  ir::Program P = doubledRacyBank(2, 200, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RecordedSchedule S = recordSchedule(P, Spec, 1);
  RunOutcome WithElide = replay(P, Spec, Mode::SingleRun, S.Trace.Schedule);
  RunOutcome NoElide = replay(P, Spec, Mode::SingleRun, S.Trace.Schedule,
                              /*Elide=*/false);
  EXPECT_GT(WithElide.stat("icd.log_entries_elided"), 0u);
  EXPECT_EQ(NoElide.stat("icd.log_entries_elided"), 0u);
  EXPECT_GT(NoElide.stat("icd.log_entries"),
            WithElide.stat("icd.log_entries"));
}

TEST(LogDifferentialTest, ArenaPathReportsLoggingCounters) {
  ir::Program P = testprogs::racyBank(2, 300, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RecordedSchedule S = recordSchedule(P, Spec, 2);
  RunOutcome O = replay(P, Spec, Mode::SingleRun, S.Trace.Schedule);
  EXPECT_GT(O.stat("logging.bytes_logged"), 0u);
  EXPECT_GT(O.stat("logging.chunk_allocs"), 0u);
  EXPECT_GT(O.stat("icd.log_entries"), 0u);
}

} // namespace
