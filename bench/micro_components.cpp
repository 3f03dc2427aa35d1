//===- bench/micro_components.cpp - Component cost microbenchmarks --------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks justifying the design's cost story:
/// Octet's fast paths are a load+compare (cheap, no writes); Velodrome's
/// per-access critical section costs an order of magnitude more (the same
/// whether one thread or two alternating threads touch the field, since one
/// OS thread drives both and no coherence miss can occur);
/// log appends sit in between, with duplicate elision nearly free; PCD
/// replay costs are linear in SCC log sizes.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "analysis/DoubleChecker.h"
#include "analysis/Pcd.h"
#include "ir/Builder.h"
#include "rt/Runtime.h"
#include "support/Rng.h"
#include "support/SpinLock.h"
#include "velodrome/Velodrome.h"

using namespace dc;

namespace {

/// A minimal program whose heap provides objects for barrier benchmarks.
/// The atomic "txn" method exists so log benchmarks can drive transaction
/// boundaries (which advance the elision epoch).
ir::Program tinyProgram() {
  ir::ProgramBuilder B("micro");
  ir::PoolId Pool = B.addPool("objs", 64, 4);
  (void)Pool;
  B.beginMethod("txn", true).work(1).endMethod();
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  B.addThread(Main);
  B.addThread(Main);
  return B.build();
}

/// Shared fixture: a runtime (never run), a checker attached to it, and a
/// fake thread context for direct hook calls.
struct CheckerFixture {
  ir::Program P = tinyProgram();
  StatisticRegistry Stats;
  analysis::ViolationLog Violations;

  rt::ThreadContext makeTc(rt::Runtime &RT, rt::CheckerRuntime *Checker,
                           uint32_t Tid) {
    rt::ThreadContext TC;
    TC.Tid = Tid;
    TC.RT = &RT;
    TC.Checker = Checker;
    return TC;
  }
};

void BM_OctetReadFastPath(benchmark::State &State) {
  CheckerFixture F;
  rt::Runtime RT(F.P, nullptr);
  octet::OctetManager Octet(RT.heap(), 2, nullptr, F.Stats);
  Octet.threadStarted(0);
  rt::ThreadContext TC = F.makeTc(RT, nullptr, 0);
  Octet.readBarrier(TC, 0); // Claim the object (RdEx_0).
  for (auto _ : State)
    Octet.readBarrier(TC, 0);
}
BENCHMARK(BM_OctetReadFastPath);

void BM_OctetWriteFastPath(benchmark::State &State) {
  CheckerFixture F;
  rt::Runtime RT(F.P, nullptr);
  octet::OctetManager Octet(RT.heap(), 2, nullptr, F.Stats);
  Octet.threadStarted(0);
  rt::ThreadContext TC = F.makeTc(RT, nullptr, 0);
  Octet.writeBarrier(TC, 0); // Claim the object (WrEx_0).
  for (auto _ : State)
    Octet.writeBarrier(TC, 0);
}
BENCHMARK(BM_OctetWriteFastPath);

void BM_OctetRdShFastPath(benchmark::State &State) {
  CheckerFixture F;
  rt::Runtime RT(F.P, nullptr);
  octet::OctetManager Octet(RT.heap(), 2, nullptr, F.Stats);
  Octet.threadStarted(0);
  Octet.threadStarted(1);
  rt::ThreadContext T0 = F.makeTc(RT, nullptr, 0);
  rt::ThreadContext T1 = F.makeTc(RT, nullptr, 1);
  Octet.readBarrier(T0, 0); // RdEx_0.
  Octet.readBarrier(T1, 0); // Upgrade to RdSh.
  Octet.readBarrier(T0, 0); // Fence once; now up to date.
  for (auto _ : State)
    Octet.readBarrier(T0, 0);
}
BENCHMARK(BM_OctetRdShFastPath);

/// Log-append cost through the checker: thread-local filter probe plus a
/// packed-slot append into the transaction's arena chunks.
void BM_IcdLogAppend(benchmark::State &State) {
  CheckerFixture F;
  analysis::DoubleCheckerOptions Opts;
  Opts.RunPcd = false;
  analysis::DoubleCheckerRuntime DC(F.P, Opts, F.Violations, F.Stats);
  rt::Runtime RT(F.P, &DC);
  DC.beginRun(RT);
  rt::ThreadContext TC = F.makeTc(RT, &DC, 0);
  DC.threadStarted(TC);
  const ir::Method &Txn = F.P.Methods[F.P.findMethod("txn")];
  rt::AccessInfo Info;
  Info.IsWrite = true;
  Info.Flags = ir::IF_OctetBarrier | ir::IF_LogAccess;
  uint32_t I = 0;
  DC.txBegin(TC, Txn);
  for (auto _ : State) {
    // 64 distinct fields per transaction, new transaction (= new elision
    // epoch) every 64 accesses: every access appends, and the ~1.5% of
    // iterations spent on transaction turnover amortizes away.
    if (I % 64 == 0 && I != 0) {
      DC.txEnd(TC, Txn);
      DC.txBegin(TC, Txn);
    }
    Info.Obj = (I & 63) / 4;
    Info.Addr = RT.heap().fieldAddr(Info.Obj, I & 3);
    ++I;
    DC.instrumentedAccess(TC, Info, [] {});
  }
  DC.txEnd(TC, Txn);
}
BENCHMARK(BM_IcdLogAppend);

void BM_IcdLogElided(benchmark::State &State) {
  CheckerFixture F;
  analysis::DoubleCheckerOptions Opts;
  Opts.RunPcd = false;
  analysis::DoubleCheckerRuntime DC(F.P, Opts, F.Violations, F.Stats);
  rt::Runtime RT(F.P, &DC);
  DC.beginRun(RT);
  rt::ThreadContext TC = F.makeTc(RT, &DC, 0);
  DC.threadStarted(TC);
  rt::AccessInfo Info;
  Info.Obj = 0;
  Info.Addr = RT.heap().fieldAddr(0, 0);
  Info.IsWrite = true;
  Info.Flags = ir::IF_OctetBarrier | ir::IF_LogAccess;
  DC.instrumentedAccess(TC, Info, [] {}); // First access appends.
  for (auto _ : State)
    DC.instrumentedAccess(TC, Info, [] {}); // Duplicates elide.
}
BENCHMARK(BM_IcdLogElided);

/// Raw storage cost with the checker plumbing subtracted: one packed-slot
/// arena append from a pool-backed cache, fresh transaction every 256
/// records so chunk recycling is part of the cost.
void BM_ArenaRawAppend(benchmark::State &State) {
  analysis::LogChunkPool Pool;
  analysis::LogChunkCache Cache;
  Cache.attach(&Pool);
  auto Tx = std::make_unique<analysis::Transaction>(1, 0, 0, ir::MethodId(0),
                                                    true);
  analysis::LogEntry E;
  E.K = analysis::LogEntry::Kind::Write;
  uint32_t I = 0;
  for (auto _ : State) {
    E.Obj = I & 63;
    E.Addr = I;
    Tx->appendLog(E, &Cache);
    if (++I % 256 == 0) {
      Tx->Log.releaseTo(Pool);
      Tx = std::make_unique<analysis::Transaction>(1, 0, 0, ir::MethodId(0),
                                                   true);
    }
  }
}
BENCHMARK(BM_ArenaRawAppend);

/// The thread-local duplicate filter by itself: a hit (elidable repeat) and
/// a miss that inserts (range(0) == 1 rotates keys so every probe misses).
void BM_ElisionFilterProbe(benchmark::State &State) {
  const bool Rotate = State.range(0) != 0;
  analysis::ElisionFilter Filter;
  uint64_t Key = 0;
  for (auto _ : State) {
    if (Rotate)
      Key = (Key + 1) & 0xffff;
    benchmark::DoNotOptimize(
        Filter.testAndSet(analysis::ElisionFilter::key(
                              static_cast<uint32_t>(Key), 7),
                          /*Epoch=*/1, /*IsWrite=*/true));
  }
}
BENCHMARK(BM_ElisionFilterProbe)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("rotate");

void BM_VelodromeAccessLocal(benchmark::State &State) {
  CheckerFixture F;
  velodrome::VelodromeRuntime Velo(F.P, velodrome::VelodromeOptions(),
                                   F.Violations, F.Stats);
  rt::Runtime RT(F.P, &Velo);
  Velo.beginRun(RT);
  rt::ThreadContext TC = F.makeTc(RT, &Velo, 0);
  Velo.threadStarted(TC);
  rt::AccessInfo Info;
  Info.Obj = 0;
  Info.Addr = RT.heap().fieldAddr(0, 0);
  Info.IsWrite = false;
  Info.Flags = ir::IF_VelodromeBarrier;
  for (auto _ : State)
    Velo.instrumentedAccess(TC, Info, [] {});
}
BENCHMARK(BM_VelodromeAccessLocal);

void BM_VelodromeAccessPingPong(benchmark::State &State) {
  CheckerFixture F;
  velodrome::VelodromeRuntime Velo(F.P, velodrome::VelodromeOptions(),
                                   F.Violations, F.Stats);
  rt::Runtime RT(F.P, &Velo);
  Velo.beginRun(RT);
  rt::ThreadContext T0 = F.makeTc(RT, &Velo, 0);
  rt::ThreadContext T1 = F.makeTc(RT, &Velo, 1);
  Velo.threadStarted(T0);
  Velo.threadStarted(T1);
  rt::AccessInfo Info;
  Info.Obj = 0;
  Info.Addr = RT.heap().fieldAddr(0, 0);
  Info.IsWrite = false;
  Info.Flags = ir::IF_VelodromeBarrier;
  bool Flip = false;
  for (auto _ : State) {
    // Alternating threads: the contended path (two accesses per
    // iteration). One OS thread drives both, so the metadata line stays in
    // its cache; on a multicore each alternation is also a coherence miss.
    Velo.instrumentedAccess(Flip ? T0 : T1, Info, [] {});
    Flip = !Flip;
  }
}
BENCHMARK(BM_VelodromeAccessPingPong);

void BM_PcdReplay(benchmark::State &State) {
  // Synthetic SCC: K transactions on two threads, alternating edges.
  const uint32_t K = static_cast<uint32_t>(State.range(0));
  std::vector<std::unique_ptr<analysis::Transaction>> Owned;
  std::vector<analysis::Transaction *> Members;
  for (uint32_t I = 0; I < K; ++I) {
    auto Tx = std::make_unique<analysis::Transaction>(
        I + 1, I % 2, I / 2, ir::MethodId(0), /*Regular=*/true);
    for (uint32_t E = 0; E < 16; ++E) {
      analysis::LogEntry Entry;
      Entry.K = (E % 4 == 3) ? analysis::LogEntry::Kind::Write
                             : analysis::LogEntry::Kind::Read;
      Entry.Obj = E % 3;
      Entry.Addr = 100 + E % 7;
      Tx->appendLog(Entry);
    }
    Tx->Finished.store(true);
    Members.push_back(Tx.get());
    Owned.push_back(std::move(Tx));
  }
  StatisticRegistry Stats;
  analysis::ViolationLog Sink;
  analysis::PreciseCycleDetector Pcd(Sink, Stats);
  for (auto _ : State)
    Pcd.processScc(Members);
  State.SetItemsProcessed(State.iterations() * K * 16);
}
BENCHMARK(BM_PcdReplay)->Arg(8)->Arg(64);

void BM_SpinLockUncontended(benchmark::State &State) {
  SpinLock Lock;
  for (auto _ : State) {
    Lock.lock();
    Lock.unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_SplitMix64(benchmark::State &State) {
  SplitMix64 Rng(42);
  uint64_t Sink = 0;
  for (auto _ : State)
    Sink ^= Rng.next();
  benchmark::DoNotOptimize(Sink);
}
BENCHMARK(BM_SplitMix64);

void BM_InterpreterThroughput(benchmark::State &State) {
  using namespace ir;
  ProgramBuilder B("loop");
  PoolId Pool = B.addPool("data", 4, 8);
  MethodId Main = B.beginMethod("main", false)
                      .beginLoop(idxConst(50000))
                      .read(Pool, idxConst(0), idxLoop(0, 1, 0, 8))
                      .write(Pool, idxConst(1), idxLoop(0, 1, 0, 8))
                      .work(1)
                      .endLoop()
                      .endMethod();
  B.addThread(Main);
  Program P = B.build();
  uint64_t Steps = 0;
  for (auto _ : State) {
    rt::Runtime RT(P, nullptr);
    Steps += RT.run().Steps;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
}
BENCHMARK(BM_InterpreterThroughput);

} // namespace

BENCHMARK_MAIN();
