//===- bench/cycle_detection.cpp - Incremental ICD sweep ------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The microbench for incremental online cycle detection (DESIGN.md §12):
/// cross-edge insertion latency and end-to-end transaction throughput of
/// incremental order maintenance at 1/4/8 threads, on a cycle-free and a
/// cycle-heavy edge stream, plus a contention row set on the raw detector.
///
/// Same harness as bench/scaling_threads: the hooks are driven directly
/// from one OS thread, round-robining T logical threads one access at a
/// time, all parked in the Octet blocked state so conflicts resolve
/// synchronously. Two shapes:
///
///  - *cycle-free*: a staged pipeline. Every fourth transaction performs
///    one shared operation, alternating by generation parity — even
///    generations each thread T writes its stage object T, odd
///    generations each thread T>0 reads its left neighbour's object T-1.
///    Within a generation every cross edge points the same way along the
///    thread index (writes reclaim from readers: down; reads: up), and
///    across generations only program order connects — so the IDG stays
///    acyclic by construction, and the whole run is pure order
///    maintenance. This is the paper's dominant regime (cycles are rare):
///    the detector pays O(1) per consistent edge.
///  - *cycle-heavy*: every fourth transaction read-modify-writes one of
///    two hot objects, ping-ponging ownership in both directions between
///    overlapping transactions — a dense stream of inconsistent edges,
///    region reorders, and real cycles. The adversarial regime: a bounded
///    two-way search per back edge.
///
/// Latency is split at the two places the detector runs: the shared-slot
/// access (the fast path or reorder, inline under the edge writer's
/// stripes) and the transaction boundary (retire, where the last member
/// of a cycle claims it).
///
//===----------------------------------------------------------------------===//

#include <chrono>
#include <thread>

#include "analysis/DoubleChecker.h"
#include "analysis/IncrementalCycles.h"
#include "bench/BenchUtils.h"
#include "ir/Builder.h"
#include "support/Rng.h"

using namespace dc;
using namespace dc::bench;

namespace {

constexpr uint32_t AccessesPerTx = 3;
constexpr uint32_t SharedTxPeriod = 4; // 1 in 4 transactions is shared.
constexpr uint32_t HotObjects = 2;     // Cycle-heavy contention points.

enum class Shape { CycleFree, CycleHeavy };

ir::Program benchProgram(uint32_t Threads) {
  ir::ProgramBuilder B("cycle_detection");
  // Stage objects (one per thread) + hot objects + private objects.
  B.addPool("objs", Threads + HotObjects + Threads, 2);
  B.beginMethod("txn", true).work(1).endMethod();
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  for (uint32_t T = 0; T < Threads; ++T)
    B.addThread(Main);
  return B.build();
}

struct SweepPoint {
  double Seconds = 0;
  double TxPerSec = 0;
  double SharedNsAvg = 0; ///< Mean wall ns per shared-slot access.
  double TxEndNsAvg = 0;  ///< Mean wall ns per txEnd.
  uint64_t CrossEdges = 0;
  uint64_t IncEdges = 0;
  uint64_t Reorders = 0;
  uint64_t Sccs = 0;
  uint64_t CyclesIncremental = 0;
};

SweepPoint runOnce(const ir::Program &P, uint32_t Threads,
                   uint64_t TxPerThread, Shape S) {
  StatisticRegistry Stats;
  analysis::ViolationLog Violations;
  analysis::DoubleCheckerOptions Opts;
  Opts.CollectEveryTx = 1024;
  Opts.MaxLiveTxs = 8192; // Same bounded-live-graph regime for every row.
  // This round-robin harness multiplexes the logical threads onto one OS
  // thread, so stripe handoffs stay in one core's cache: they are counted
  // (icd.idg_lock_handoffs in bench/scaling_threads), not timed.
  auto DC = std::make_unique<analysis::DoubleCheckerRuntime>(P, Opts,
                                                             Violations, Stats);
  rt::Runtime RT(P, DC.get());
  DC->beginRun(RT);

  const ir::Method &Txn = P.Methods[P.findMethod("txn")];
  std::vector<rt::ThreadContext> Tc(Threads);
  std::vector<SplitMix64> Rng;
  for (uint32_t T = 0; T < Threads; ++T) {
    Tc[T].Tid = T;
    Tc[T].RT = &RT;
    Tc[T].Checker = DC.get();
    DC->threadStarted(Tc[T]);
    DC->aboutToBlock(Tc[T]); // Implicit protocol: conflicts are synchronous.
    Rng.emplace_back(T * 9176 + 5);
  }

  using Clock = std::chrono::steady_clock;
  uint64_t SharedNs = 0, SharedOps = 0, TxEndNs = 0, TxEnds = 0;
  const uint64_t StepsPerThread = TxPerThread * AccessesPerTx;
  auto Begin = Clock::now();
  for (uint64_t Step = 0; Step < StepsPerThread; ++Step) {
    const uint64_t Tx = Step / AccessesPerTx;
    const bool SharedTx = Tx % SharedTxPeriod == SharedTxPeriod - 1;
    const uint64_t Generation = Tx / SharedTxPeriod;
    for (uint32_t T = 0; T < Threads; ++T) {
      if (Step % AccessesPerTx == 0) {
        if (Step != 0) {
          auto T0 = Clock::now();
          DC->txEnd(Tc[T], Txn);
          TxEndNs += static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - T0)
                  .count());
          ++TxEnds;
        }
        DC->txBegin(Tc[T], Txn);
      }
      rt::AccessInfo Info;
      bool TimedShared = false;
      if (SharedTx && Step % AccessesPerTx == 1) {
        if (S == Shape::CycleFree) {
          // Staged pipeline: even generations write stage T, odd
          // generations read stage T-1. Thread 0 skips read generations
          // (no wraparound — the ring would close a cycle).
          const bool WriteGen = Generation % 2 == 0;
          if (!WriteGen && T == 0) {
            Info.Obj = static_cast<rt::ObjectId>(Threads + HotObjects + T);
            Info.IsWrite = true;
          } else {
            Info.Obj = static_cast<rt::ObjectId>(WriteGen ? T : T - 1);
            Info.IsWrite = WriteGen;
            TimedShared = true;
          }
        } else {
          // Ping-pong read-modify-write halves on two hot objects.
          Info.Obj =
              static_cast<rt::ObjectId>(Threads + Rng[T].nextBelow(HotObjects));
          Info.IsWrite = Generation % 2 == 1;
          TimedShared = true;
        }
      } else {
        Info.Obj = static_cast<rt::ObjectId>(Threads + HotObjects + T);
        Info.IsWrite = Step % 2 == 1;
      }
      Info.Addr = RT.heap().fieldAddr(Info.Obj, Rng[T].nextBelow(2));
      Info.Flags = ir::IF_OctetBarrier | ir::IF_LogAccess;
      if (TimedShared && Threads > 1) {
        auto T0 = Clock::now();
        DC->instrumentedAccess(Tc[T], Info, [] {});
        SharedNs += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 T0)
                .count());
        ++SharedOps;
      } else {
        DC->instrumentedAccess(Tc[T], Info, [] {});
      }
    }
  }
  for (uint32_t T = 0; T < Threads; ++T) {
    DC->txEnd(Tc[T], Txn);
    DC->unblocked(Tc[T]);
    DC->threadExiting(Tc[T]);
  }
  DC->endRun(RT); // Drain the collector inside the timed region.
  auto End = Clock::now();

  SweepPoint Pt;
  Pt.Seconds = std::chrono::duration<double>(End - Begin).count();
  Pt.TxPerSec = static_cast<double>(Threads) * TxPerThread / Pt.Seconds;
  Pt.SharedNsAvg =
      SharedOps ? static_cast<double>(SharedNs) / SharedOps : 0;
  Pt.TxEndNsAvg = TxEnds ? static_cast<double>(TxEndNs) / TxEnds : 0;
  Pt.CrossEdges = Stats.value("icd.idg_cross_edges");
  Pt.IncEdges = Stats.value("icd.inc_edges");
  Pt.Reorders = Stats.value("icd.reorders");
  Pt.Sccs = Stats.value("icd.sccs");
  Pt.CyclesIncremental = Stats.value("icd.cycles_incremental");
  return Pt;
}

SweepPoint median(std::vector<SweepPoint> Runs) {
  std::sort(Runs.begin(), Runs.end(),
            [](const SweepPoint &A, const SweepPoint &B) {
              return A.Seconds < B.Seconds;
            });
  return Runs[Runs.size() / 2];
}

const char *shapeName(Shape S) {
  return S == Shape::CycleFree ? "cycle-free" : "cycle-heavy";
}

//===----------------------------------------------------------------------===//
// Contention isolation: real OS threads on the raw detector
//===----------------------------------------------------------------------===//
//
// The sweep above multiplexes logical threads onto one OS thread, so it
// can never show detector-lock *contention* — only per-edge work. This
// section hammers IncrementalCycleDetector::addEdge directly from real
// concurrent threads with an all-consistent cross-edge stream (every node
// pre-created in key order, every edge pointing up the order): zero
// reorders, so every lock wait would be pure fast-path serialization.
// Each row records icd.lock_waits / icd.seqlock_retries /
// icd.fastpath_lockfree — the structural claim is lock_waits == 0.

struct ContentionPoint {
  double Seconds = 0;
  double EdgesPerSec = 0;
  uint64_t LockWaits = 0;
  uint64_t LockWaitNs = 0;
  uint64_t SeqRetries = 0;
  uint64_t FastpathLockfree = 0;
};

ContentionPoint runContention(uint32_t Threads, uint64_t TotalEdges) {
  using analysis::IncrementalCycleDetector;
  using analysis::Transaction;
  IncrementalCycleDetector D(IncrementalCycleDetector::Options{});

  constexpr uint32_t Universe = 4096;
  std::vector<std::unique_ptr<Transaction>> Owned;
  Owned.reserve(Universe);
  std::vector<Transaction *> Nodes;
  Nodes.reserve(Universe);
  for (uint32_t I = 0; I < Universe; ++I) {
    Owned.push_back(std::make_unique<Transaction>(I + 1, I % Threads, I + 1,
                                                  0, /*Regular=*/true));
    D.addNode(Owned.back().get());
    Nodes.push_back(Owned.back().get());
  }

  const uint64_t EdgesPerThread = std::max<uint64_t>(1, TotalEdges / Threads);
  std::atomic<uint32_t> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  using Clock = std::chrono::steady_clock;
  for (uint32_t T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T * 6271 + 13);
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (uint64_t E = 0; E < EdgesPerThread; ++E) {
        const uint32_t I = Rng.nextBelow(Universe - 1);
        const uint32_t J = I + 1 + Rng.nextBelow(Universe - I - 1);
        IncrementalCycleDetector::ClaimList Claims;
        D.addEdge(Nodes[I], Nodes[J], Claims); // Always key-consistent.
      }
    });
  }
  while (Ready.load() < Threads)
    std::this_thread::yield();
  const auto Begin = Clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  const auto End = Clock::now();

  StatisticRegistry Stats;
  D.flushStats(Stats);
  ContentionPoint Pt;
  Pt.Seconds = std::chrono::duration<double>(End - Begin).count();
  Pt.EdgesPerSec =
      static_cast<double>(EdgesPerThread) * Threads / Pt.Seconds;
  Pt.LockWaits = Stats.value("icd.lock_waits");
  Pt.LockWaitNs = Stats.value("icd.lock_wait_ns");
  Pt.SeqRetries = Stats.value("icd.seqlock_retries");
  Pt.FastpathLockfree = Stats.value("icd.fastpath_lockfree");
  return Pt;
}

ContentionPoint medianContention(std::vector<ContentionPoint> Runs) {
  std::sort(Runs.begin(), Runs.end(),
            [](const ContentionPoint &A, const ContentionPoint &B) {
              return A.Seconds < B.Seconds;
            });
  return Runs[Runs.size() / 2];
}

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = argc > 1 ? argv[1] : "BENCH_icd.json";
  const double Scale = benchScale();
  const unsigned Trials = benchTrials();
  // Strong scaling (same rationale as bench/scaling_threads): each row
  // performs the same total transaction count split across its threads.
  const uint64_t TotalTx =
      std::max<uint64_t>(8 * 256, static_cast<uint64_t>(120000 * Scale));
  std::printf("Cycle detection sweep: incremental order maintenance "
              "(scale %.2f, %llu total tx per row)\n\n",
              Scale, static_cast<unsigned long long>(TotalTx));

  TextTable Table;
  Table.setHeader({"threads", "shape", "tx/s", "edge ns", "txend ns",
                   "cross edges", "reorders", "cycles"});
  JsonRows Json;
  addHostHeader(Json, Scale, Trials);

  struct Combo {
    uint32_t Threads;
    uint64_t TxPerThread;
    Shape S;
    ir::Program P;
    std::vector<SweepPoint> Runs;
  };
  std::vector<Combo> Combos;
  for (uint32_t Threads : {1u, 4u, 8u}) {
    const uint64_t TxPerThread =
        std::max<uint64_t>(2 * SharedTxPeriod, TotalTx / Threads) /
        SharedTxPeriod * SharedTxPeriod;
    for (Shape S : {Shape::CycleFree, Shape::CycleHeavy})
      Combos.push_back(Combo{Threads, TxPerThread, S, benchProgram(Threads), {}});
  }
  // Interleave trials across combos so every row sees the same host noise.
  for (unsigned R = 0; R < Trials; ++R)
    for (Combo &C : Combos)
      C.Runs.push_back(runOnce(C.P, C.Threads, C.TxPerThread, C.S));

  for (Combo &C : Combos) {
    SweepPoint Pt = median(C.Runs);
    Table.addRow({std::to_string(C.Threads), shapeName(C.S),
                  formatWithCommas(static_cast<uint64_t>(Pt.TxPerSec)),
                  formatDouble(Pt.SharedNsAvg, 0),
                  formatDouble(Pt.TxEndNsAvg, 0),
                  formatWithCommas(Pt.CrossEdges),
                  formatWithCommas(Pt.Reorders),
                  formatWithCommas(Pt.CyclesIncremental)});
    Json.beginRow();
    Json.add("threads", static_cast<uint64_t>(C.Threads));
    Json.add("shape", std::string(shapeName(C.S)));
    Json.add("tx_per_thread", C.TxPerThread);
    Json.add("wall_s", Pt.Seconds);
    Json.add("tx_per_s", Pt.TxPerSec);
    Json.add("shared_access_ns", Pt.SharedNsAvg);
    Json.add("txend_ns", Pt.TxEndNsAvg);
    Json.add("cross_edges", Pt.CrossEdges);
    Json.add("inc_edges", Pt.IncEdges);
    Json.add("reorders", Pt.Reorders);
    Json.add("sccs", Pt.Sccs);
    Json.add("cycles", Pt.CyclesIncremental);
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("(edge ns = mean shared-slot access, txend ns = mean "
              "transaction boundary)\n");

  // Contention isolation: real OS threads, all-consistent edges (see the
  // section comment).
  const uint64_t ContentionEdges =
      std::max<uint64_t>(20000, static_cast<uint64_t>(240000 * Scale));
  std::printf("Fast-path contention isolation (real OS threads, "
              "all-consistent cross edges, %llu edges per row)\n\n",
              static_cast<unsigned long long>(ContentionEdges));
  TextTable CTable;
  CTable.setHeader({"threads", "edges/s", "lock waits", "retries",
                    "lock-free edges"});
  const std::vector<uint32_t> ContThreads = {4u, 8u, 16u};
  std::vector<std::vector<ContentionPoint>> CRuns(ContThreads.size());
  for (unsigned R = 0; R < Trials; ++R)
    for (size_t I = 0; I < ContThreads.size(); ++I)
      CRuns[I].push_back(runContention(ContThreads[I], ContentionEdges));
  for (size_t I = 0; I < ContThreads.size(); ++I) {
    ContentionPoint Pt = medianContention(CRuns[I]);
    CTable.addRow({std::to_string(ContThreads[I]),
                   formatWithCommas(static_cast<uint64_t>(Pt.EdgesPerSec)),
                   formatWithCommas(Pt.LockWaits),
                   formatWithCommas(Pt.SeqRetries),
                   formatWithCommas(Pt.FastpathLockfree)});
    Json.beginRow();
    Json.add("threads", static_cast<uint64_t>(ContThreads[I]));
    Json.add("shape", std::string("contention"));
    Json.add("edges", ContentionEdges);
    Json.add("wall_s", Pt.Seconds);
    Json.add("edges_per_s", Pt.EdgesPerSec);
    Json.add("lock_waits", Pt.LockWaits);
    Json.add("lock_wait_ns", Pt.LockWaitNs);
    Json.add("seqlock_retries", Pt.SeqRetries);
    Json.add("fastpath_lockfree", Pt.FastpathLockfree);
  }
  std::printf("%s\n", CTable.render().c_str());
  std::printf("(lock waits are contended detector-lock acquisitions — "
              "structurally 0 on this reorder-free stream)\n");

  if (Json.write(OutPath, "cycle_detection"))
    std::printf("wrote %s\n", OutPath);
  return 0;
}
