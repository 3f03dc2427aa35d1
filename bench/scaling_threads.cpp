//===- bench/scaling_threads.cpp - Sharded-IDG scaling sweep --------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded IDG hot path (inline PCD replay, inline collection) as
/// thread count grows, next to the vector-clock engine on the same
/// workload.
///
/// The harness drives DoubleCheckerRuntime's hooks directly from one OS
/// thread, round-robining T logical threads one access at a time — the
/// finest possible interleaving, with none of the interpreter scheduler's
/// context-switch overhead, so the measurement isolates the checker hot
/// path itself. All logical threads are parked in the Octet blocked state,
/// so cross-thread conflicts resolve synchronously through the implicit
/// protocol. The workload is the paper's common shape: fifteen of every
/// sixteen transactions touch only thread-private fields (where the
/// sharded path never leaves its own stripe, DESIGN.md §2/§7); the
/// sixteenth writes a random shared object, forcing Octet conflicts and
/// cross edges.
///
/// The vc columns run the same round-robin workload through the
/// vector-clock engine (DESIGN.md §14) — no Octet protocol, no dependence
/// graph, one engine lock — as the raw-speed reference the sharded path is
/// chasing. Expect multi-thread rows below the 1-thread row: the 1-thread
/// row has no cross-thread conflicts at all — no Octet coordination, no
/// cross edges, no reorders, no PCD replay — and with every logical thread
/// multiplexed onto one OS thread that conflict analysis is pure added
/// latency rather than parallel work. The multi-thread rows should be
/// compared against each other and against their own history, not against
/// the conflict-free 1-thread row.
///
//===----------------------------------------------------------------------===//

#include <chrono>

#include "analysis/DoubleChecker.h"
#include "bench/BenchUtils.h"
#include "ir/Builder.h"
#include "support/Rng.h"
#include "vc/VectorClockChecker.h"

using namespace dc;
using namespace dc::bench;

namespace {

constexpr uint32_t SharedObjects = 16;
constexpr uint32_t AccessesPerTx = 3;
constexpr uint32_t SharedTxPeriod = 16; // 1 in 16 transactions is shared.

ir::Program benchProgram(uint32_t Threads) {
  ir::ProgramBuilder B("scaling");
  B.addPool("objs", SharedObjects + Threads, 2);
  B.beginMethod("txn", true).work(1).endMethod();
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  for (uint32_t T = 0; T < Threads; ++T)
    B.addThread(Main);
  return B.build();
}

struct SweepPoint {
  double Seconds = 0;
  double TxPerSec = 0;
  double EdgesPerSec = 0;
  uint64_t CrossEdges = 0;
  uint64_t Handoffs = 0;
  uint64_t Sccs = 0;
  // Incremental cycle detection (DESIGN.md §12): the reorder count
  // profiles how often a cross edge actually arrived order-inconsistent.
  uint64_t IcdReorders = 0;
  // Contention on the detector's internal lock: how often a cross-edge
  // writer / retire actually blocked, and for how long in total. This is
  // the one serialization point the sharded design left in the cross-edge
  // path, so it is the first suspect when edges/s stops scaling.
  uint64_t IcdLockWaits = 0;
  uint64_t IcdLockWaitNs = 0;
  // Octet coordination profile (DESIGN.md §11). This harness keeps every
  // logical thread in the blocked state, so all conflicts resolve through
  // the implicit protocol: explicit roundtrips, spins, and parks should
  // stay zero — nonzero values here mean the workload changed shape.
  uint64_t Conflicting = 0;
  uint64_t ExplicitRoundtrips = 0;
  uint64_t ImplicitRoundtrips = 0;
  uint64_t WaitSpins = 0;
  uint64_t Parks = 0;
};

SweepPoint runOnce(const ir::Program &P, uint32_t Threads,
                   uint64_t TxPerThread) {
  StatisticRegistry Stats;
  analysis::ViolationLog Violations;
  analysis::DoubleCheckerOptions Opts;
  Opts.CollectEveryTx = 1024; // Keep the live graph small.
  // Bound the live graph: a breached budget triggers eager inline
  // collections at tx boundaries, so every row runs in the same
  // bounded-live-graph regime.
  Opts.MaxLiveTxs = 8192;
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

  const uint64_t StepsPerThread = TxPerThread * AccessesPerTx;
  auto Begin = std::chrono::steady_clock::now();
  for (uint64_t Step = 0; Step < StepsPerThread; ++Step) {
    for (uint32_t T = 0; T < Threads; ++T) {
      if (Step % AccessesPerTx == 0) {
        if (Step != 0)
          DC->txEnd(Tc[T], Txn);
        DC->txBegin(Tc[T], Txn);
      }
      const bool SharedTx =
          (Step / AccessesPerTx) % SharedTxPeriod == SharedTxPeriod - 1;
      rt::AccessInfo Info;
      // Shared transactions write one random shared object (write-only
      // sharing: ping-pongs WrEx ownership without RdSh upgrade storms);
      // everything else stays on the thread's own object.
      Info.Obj = SharedTx && Step % AccessesPerTx == 1
                     ? static_cast<rt::ObjectId>(
                           Rng[T].nextBelow(SharedObjects))
                     : static_cast<rt::ObjectId>(SharedObjects + T);
      Info.Addr = RT.heap().fieldAddr(Info.Obj, Rng[T].nextBelow(2));
      Info.IsWrite = SharedTx || Step % 2 == 1;
      Info.Flags = ir::IF_OctetBarrier | ir::IF_LogAccess;
      DC->instrumentedAccess(Tc[T], Info, [] {});
    }
  }
  for (uint32_t T = 0; T < Threads; ++T) {
    DC->txEnd(Tc[T], Txn);
    DC->unblocked(Tc[T]);
    DC->threadExiting(Tc[T]);
  }
  DC->endRun(RT); // Drains the collector: deferred work stays inside the
                  // timed region.
  auto End = std::chrono::steady_clock::now();

  SweepPoint Pt;
  Pt.Seconds = std::chrono::duration<double>(End - Begin).count();
  Pt.TxPerSec = static_cast<double>(Threads) * TxPerThread / Pt.Seconds;
  Pt.CrossEdges = Stats.value("icd.idg_cross_edges");
  Pt.EdgesPerSec = static_cast<double>(Pt.CrossEdges) / Pt.Seconds;
  Pt.Handoffs = Stats.value("icd.idg_lock_handoffs");
  Pt.Sccs = Stats.value("icd.sccs");
  Pt.IcdReorders = Stats.value("icd.reorders");
  Pt.IcdLockWaits = Stats.value("icd.lock_waits");
  Pt.IcdLockWaitNs = Stats.value("icd.lock_wait_ns");
  Pt.Conflicting = Stats.value("octet.conflicting");
  Pt.ExplicitRoundtrips = Stats.value("octet.explicit_roundtrips");
  Pt.ImplicitRoundtrips = Stats.value("octet.implicit_roundtrips");
  Pt.WaitSpins = Stats.value("octet.wait_spins");
  Pt.Parks = Stats.value("octet.parks");
  return Pt;
}

/// Same round-robin driver against the vector-clock engine. No
/// aboutToBlock: the engine has no Octet protocol, so the blocked-state
/// parking is meaningless to it. Accesses carry IF_VelodromeBarrier — the
/// filter the vc (and Velodrome) instrumentation path selects on.
SweepPoint runOnceVc(const ir::Program &P, uint32_t Threads,
                     uint64_t TxPerThread) {
  StatisticRegistry Stats;
  analysis::ViolationLog Violations;
  vc::VectorClockOptions Opts;
  Opts.CollectEveryTx = 1024; // Match the DoubleChecker rows' cadence.
  auto VC = std::make_unique<vc::VectorClockRuntime>(P, Opts, Violations,
                                                     Stats);
  rt::Runtime RT(P, VC.get());
  VC->beginRun(RT);

  const ir::Method &Txn = P.Methods[P.findMethod("txn")];
  std::vector<rt::ThreadContext> Tc(Threads);
  std::vector<SplitMix64> Rng;
  for (uint32_t T = 0; T < Threads; ++T) {
    Tc[T].Tid = T;
    Tc[T].RT = &RT;
    Tc[T].Checker = VC.get();
    VC->threadStarted(Tc[T]);
    Rng.emplace_back(T * 9176 + 5);
  }

  const uint64_t StepsPerThread = TxPerThread * AccessesPerTx;
  auto Begin = std::chrono::steady_clock::now();
  for (uint64_t Step = 0; Step < StepsPerThread; ++Step) {
    for (uint32_t T = 0; T < Threads; ++T) {
      if (Step % AccessesPerTx == 0) {
        if (Step != 0)
          VC->txEnd(Tc[T], Txn);
        VC->txBegin(Tc[T], Txn);
      }
      const bool SharedTx =
          (Step / AccessesPerTx) % SharedTxPeriod == SharedTxPeriod - 1;
      rt::AccessInfo Info;
      Info.Obj = SharedTx && Step % AccessesPerTx == 1
                     ? static_cast<rt::ObjectId>(
                           Rng[T].nextBelow(SharedObjects))
                     : static_cast<rt::ObjectId>(SharedObjects + T);
      Info.Addr = RT.heap().fieldAddr(Info.Obj, Rng[T].nextBelow(2));
      Info.IsWrite = SharedTx || Step % 2 == 1;
      Info.Flags = ir::IF_VelodromeBarrier;
      VC->instrumentedAccess(Tc[T], Info, [] {});
    }
  }
  for (uint32_t T = 0; T < Threads; ++T) {
    VC->txEnd(Tc[T], Txn);
    VC->threadExiting(Tc[T]);
  }
  VC->endRun(RT);
  auto End = std::chrono::steady_clock::now();

  SweepPoint Pt;
  Pt.Seconds = std::chrono::duration<double>(End - Begin).count();
  Pt.TxPerSec = static_cast<double>(Threads) * TxPerThread / Pt.Seconds;
  Pt.CrossEdges = Stats.value("vc.cross_edges");
  Pt.EdgesPerSec = static_cast<double>(Pt.CrossEdges) / Pt.Seconds;
  return Pt;
}

SweepPoint median(std::vector<SweepPoint> Runs) {
  std::sort(Runs.begin(), Runs.end(),
            [](const SweepPoint &A, const SweepPoint &B) {
              return A.Seconds < B.Seconds;
            });
  return Runs[Runs.size() / 2];
}

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = argc > 1 ? argv[1] : "BENCH_scaling.json";
  const double Scale = benchScale();
  const unsigned Trials = benchTrials();
  // Strong scaling: every row performs the same *total* transaction count,
  // split across its threads. With per-thread work fixed instead (the old
  // shape), the 1-thread row finished in ~25 ms — short enough that its
  // throughput was mostly scheduler lottery on this single-core host, and
  // row-to-row comparisons (is 4T above 1T?) flipped sign between runs.
  const uint64_t TotalTx =
      std::max<uint64_t>(8 * 512, static_cast<uint64_t>(200000 * Scale));
  std::printf("IDG scaling sweep: sharded hot path vs the vector-clock "
              "engine (scale %.2f, %llu total tx per row)\n\n",
              Scale, static_cast<unsigned long long>(TotalTx));

  TextTable Table;
  Table.setHeader({"threads", "dc wall s", "vc wall s", "dc tx/s", "vc tx/s",
                   "dc edges/s", "conflicts", "icd reorders",
                   "icd lock waits"});
  JsonRows Json;
  addHostHeader(Json, Scale, Trials);

  const std::vector<uint32_t> Rows = {1u, 2u, 4u, 8u};
  // Two configurations per row: the default sharded IDG and the
  // vector-clock engine (the graph-free reference point).
  //
  // Trials are interleaved across every (row, configuration) combination
  // rather than run combination-by-combination: on a shared host, load
  // arrives in bursts, and back-to-back trials of one row sample only one
  // burst. Interleaving gives every row the same exposure to the host's
  // noise, which is what makes the row-vs-row comparison (is 4T above
  // 1T?) stable between recordings.
  struct Combo {
    uint32_t Threads;
    uint64_t TxPerThread;
    bool Vc;
    ir::Program P;
    std::vector<SweepPoint> Runs;
  };
  std::vector<Combo> Combos;
  for (uint32_t Threads : Rows) {
    const uint64_t TxPerThread =
        std::max<uint64_t>(SharedTxPeriod, TotalTx / Threads) /
        SharedTxPeriod * SharedTxPeriod;
    for (bool Vc : {false, true})
      Combos.push_back(
          Combo{Threads, TxPerThread, Vc, benchProgram(Threads), {}});
  }
  for (unsigned R = 0; R < Trials; ++R)
    for (Combo &C : Combos)
      C.Runs.push_back(C.Vc ? runOnceVc(C.P, C.Threads, C.TxPerThread)
                            : runOnce(C.P, C.Threads, C.TxPerThread));

  for (size_t Row = 0; Row < Rows.size(); ++Row) {
    const uint32_t Threads = Rows[Row];
    const uint64_t TxPerThread = Combos[Row * 2].TxPerThread;
    SweepPoint Dc = median(Combos[Row * 2].Runs);
    SweepPoint Vc = median(Combos[Row * 2 + 1].Runs);
    Table.addRow({std::to_string(Threads), formatDouble(Dc.Seconds, 3),
                  formatDouble(Vc.Seconds, 3),
                  formatWithCommas(static_cast<uint64_t>(Dc.TxPerSec)),
                  formatWithCommas(static_cast<uint64_t>(Vc.TxPerSec)),
                  formatWithCommas(static_cast<uint64_t>(Dc.EdgesPerSec)),
                  formatWithCommas(Dc.Conflicting),
                  formatWithCommas(Dc.IcdReorders),
                  formatWithCommas(Dc.IcdLockWaits)});
    Json.beginRow();
    Json.add("threads", static_cast<uint64_t>(Threads));
    Json.add("tx_per_thread", TxPerThread);
    Json.add("sharded_wall_s", Dc.Seconds);
    Json.add("vc_wall_s", Vc.Seconds);
    Json.add("sharded_tx_per_s", Dc.TxPerSec);
    Json.add("vc_tx_per_s", Vc.TxPerSec);
    Json.add("vc_cross_edges", Vc.CrossEdges);
    Json.add("sharded_edges_per_s", Dc.EdgesPerSec);
    Json.add("sharded_lock_handoffs", Dc.Handoffs);
    Json.add("sharded_sccs", Dc.Sccs);
    Json.add("sharded_icd_reorders", Dc.IcdReorders);
    Json.add("sharded_icd_lock_waits", Dc.IcdLockWaits);
    Json.add("sharded_icd_lock_wait_ns", Dc.IcdLockWaitNs);
    Json.add("sharded_octet_conflicting", Dc.Conflicting);
    Json.add("sharded_explicit_roundtrips", Dc.ExplicitRoundtrips);
    Json.add("sharded_implicit_roundtrips", Dc.ImplicitRoundtrips);
    Json.add("sharded_wait_spins", Dc.WaitSpins);
    Json.add("sharded_parks", Dc.Parks);
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("(dc = DoubleChecker's sharded hot path; vc = the graph-free "
              "vector-clock engine; identical total work per row)\n");
  if (Json.write(OutPath, "scaling_threads"))
    std::printf("wrote %s\n", OutPath);
  return 0;
}
