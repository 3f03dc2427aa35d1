//===- bench/octet_coordination.cpp - Octet roundtrip microbench ----------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pipelined Octet coordination (DESIGN.md §11), measured on the
/// protocol's worst case: RdSh->WrEx, which needs a roundtrip with *every*
/// other thread. T real OS threads run a read/write ping-pong on one
/// object: the responders each read it (driving it through RdEx into RdSh),
/// then the requester writes it, paying one coordination with T-1 executing
/// responders. The fan-out posts all T-1 requests up front and waits for
/// them together, spinning then parking.
///
/// Reported per thread count: the requester-observed write latency
/// (median-of-trials mean over iterations), full-cycle throughput, and the
/// octet.* coordination counters (roundtrips by path, spins, parks,
/// fan-out batch size). T=1 has no responders and serves as the
/// barrier-overhead floor; T=2 degenerates to a single RdEx->WrEx
/// roundtrip.
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <thread>

#include "bench/BenchUtils.h"
#include "ir/Builder.h"
#include "octet/OctetManager.h"
#include "rt/Runtime.h"

using namespace dc;
using namespace dc::bench;

namespace {

ir::Program benchProgram(uint32_t Threads) {
  ir::ProgramBuilder B("octetbench");
  B.addPool("objs", 4, 1);
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  for (uint32_t T = 0; T < Threads; ++T)
    B.addThread(Main);
  return B.build();
}

struct Point {
  double Seconds = 0;      ///< Whole ping-pong loop.
  double WriteLatencyUs = 0; ///< Mean requester-observed write latency.
  double CyclesPerSec = 0;
  uint64_t ExplicitRoundtrips = 0;
  uint64_t ImplicitRoundtrips = 0;
  uint64_t WaitSpins = 0;
  uint64_t Parks = 0;
  double AvgBatch = 0; ///< Responders per fan-out batch.
};

Point runOnce(const ir::Program &P, uint32_t Threads, uint64_t Iters) {
  rt::Runtime RT(P, nullptr);
  StatisticRegistry Stats;
  octet::OctetManager Manager(RT.heap(), Threads, nullptr, Stats);

  std::atomic<uint64_t> Gen{0};      // Requester bumps; responders read once.
  std::atomic<uint64_t> ReadAcks{0}; // Total responder reads completed.
  std::atomic<bool> Stop{false};
  constexpr rt::ObjectId Obj = 0;

  std::vector<std::thread> Responders;
  for (uint32_t T = 1; T < Threads; ++T) {
    Responders.emplace_back([&, T] {
      rt::ThreadContext TC;
      TC.Tid = T;
      TC.RT = &RT;
      Manager.threadStarted(T);
      uint64_t Seen = 0;
      while (!Stop.load(std::memory_order_acquire)) {
        Manager.pollSafePoint(T);
        if (Seen < Gen.load(std::memory_order_acquire)) {
          Manager.readBarrier(TC, Obj);
          ++Seen;
          ReadAcks.fetch_add(1, std::memory_order_acq_rel);
        }
        std::this_thread::yield();
      }
      Manager.threadExited(T);
    });
  }

  rt::ThreadContext TC;
  TC.Tid = 0;
  TC.RT = &RT;
  Manager.threadStarted(0);

  std::chrono::steady_clock::duration InWrite{0};
  auto Begin = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I) {
    // Read phase: every responder reads the object once (WrEx(0) -> RdEx ->
    // RdSh); the requester answers their roundtrips from its wait loop.
    Gen.fetch_add(1, std::memory_order_acq_rel);
    const uint64_t Want = (I + 1) * (Threads - 1);
    while (ReadAcks.load(std::memory_order_acquire) < Want) {
      Manager.pollSafePoint(0);
      std::this_thread::yield();
    }
    // Write phase: the timed coordination — RdSh->WrEx against every other
    // thread (RdEx->WrEx when there is a single responder).
    auto W0 = std::chrono::steady_clock::now();
    Manager.writeBarrier(TC, Obj);
    InWrite += std::chrono::steady_clock::now() - W0;
  }
  auto End = std::chrono::steady_clock::now();

  Stop.store(true, std::memory_order_release);
  Manager.threadExited(0);
  for (std::thread &R : Responders)
    R.join();
  Manager.flushStatistics();

  Point Pt;
  Pt.Seconds = std::chrono::duration<double>(End - Begin).count();
  Pt.WriteLatencyUs =
      std::chrono::duration<double, std::micro>(InWrite).count() /
      static_cast<double>(Iters);
  Pt.CyclesPerSec = static_cast<double>(Iters) / Pt.Seconds;
  Pt.ExplicitRoundtrips = Stats.value("octet.explicit_roundtrips");
  Pt.ImplicitRoundtrips = Stats.value("octet.implicit_roundtrips");
  Pt.WaitSpins = Stats.value("octet.wait_spins");
  Pt.Parks = Stats.value("octet.parks");
  uint64_t Batches = Stats.value("octet.fanout_batches");
  Pt.AvgBatch = Batches == 0 ? 0
                             : static_cast<double>(
                                   Stats.value("octet.fanout_responders")) /
                                   static_cast<double>(Batches);
  return Pt;
}

Point sweep(uint32_t Threads, uint64_t Iters, unsigned Trials) {
  ir::Program P = benchProgram(Threads);
  std::vector<Point> Runs;
  for (unsigned R = 0; R < Trials; ++R)
    Runs.push_back(runOnce(P, Threads, Iters));
  std::sort(Runs.begin(), Runs.end(), [](const Point &A, const Point &B) {
    return A.WriteLatencyUs < B.WriteLatencyUs;
  });
  return Runs[Runs.size() / 2];
}

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = argc > 1 ? argv[1] : "BENCH_octet.json";
  const double Scale = benchScale();
  const unsigned Trials = benchTrials();
  const uint64_t Iters =
      std::max<uint64_t>(32, static_cast<uint64_t>(800 * Scale));
  std::printf("Octet coordination ping-pong: pipelined fan-out (scale "
              "%.2f, %llu cycles)\n\n",
              Scale, static_cast<unsigned long long>(Iters));

  TextTable Table;
  Table.setHeader({"threads", "write us", "cyc/s", "explicit", "implicit",
                   "spins", "parks", "avg batch"});
  JsonRows Json;
  addHostHeader(Json, Scale, Trials);

  for (uint32_t Threads : {1u, 2u, 4u, 8u}) {
    Point Pt = sweep(Threads, Iters, Trials);
    Table.addRow({std::to_string(Threads), formatDouble(Pt.WriteLatencyUs, 1),
                  formatWithCommas(static_cast<uint64_t>(Pt.CyclesPerSec)),
                  formatWithCommas(Pt.ExplicitRoundtrips),
                  formatWithCommas(Pt.ImplicitRoundtrips),
                  formatWithCommas(Pt.WaitSpins), formatWithCommas(Pt.Parks),
                  formatDouble(Pt.AvgBatch, 2)});
    Json.beginRow();
    Json.add("threads", static_cast<uint64_t>(Threads));
    Json.add("cycles", Iters);
    Json.add("write_us", Pt.WriteLatencyUs);
    Json.add("cycles_per_s", Pt.CyclesPerSec);
    Json.add("explicit_roundtrips", Pt.ExplicitRoundtrips);
    Json.add("implicit_roundtrips", Pt.ImplicitRoundtrips);
    Json.add("wait_spins", Pt.WaitSpins);
    Json.add("parks", Pt.Parks);
    Json.add("avg_batch", Pt.AvgBatch);
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("(write us = requester-observed RdSh->WrEx coordination "
              "latency, mean over cycles, median of %u trials)\n",
              Trials);
  if (Json.write(OutPath, "octet_coordination"))
    std::printf("wrote %s\n", OutPath);
  return 0;
}
