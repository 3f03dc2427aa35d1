//===- bench/logging_throughput.cpp - Log append throughput ---------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The log publication path (DESIGN.md §8) under real OS threads, measured
/// at the component level: a thread-local elision filter, 16-byte packed
/// slots in recycled arena chunks, and one chunk cache per thread.
///
/// Each logged access performs exactly the work DoubleCheckerRuntime::
/// logAccess does — duplicate check, append, LogLen publication — with none
/// of the surrounding checker plumbing. Every row spawns real threads, so
/// the chunk pool's batch refills and the collector's recycling contend
/// the way they do in a checked run.
///
/// Strong scaling: every row performs the same total append count split
/// across its threads, so a row's appends/s is comparable to any other
/// row's. The sweep runs to 256 threads — far past the host's cores — and
/// the number to watch is that ns/append stays flat.
///
/// A ring of live transactions per thread models the deferred collector:
/// logs stay live until the window wraps, so appends stream through the
/// cache hierarchy with a realistic footprint, and retired logs recycle
/// inside the timed region. The window models CollectEveryTx (a *global*
/// budget of 8192 finished transactions), so each thread's share shrinks
/// as threads grow — exactly how the real collector bounds the live graph.
///
/// Usage: logging_throughput [output.json]   (default BENCH_logging.json;
/// tools/ci.sh smoke-runs it at a tiny DC_BENCH_SCALE with a throwaway
/// output path so the checked-in numbers are not clobbered).
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/LogArena.h"
#include "analysis/Transaction.h"
#include "bench/BenchUtils.h"

using namespace dc;
using namespace dc::bench;
using namespace dc::analysis;

namespace {

/// Shared field universe, sized like a real heap; the per-thread filter is
/// 8 KiB regardless. All threads touch the same fields.
constexpr uint32_t NumAddrs = 1u << 18;
constexpr uint32_t AccessesPerTx = 32; // Distinct addrs per tx: no elision.
/// Global live-transaction budget, split across threads (CollectEveryTx's
/// default): each thread keeps totalWindow/Threads transactions live
/// before the oldest is reclaimed.
constexpr uint32_t TotalLiveWindow = 8192;
constexpr uint32_t MinLiveWindow = 16;

struct Point {
  double Seconds = 0;
  uint64_t Records = 0;
  uint64_t ChunkAllocs = 0;
  uint64_t ChunkRecycles = 0;
};

/// One OS thread's private state. Cache-line aligned and heap-allocated
/// per worker so the states themselves cannot false-share — the bench
/// measures the log path's sharing, not the harness's.
struct alignas(64) WorkerState {
  std::vector<std::unique_ptr<Transaction>> Window;
  uint32_t WindowPos = 0;
  uint64_t Epoch = 1;
  uint32_t AddrBase = 0;
  ElisionFilter Filter;
  LogChunkCache Cache;
};

/// Per-thread bench body: TxPerThread transactions of AccessesPerTx
/// appends each.
void workerLoop(uint32_t Tid, uint64_t TxPerThread, WorkerState &St,
                LogChunkPool &Pool, std::atomic<uint64_t> &TxSeq) {
  const uint32_t Window = static_cast<uint32_t>(St.Window.size());
  for (uint64_t Tx = 0; Tx < TxPerThread; ++Tx) {
    // Retire the oldest window entry — the collector's share of the
    // logging cost, inside the timed region.
    std::unique_ptr<Transaction> &Slot = St.Window[St.WindowPos];
    if (Slot != nullptr)
      Slot->Log.releaseTo(Pool);
    Slot = std::make_unique<Transaction>(
        TxSeq.fetch_add(1, std::memory_order_relaxed) + 1, Tid, Tx,
        ir::MethodId(0), /*Regular=*/true);
    Transaction *Cur = Slot.get();
    St.WindowPos = (St.WindowPos + 1) % Window;
    ++St.Epoch;

    for (uint32_t J = 0; J < AccessesPerTx; ++J) {
      // Odd stride over the power-of-two universe: a permutation, so
      // addresses stay distinct within a transaction (no elision), and
      // accesses scatter across the field space the way real heap
      // traffic does instead of scanning cells line-by-line.
      const uint32_t Addr = (St.AddrBase + J * 521) & (NumAddrs - 1);
      const uint32_t Obj = Addr / 4;
      const bool IsWrite = (J & 1) != 0;
      // Mirrors logAccess: filter probe, packed append, LogLen
      // publication.
      if (St.Filter.testAndSet(ElisionFilter::key(Obj, Addr), St.Epoch,
                               IsWrite))
        continue;
      Cur->LogLen.store(Cur->Log.appendAccess(Obj, Addr, IsWrite, &St.Cache),
                        std::memory_order_release);
    }
    // Hop the base by a large odd constant (a full-period walk of the
    // power-of-two universe): successive transactions touch fields far
    // apart, the way real transactions touch objects scattered across the
    // heap.
    St.AddrBase = (St.AddrBase + 104729u) & (NumAddrs - 1);
  }
}

Point runOnce(uint32_t Threads, uint64_t TxPerThread, uint32_t Window) {
  LogChunkPool Pool;
  std::vector<std::unique_ptr<WorkerState>> States;
  for (uint32_t T = 0; T < Threads; ++T) {
    States.push_back(std::make_unique<WorkerState>());
    States[T]->Window.resize(Window);
    States[T]->Cache.attach(&Pool);
  }

  // Every access appends (addresses are distinct within a transaction and
  // epochs advance between them), so the record count is exact without a
  // per-access counter in the timed loop.
  const uint64_t Records =
      TxPerThread * static_cast<uint64_t>(Threads) * AccessesPerTx;
  std::atomic<uint64_t> TxSeq{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      workerLoop(T, TxPerThread, *States[T], Pool, TxSeq);
    });

  auto Begin = std::chrono::steady_clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  // Reclaiming the final window is the collector's steady-state work and
  // stays inside the timing.
  for (uint32_t T = 0; T < Threads; ++T)
    for (auto &Slot : States[T]->Window)
      if (Slot != nullptr)
        Slot->Log.releaseTo(Pool);
  States.clear();
  auto End = std::chrono::steady_clock::now();

  Point Pt;
  Pt.Seconds = std::chrono::duration<double>(End - Begin).count();
  Pt.Records = Records;
  Pt.ChunkAllocs = Pool.chunkAllocs();
  Pt.ChunkRecycles = Pool.chunkRecycles();
  return Pt;
}

Point sweep(uint32_t Threads, uint64_t TxPerThread, uint32_t Window,
            unsigned Trials) {
  std::vector<Point> Runs;
  for (unsigned R = 0; R < Trials; ++R)
    Runs.push_back(runOnce(Threads, TxPerThread, Window));
  std::sort(Runs.begin(), Runs.end(), [](const Point &A, const Point &B) {
    return A.Seconds < B.Seconds;
  });
  return Runs[Runs.size() / 2];
}

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = argc > 1 ? argv[1] : "BENCH_logging.json";
  const double Scale = benchScale();
  const unsigned Trials = benchTrials();
  // Strong scaling: every row performs the same total transaction count,
  // split across its threads, so rows compare directly and the 256-thread
  // row costs what the 1-thread row costs plus the contention under test.
  const uint64_t TotalTx =
      std::max<uint64_t>(2 * TotalLiveWindow,
                         static_cast<uint64_t>(400000 * Scale));
  std::printf("log appends under real OS threads (per-thread chunk arenas)\n"
              "scale %.2f, %llu total tx per row x %u accesses/tx, %u live "
              "txs total, %u hardware threads\n\n",
              Scale, static_cast<unsigned long long>(TotalTx), AccessesPerTx,
              TotalLiveWindow, std::thread::hardware_concurrency());

  TextTable Table;
  Table.setHeader({"threads", "appends/s", "ns/append", "chunk allocs",
                   "chunk recycles"});
  JsonRows Json;
  addHostHeader(Json, Scale, Trials);

  for (uint32_t Threads : {1u, 2u, 4u, 8u, 64u, 128u, 256u}) {
    const uint32_t Window =
        std::max(MinLiveWindow, TotalLiveWindow / Threads);
    const uint64_t TxPerThread =
        std::max<uint64_t>(2 * Window, TotalTx / Threads);
    Point Arena = sweep(Threads, TxPerThread, Window, Trials);
    const double Rate = static_cast<double>(Arena.Records) / Arena.Seconds;
    Table.addRow({std::to_string(Threads),
                  formatWithCommas(static_cast<uint64_t>(Rate)),
                  formatDouble(1e9 / Rate, 2),
                  formatWithCommas(Arena.ChunkAllocs),
                  formatWithCommas(Arena.ChunkRecycles)});
    Json.beginRow();
    Json.add("threads", static_cast<uint64_t>(Threads));
    Json.add("tx_per_thread", TxPerThread);
    Json.add("accesses_per_tx", static_cast<uint64_t>(AccessesPerTx));
    Json.add("live_window", static_cast<uint64_t>(Window));
    Json.add("records", Arena.Records);
    Json.add("arena_wall_s", Arena.Seconds);
    Json.add("arena_appends_per_s", Rate);
    Json.add("arena_ns_per_append", 1e9 / Rate);
    // Packed-path bytes are derived, exactly as endRun's flush derives
    // them: one slot per access record.
    Json.add("arena_bytes_logged", Arena.Records * sizeof(LogSlot));
    Json.add("arena_chunk_allocs", Arena.ChunkAllocs);
    Json.add("arena_chunk_recycles", Arena.ChunkRecycles);
  }

  std::printf("\n%s\n", Table.render().c_str());
  std::printf("(per-append work mirrors DoubleCheckerRuntime::logAccess; "
              "identical total work per row)\n");
  if (Json.write(OutPath, "logging_throughput"))
    std::printf("wrote %s\n", OutPath);
  return 0;
}
