//===- bench/streaming_window.cpp - Service-mode window overhead ----------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what streaming service mode (DESIGN.md §15) costs on top of
/// batch checking: the same workload run with retirement windows at
/// several cadences, normalized to the batch (window-txs = 0) run of the
/// same engine. Each boundary runs a retirement collection, so overhead
/// scales with boundary frequency times what each collection must
/// re-mark: the transactions still reachable from the ones that can gain
/// an in-edge, plus the sealed and field-referenced ones the vc engine
/// keeps. The interesting number for
/// deployments is the cadence where overhead flattens: that is how often a
/// service can afford health snapshots and bounded-lag retirement.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtils.h"

using namespace dc;
using namespace dc::bench;
using namespace dc::core;

int main() {
  const double Scale = benchScale();
  const unsigned Trials = benchTrials();
  std::printf("Streaming-window overhead vs batch (scale %.2f)\n\n", Scale);

  const uint32_t Cadences[] = {16, 64, 256};
  TextTable Table;
  Table.setHeader({"benchmark", "engine", "batch-s", "win16", "win64",
                   "win256", "windows@16"});
  JsonRows Report;
  addHostHeader(Report, Scale, Trials);

  for (const std::string Name : {"tsp", "sor", "moldyn"}) {
    ir::Program P = workloads::build(Name, Scale);
    AtomicitySpec Spec = finalSpecFor(Name);
    for (Mode M : {Mode::SingleRun, Mode::VectorClock}) {
      RunConfig Cfg;
      Cfg.M = M;
      Cfg.RunOpts = perfRunOptions(3);
      TimedResult Batch = runTimed(P, Spec, Cfg, Trials);

      std::vector<double> Rel;
      uint64_t WindowsAtFinest = 0;
      for (uint32_t W : Cadences) {
        RunConfig WCfg = Cfg;
        WCfg.WindowTxs = W;
        TimedResult T = runTimed(P, Spec, WCfg, Trials);
        Rel.push_back(T.MedianSeconds / Batch.MedianSeconds);
        if (W == Cadences[0]) {
          const char *Stat = M == Mode::VectorClock
                                 ? "vc.windows_flushed"
                                 : "governor.windows_flushed";
          WindowsAtFinest = T.Outcome.stat(Stat);
        }
      }
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.3f", Batch.MedianSeconds);
      auto Fmt = [](double X) {
        char B[32];
        std::snprintf(B, sizeof(B), "%.2fx", X);
        return std::string(B);
      };
      Table.addRow({Name, toString(M), Buf, Fmt(Rel[0]), Fmt(Rel[1]),
                    Fmt(Rel[2]), std::to_string(WindowsAtFinest)});
      Report.beginRow();
      Report.add("benchmark", Name);
      Report.add("engine", toString(M));
      Report.add("batch_seconds", Batch.MedianSeconds);
      Report.add("rel_win16", Rel[0]);
      Report.add("rel_win64", Rel[1]);
      Report.add("rel_win256", Rel[2]);
      Report.add("windows_at_16", WindowsAtFinest);
    }
  }

  std::printf("%s\n", Table.render().c_str());
  Report.write("BENCH_streaming_window.json", "streaming_window");
  return 0;
}
