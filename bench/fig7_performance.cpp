//===- bench/fig7_performance.cpp - Figure 7 reproduction -----------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 7: run-time of Velodrome, DoubleChecker's single-run
/// mode, and the first and second runs of multi-run mode, normalized to
/// unmodified execution, per compute-bound workload plus the geometric
/// mean. The paper's sub-bars show GC time; our analogue is the checkers'
/// transaction-collector time, reported as a percentage of the run.
///
/// Expected shape (paper: Velodrome 6.1x, single-run 3.6x, first run 1.9x,
/// second run 2.4x): Velodrome's geomean above single-run's, first run the
/// cheapest checker, second run between first and single-run, and xalan6
/// the adversarial outlier where Velodrome wins (§5.3).
///
/// The vc column is the vector-clock engine (DESIGN.md §14) — the raw-speed
/// contender with no dependence graph, no SCC passes, and no replay. The
/// bench asserts that structurally: a vc run must report zero icd.* and
/// pcd.* work.
///
/// Trials are interleaved across every (workload, configuration) pair, as
/// in bench/scaling_threads, so host load bursts hit every column alike.
/// Each trial round normalizes a checker's time by the same round's
/// unmodified time. The record (BENCH_fig7.json, or the path in argv[1])
/// holds, per workload and configuration and for the geomean of each
/// round, the median and the spread (min, max) over rounds.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtils.h"

using namespace dc;
using namespace dc::bench;
using namespace dc::core;

namespace {

/// The timed configurations, in column order; Unmodified is the baseline.
const Mode Configs[] = {Mode::Unmodified, Mode::Velodrome, Mode::SingleRun,
                        Mode::FirstRun,   Mode::SecondRun, Mode::VectorClock};
constexpr size_t NumConfigs = sizeof(Configs) / sizeof(Configs[0]);

/// Transaction-collector counter per configuration, or null.
const char *collectorStat(Mode M) {
  switch (M) {
  case Mode::Velodrome:
    return "velodrome.collector_ns";
  case Mode::SingleRun:
    return "icd.collector_ns";
  case Mode::VectorClock:
    return "vc.collector_ns";
  default:
    return nullptr;
  }
}

struct Spread {
  double Median = 0, Min = 0, Max = 0;
};

Spread spreadOf(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  return {Values[Values.size() / 2], Values.front(), Values.back()};
}

struct WorkloadRuns {
  std::string Name;
  ir::Program P;
  AtomicitySpec Spec;
  /// Second-run input: union of first runs' static information (the
  /// paper unions 10 first-run trials).
  analysis::StaticTransactionInfo Union;
  /// Per configuration, per round: wall seconds and collector share (%).
  std::vector<double> Seconds[NumConfigs];
  std::vector<double> GcPct[NumConfigs];
};

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = argc > 1 ? argv[1] : "BENCH_fig7.json";
  const double Scale = benchScale();
  const unsigned Trials = benchTrials();
  std::printf("Figure 7: normalized execution time "
              "(scale %.2f, median of %u interleaved trials)\n\n",
              Scale, Trials);

  auto ConfigFor = [](Mode M, uint64_t Seed) {
    RunConfig Cfg;
    Cfg.M = M;
    Cfg.RunOpts = perfRunOptions(0x516 + static_cast<uint64_t>(M) + Seed);
    return Cfg;
  };

  std::vector<WorkloadRuns> Runs;
  for (const workloads::WorkloadInfo &W : workloads::all()) {
    if (!W.ComputeBound)
      continue; // The paper excludes elevator, hedc, philo from Fig. 7.
    WorkloadRuns R{W.Name, W.Build(Scale), finalSpecFor(W.Name), {}, {}, {}};
    for (unsigned T = 0; T < Trials; ++T)
      R.Union.merge(
          runChecker(R.P, R.Spec, ConfigFor(Mode::FirstRun, T)).StaticInfo);
    Runs.push_back(std::move(R));
  }

  bool VcGraphFree = true;
  for (unsigned Round = 0; Round < Trials; ++Round)
    for (WorkloadRuns &R : Runs)
      for (size_t C = 0; C < NumConfigs; ++C) {
        RunConfig Cfg = ConfigFor(Configs[C], Round);
        if (Configs[C] == Mode::SecondRun)
          Cfg.StaticInfo = &R.Union;
        RunOutcome O = runChecker(R.P, R.Spec, Cfg);
        const double Secs = O.Result.WallSeconds;
        R.Seconds[C].push_back(Secs);
        const char *Gc = collectorStat(Configs[C]);
        R.GcPct[C].push_back(
            Gc ? 100.0 * (static_cast<double>(O.stat(Gc)) / 1e9) / Secs : 0);
        // The vc column's claim to fame: zero graph/SCC/replay machinery.
        if (Configs[C] == Mode::VectorClock)
          for (const auto &Entry : O.Stats)
            if ((Entry.first.rfind("icd.", 0) == 0 ||
                 Entry.first.rfind("pcd.", 0) == 0) &&
                Entry.second != 0)
              VcGraphFree = false;
      }

  TextTable Table;
  Table.setHeader({"benchmark", "velodrome", "single-run", "first-run",
                   "second-run", "vc", "single gc%", "velo gc%", "vc gc%"});
  JsonRows Json;
  addHostHeader(Json, Scale, Trials);
  auto AddJson = [&](const std::string &Name, Mode M, const Spread &S) {
    Json.beginRow();
    Json.add("benchmark", Name);
    Json.add("config", toString(M));
    Json.add("median", S.Median);
    Json.add("min", S.Min);
    Json.add("max", S.Max);
  };

  // Per configuration, per round: that round's normalized slowdown of each
  // workload, for the per-round geomean.
  std::vector<std::vector<double>> RoundNorms[NumConfigs];
  for (auto &PerConfig : RoundNorms)
    PerConfig.assign(Trials, {});
  for (const WorkloadRuns &R : Runs) {
    std::vector<std::string> Cells = {R.Name};
    for (size_t C = 1; C < NumConfigs; ++C) {
      std::vector<double> Norm;
      for (unsigned Round = 0; Round < Trials; ++Round) {
        Norm.push_back(R.Seconds[C][Round] / R.Seconds[0][Round]);
        RoundNorms[C][Round].push_back(Norm.back());
      }
      Spread S = spreadOf(Norm);
      AddJson(R.Name, Configs[C], S);
      Cells.push_back(formatDouble(S.Median, 2));
    }
    for (Mode M : {Mode::SingleRun, Mode::Velodrome, Mode::VectorClock}) {
      size_t C = std::find(Configs, Configs + NumConfigs, M) - Configs;
      Cells.push_back(formatDouble(spreadOf(R.GcPct[C]).Median, 1));
    }
    Table.addRow(Cells);
  }
  std::vector<std::string> GeoCells = {"geomean"};
  std::vector<std::string> RangeCells = {"(min-max)"};
  for (size_t C = 1; C < NumConfigs; ++C) {
    std::vector<double> Geo;
    for (const std::vector<double> &Norms : RoundNorms[C])
      Geo.push_back(geomean(Norms));
    Spread S = spreadOf(Geo);
    AddJson("geomean", Configs[C], S);
    GeoCells.push_back(formatDouble(S.Median, 2));
    RangeCells.push_back(formatDouble(S.Min, 2) + "-" +
                         formatDouble(S.Max, 2));
  }
  for (auto *Cells : {&GeoCells, &RangeCells}) {
    Cells->insert(Cells->end(), {"-", "-", "-"});
    Table.addRow(*Cells);
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("vc runs with zero icd.*/pcd.* work: %s\n",
              VcGraphFree ? "yes" : "NO (unexpected)");
  std::printf("paper (geomean): velodrome 6.1x, single-run 3.6x, "
              "first run 1.9x, second run 2.4x\n");
  if (Json.write(OutPath, "fig7_performance"))
    std::printf("wrote %s\n", OutPath);
  return VcGraphFree ? 0 : 1;
}
