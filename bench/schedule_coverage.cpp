//===- bench/schedule_coverage.cpp - Scheduling-strategy coverage ---------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Schedule-coverage counter for the three scheduling strategies behind
/// RunOptions (random walk, PCT, bounded-exhaustive DFS): drive the same
/// corpus of generated fuzzer programs with an equal per-program run
/// budget under each strategy and count what the runs buy —
///
///  * distinct schedules (gate admission sequences) actually executed,
///  * runs whose recorded trace the ground-truth oracle proves
///    non-serializable (the events the fuzzer and the checkers hunt),
///  * distinct violating schedules.
///
/// The checked-in artifact shows the trade-offs: the exhaustive explorer
/// never repeats a schedule; the uniform walk preempts at every
/// instruction and so trips dense depth-2 races most often on these tiny
/// programs; PCT repeats priority orders (few distinct schedules) but is
/// the only strategy whose hit probability is *guaranteed*, which is what
/// the RdSh regression test leans on. Results go to a table on stdout and
/// a BENCH_schedule_coverage.json artifact.
///
/// Usage: schedule_coverage [output.json]  (default
/// BENCH_schedule_coverage.json; tools/ci.sh smoke-runs it at a tiny
/// DC_BENCH_SCALE with a throwaway output path).
///
//===----------------------------------------------------------------------===//

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "bench/BenchUtils.h"
#include "support/StringUtils.h"
#include "tools/FuzzLib.h"

using namespace dc;
using namespace dc::bench;

namespace {

struct Coverage {
  uint64_t Runs = 0;
  uint64_t ViolatingRuns = 0;
  std::set<std::vector<uint32_t>> Distinct;
  std::set<std::vector<uint32_t>> DistinctViolating;
  double Seconds = 0;
};

void account(Coverage &C, const ir::Program &P,
             const oracle::RecordedTrace &T) {
  ++C.Runs;
  C.Distinct.insert(T.Schedule);
  if (!oracle::decideSerializability(P, T).Serializable) {
    ++C.ViolatingRuns;
    C.DistinctViolating.insert(T.Schedule);
  }
}

rt::RunOptions baseOpts(uint64_t Seed) {
  rt::RunOptions RO;
  RO.Deterministic = true;
  RO.ScheduleSeed = Seed;
  RO.MaxSteps = 1ull << 20;
  return RO;
}

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = argc > 1 ? argv[1] : "BENCH_schedule_coverage.json";
  const double Scale = benchScale();
  const uint64_t Programs = 6;
  const uint64_t RunsPerProgram =
      std::max<uint64_t>(12, static_cast<uint64_t>(96 * Scale));

  std::printf("schedule coverage: random vs pct vs exhaustive\n"
              "scale %.2f, %llu generated programs x %llu runs each\n\n",
              Scale, static_cast<unsigned long long>(Programs),
              static_cast<unsigned long long>(RunsPerProgram));

  Coverage Cov[3]; // random, pct, exhaustive
  const char *Names[3] = {"random", "pct", "exhaustive"};

  using Clock = std::chrono::steady_clock;
  for (uint64_t PI = 0; PI < Programs; ++PI) {
    fuzz::ProgSpec Spec = fuzz::randomSpec(1000 + PI);
    ir::Program P = Spec.build();
    core::AtomicitySpec AS = core::AtomicitySpec::initial(P);

    for (int S = 0; S < 2; ++S) { // Seeded strategies.
      auto T0 = Clock::now();
      for (uint64_t R = 0; R < RunsPerProgram; ++R) {
        rt::RunOptions RO = baseOpts(PI * 7919 + R);
        if (S == 1) {
          RO.Strategy = rt::ScheduleStrategy::Pct;
          RO.PctChangePoints = 3;
          RO.PctExpectedSteps = 128;
        }
        account(Cov[S], P, oracle::recordTrace(P, AS, RO));
      }
      Cov[S].Seconds += std::chrono::duration<double>(Clock::now() - T0).count();
    }

    {
      rt::ExhaustiveExplorer::Options ExOpts;
      ExOpts.PreemptionBound = 2;
      ExOpts.MaxRuns = RunsPerProgram;
      rt::ExhaustiveExplorer Ex(ExOpts);
      auto T0 = Clock::now();
      while (Ex.beginRun()) {
        rt::RunOptions RO = baseOpts(0);
        RO.CustomScheduler = &Ex;
        oracle::RecordedTrace T = oracle::recordTrace(P, AS, RO);
        Ex.endRun();
        account(Cov[2], P, T);
      }
      Cov[2].Seconds += std::chrono::duration<double>(Clock::now() - T0).count();
    }
  }

  TextTable Table;
  Table.setHeader({"strategy", "runs", "distinct", "violating",
                   "distinct viol", "viol/run", "runs/s"});
  JsonRows Json;
  addHostHeader(Json, Scale, /*Trials=*/1); // One deterministic pass.
  for (int S = 0; S < 3; ++S) {
    const Coverage &C = Cov[S];
    const double ViolRate =
        C.Runs ? static_cast<double>(C.ViolatingRuns) / C.Runs : 0;
    Table.addRow({Names[S], std::to_string(C.Runs),
                  std::to_string(C.Distinct.size()),
                  std::to_string(C.ViolatingRuns),
                  std::to_string(C.DistinctViolating.size()),
                  formatDouble(ViolRate, 3),
                  formatWithCommas(static_cast<uint64_t>(
                      C.Seconds > 0 ? C.Runs / C.Seconds : 0))});
    Json.beginRow();
    Json.add("strategy", std::string(Names[S]));
    Json.add("programs", Programs);
    Json.add("runs", C.Runs);
    Json.add("distinct_schedules", static_cast<uint64_t>(C.Distinct.size()));
    Json.add("violating_runs", C.ViolatingRuns);
    Json.add("distinct_violating",
             static_cast<uint64_t>(C.DistinctViolating.size()));
    Json.add("violations_per_run", ViolRate);
    Json.add("wall_s", C.Seconds);
  }
  std::printf("%s\n", Table.render().c_str());
  if (!Json.write(OutPath, "schedule_coverage"))
    std::fprintf(stderr, "cannot write %s\n", OutPath);
  else
    std::printf("\nresults written to %s\n", OutPath);
  return 0;
}
