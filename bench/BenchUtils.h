//===- bench/BenchUtils.h - Shared harness helpers --------------*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common machinery for the table/figure harnesses: timed runs with median-
/// of-N trials, geometric means, scale/trial environment knobs
/// (DC_BENCH_SCALE, DC_BENCH_TRIALS — handy for quick smoke runs), and the
/// per-workload final-specification cache (the paper's performance numbers
/// use specifications refined until no violations are reported, §5.1).
///
//===----------------------------------------------------------------------===//

#ifndef DC_BENCH_BENCHUTILS_H
#define DC_BENCH_BENCHUTILS_H

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/Checker.h"
#include "core/Refinement.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

namespace dc {
namespace bench {

/// Workload scale for performance harnesses (DC_BENCH_SCALE overrides).
inline double benchScale() {
  if (const char *Env = std::getenv("DC_BENCH_SCALE"))
    return std::atof(Env);
  return 1.0;
}

/// Trials per configuration (median reported; DC_BENCH_TRIALS overrides).
/// The paper used 25 trials; 3 keeps the whole suite's wall time sane.
inline unsigned benchTrials() {
  if (const char *Env = std::getenv("DC_BENCH_TRIALS"))
    return std::max(1, std::atoi(Env));
  return 3;
}

/// Free-running run options used by all performance harnesses: yielding
/// the (single-core) host every 1024 instructions stands in for truly
/// parallel execution so cross-thread transitions actually occur.
inline rt::RunOptions perfRunOptions(uint64_t Seed) {
  rt::RunOptions Opts;
  Opts.Deterministic = false;
  Opts.ScheduleSeed = Seed;
  Opts.PreemptEveryN = 1024;
  return Opts;
}

/// One timed configuration: median wall seconds over trials, plus the
/// outcome of the median trial (for statistics).
struct TimedResult {
  double MedianSeconds = 0;
  core::RunOutcome Outcome; ///< Outcome of the median-time trial.
};

inline TimedResult runTimed(const ir::Program &P,
                            const core::AtomicitySpec &Spec,
                            core::RunConfig Cfg, unsigned Trials) {
  std::vector<std::pair<double, core::RunOutcome>> Runs;
  Runs.reserve(Trials);
  for (unsigned T = 0; T < Trials; ++T) {
    Cfg.RunOpts.ScheduleSeed += T;
    core::RunOutcome O = core::runChecker(P, Spec, Cfg);
    Runs.emplace_back(O.Result.WallSeconds, std::move(O));
  }
  std::sort(Runs.begin(), Runs.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  TimedResult R;
  R.MedianSeconds = Runs[Runs.size() / 2].first;
  R.Outcome = std::move(Runs[Runs.size() / 2].second);
  return R;
}

inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// Minimal writer for BENCH_*.json artifacts: a top-level object with the
/// harness name, optional header fields, and one "rows" array of flat
/// objects. Enough structure for machine-readable results without a JSON
/// dependency.
class JsonRows {
public:
  void beginRow() { Rows.emplace_back(); }
  void add(const std::string &Key, uint64_t V) {
    Rows.back().emplace_back(Key, std::to_string(V));
  }
  void add(const std::string &Key, double V) {
    Rows.back().emplace_back(Key, number(V));
  }
  void add(const std::string &Key, const std::string &V) {
    Rows.back().emplace_back(Key, "\"" + V + "\"");
  }
  /// A top-level field written between "bench" and "rows".
  void addHeader(const std::string &Key, uint64_t V) {
    Header.emplace_back(Key, std::to_string(V));
  }
  void addHeader(const std::string &Key, double V) {
    Header.emplace_back(Key, number(V));
  }
  void addHeader(const std::string &Key, const std::string &V) {
    Header.emplace_back(Key, "\"" + V + "\"");
  }

  /// Writes {"bench": <name>, <header>, "rows": [...]} to \p Path; returns
  /// success.
  bool write(const std::string &Path, const std::string &Name) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (F == nullptr)
      return false;
    std::fprintf(F, "{\n  \"bench\": \"%s\",\n", Name.c_str());
    for (const auto &KV : Header)
      std::fprintf(F, "  \"%s\": %s,\n", KV.first.c_str(), KV.second.c_str());
    std::fprintf(F, "  \"rows\": [\n");
    for (size_t R = 0; R < Rows.size(); ++R) {
      std::fprintf(F, "    {");
      for (size_t I = 0; I < Rows[R].size(); ++I)
        std::fprintf(F, "%s\"%s\": %s", I ? ", " : "", Rows[R][I].first.c_str(),
                     Rows[R][I].second.c_str());
      std::fprintf(F, "}%s\n", R + 1 < Rows.size() ? "," : "");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    return true;
  }

private:
  static std::string number(double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    return Buf;
  }

  std::vector<std::pair<std::string, std::string>> Header;
  std::vector<std::vector<std::pair<std::string, std::string>>> Rows;
};

/// The checkout's commit (`git describe --always --dirty`), or "unknown"
/// when git or the source tree is unavailable. DC_SOURCE_DIR and
/// DC_BUILD_TYPE come from bench/CMakeLists.txt; perfbench includes this
/// header without them.
inline std::string sourceCommit() {
  std::string Out;
#ifdef DC_SOURCE_DIR
  if (std::FILE *Git = popen("git -C \"" DC_SOURCE_DIR
                             "\" describe --always --dirty 2>/dev/null",
                             "r")) {
    char Buf[128];
    while (std::fgets(Buf, sizeof(Buf), Git) != nullptr)
      Out += Buf;
    pclose(Git);
  }
#endif
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out.empty() ? "unknown" : Out;
}

/// Header fields that say where a BENCH_*.json was recorded: core count,
/// commit, build type, scale and trials.
inline void addHostHeader(JsonRows &Report, double Scale, unsigned Trials) {
  Report.addHeader("nproc",
                   static_cast<uint64_t>(std::thread::hardware_concurrency()));
  Report.addHeader("commit", sourceCommit());
#ifdef DC_BUILD_TYPE
  Report.addHeader("build_type", std::string(DC_BUILD_TYPE));
#endif
  Report.addHeader("scale", Scale);
  Report.addHeader("trials", static_cast<uint64_t>(Trials));
}

/// Derives the refined ("final") specification for \p Name the way §5.1
/// does: iterative refinement with the sound single-run checker, at a small
/// deterministic scale (method names transfer to any scale).
inline core::AtomicitySpec finalSpecFor(const std::string &Name) {
  ir::Program Small = workloads::build(Name, 0.08);
  core::RefinementOptions Opts;
  Opts.Checker = core::RefinementChecker::SingleRun;
  Opts.QuietTrials = 2;
  Opts.Deterministic = true;
  Opts.Seed = 0xf17a1 + std::hash<std::string>{}(Name);
  return core::iterativeRefinement(Small, Opts).FinalSpec;
}

} // namespace bench
} // namespace dc

#endif // DC_BENCH_BENCHUTILS_H
