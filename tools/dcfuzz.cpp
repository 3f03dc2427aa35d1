//===- tools/dcfuzz.cpp - Config-matrix differential fuzzer CLI -----------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the schedule fuzzer (tools/FuzzLib.h).
///
///   dcfuzz --seed 1 --pairs 10000 --strategy mixed        # campaign
///   dcfuzz --replay witness.dcw                           # re-run a witness
///
/// Exit codes: 0 = clean (or witness no longer reproduces), 1 = divergence
/// found (or witness reproduces), 2 = usage/IO error, 3 = one pair outlived
/// --pair-timeout-seconds (its witness was written; see fuzz::PairWatch).
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "tools/FuzzLib.h"

using namespace dc;

namespace {

void usage(FILE *Out) {
  std::fprintf(
      Out,
      "usage: dcfuzz [options]\n"
      "       dcfuzz --replay <witness-file>\n"
      "\n"
      "Campaign options:\n"
      "  --seed <n>                 base RNG seed (default 1)\n"
      "  --pairs <n>                max (program, schedule) pairs "
      "(default 1000)\n"
      "  --budget-seconds <s>       wall-clock budget, 0 = none (default 0)\n"
      "  --strategy <s>             random | pct | exhaustive | mixed "
      "(default mixed)\n"
      "  --schedules-per-program <n>  seeded schedules per program "
      "(default 6)\n"
      "  --exhaustive-runs <n>      DFS runs per program (default 24)\n"
      "  --pct-depth <n>            PCT priority change points (default 3)\n"
      "  --preemption-bound <n>     exhaustive preemption bound (default 2)\n"
      "  --inject-icd-bug           enable the test-only unsound ICD filter\n"
      "  --fault-sweep              sweep deterministic fault plans over\n"
      "                             every agreeing pair (degradation "
      "soundness)\n"
      "  --minimize / --no-minimize delta-debug divergences (default on)\n"
      "  --witness-out <file>       where to write a minimized witness\n"
      "                             (and a timed-out pair's witness)\n"
      "  --pair-timeout-seconds <s> wall timeout per pair (also per\n"
      "                             --replay); a pair past it is written\n"
      "                             as a witness and dcfuzz exits 3\n"
      "                             (default %.0f: 4x the checker's stall\n"
      "                             timeout; 0 = off)\n"
      "  --json-out <file>          write the campaign report as JSON\n"
      "  --progress <n>             progress line every n pairs (default "
      "1000)\n",
      fuzz::defaultPairTimeoutSeconds());
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End)
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  fuzz::FuzzOptions O;
  O.ProgressEvery = 1000;
  std::string WitnessOut;
  std::string JsonOut;
  std::string ReplayPath;
  double PairTimeout = fuzz::defaultPairTimeoutSeconds();

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "dcfuzz: %s needs a value\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    uint64_t V = 0;
    if (A == "--help" || A == "-h") {
      usage(stdout);
      return 0;
    } else if (A == "--replay") {
      ReplayPath = Next();
    } else if (A == "--seed") {
      if (!parseU64(Next(), O.Seed))
        return usage(stderr), 2;
    } else if (A == "--pairs") {
      if (!parseU64(Next(), O.MaxPairs))
        return usage(stderr), 2;
    } else if (A == "--budget-seconds") {
      O.BudgetSeconds = std::atof(Next());
    } else if (A == "--strategy") {
      std::string S = Next();
      if (S == "random")
        O.Strat = fuzz::FuzzOptions::Strategy::Random;
      else if (S == "pct")
        O.Strat = fuzz::FuzzOptions::Strategy::Pct;
      else if (S == "exhaustive")
        O.Strat = fuzz::FuzzOptions::Strategy::Exhaustive;
      else if (S == "mixed")
        O.Strat = fuzz::FuzzOptions::Strategy::Mixed;
      else {
        std::fprintf(stderr, "dcfuzz: unknown strategy '%s'\n", S.c_str());
        return 2;
      }
    } else if (A == "--schedules-per-program") {
      if (!parseU64(Next(), V))
        return usage(stderr), 2;
      O.SchedulesPerProgram = static_cast<uint32_t>(V);
    } else if (A == "--exhaustive-runs") {
      if (!parseU64(Next(), V))
        return usage(stderr), 2;
      O.ExhaustiveRunsPerProgram = static_cast<uint32_t>(V);
    } else if (A == "--pct-depth") {
      if (!parseU64(Next(), V))
        return usage(stderr), 2;
      O.PctChangePoints = static_cast<uint32_t>(V);
    } else if (A == "--preemption-bound") {
      if (!parseU64(Next(), V))
        return usage(stderr), 2;
      O.PreemptionBound = static_cast<uint32_t>(V);
    } else if (A == "--inject-icd-bug") {
      O.InjectIcdBug = true;
    } else if (A == "--fault-sweep") {
      O.FaultSweep = true;
    } else if (A == "--minimize") {
      O.Minimize = true;
    } else if (A == "--no-minimize") {
      O.Minimize = false;
    } else if (A == "--witness-out") {
      WitnessOut = Next();
    } else if (A == "--pair-timeout-seconds") {
      char *End = nullptr;
      const char *S = Next();
      PairTimeout = std::strtod(S, &End);
      if (End == S || *End || PairTimeout < 0)
        return usage(stderr), 2;
    } else if (A == "--json-out") {
      JsonOut = Next();
    } else if (A == "--progress") {
      if (!parseU64(Next(), O.ProgressEvery))
        return usage(stderr), 2;
    } else {
      std::fprintf(stderr, "dcfuzz: unknown option '%s'\n", A.c_str());
      usage(stderr);
      return 2;
    }
  }

  std::unique_ptr<fuzz::PairWatch> Watch;
  if (PairTimeout > 0)
    Watch = std::make_unique<fuzz::PairWatch>(
        PairTimeout,
        WitnessOut.empty() ? "dcfuzz_pair_timeout.dcw" : WitnessOut);
  O.Watch = Watch.get();

  if (!ReplayPath.empty()) {
    fuzz::Witness W;
    std::string Error;
    if (!fuzz::readWitness(ReplayPath, W, Error)) {
      std::fprintf(stderr, "dcfuzz: %s\n", Error.c_str());
      return 2;
    }
    if (Watch) {
      fuzz::Divergence Pending;
      Pending.Schedule = W.Schedule;
      Pending.Fault = W.Fault;
      Pending.Program = W.P;
      Watch->arm(std::move(Pending), W.InjectIcdBug);
    }
    std::optional<std::string> Div = fuzz::replayWitness(W);
    if (Watch)
      Watch->disarm();
    if (Div) {
      std::printf("witness reproduces:\n%s\n", Div->c_str());
      return 1;
    }
    std::printf("witness does not reproduce: all configs agree\n");
    return 0;
  }

  fuzz::FuzzReport R = fuzz::runFuzz(O);
  if (!JsonOut.empty()) {
    std::FILE *F = std::fopen(JsonOut.c_str(), "w");
    if (F == nullptr) {
      std::fprintf(stderr, "dcfuzz: cannot write %s\n", JsonOut.c_str());
    } else {
      const char *StratName =
          O.Strat == fuzz::FuzzOptions::Strategy::Random       ? "random"
          : O.Strat == fuzz::FuzzOptions::Strategy::Pct        ? "pct"
          : O.Strat == fuzz::FuzzOptions::Strategy::Exhaustive ? "exhaustive"
                                                               : "mixed";
      std::fprintf(
          F,
          "{\n"
          "  \"tool\": \"dcfuzz\",\n"
          "  \"seed\": %llu,\n"
          "  \"strategy\": \"%s\",\n"
          "  \"inject_icd_bug\": %s,\n"
          "  \"fault_sweep\": %s,\n"
          "  \"programs\": %llu,\n"
          "  \"pairs\": %llu,\n"
          "  \"random_pairs\": %llu,\n"
          "  \"pct_pairs\": %llu,\n"
          "  \"exhaustive_pairs\": %llu,\n"
          "  \"oracle_violations\": %llu,\n"
          "  \"fault_plans_run\": %llu,\n"
          "  \"divergences\": %d,\n"
          "  \"wall_s\": %.3f\n"
          "}\n",
          static_cast<unsigned long long>(O.Seed), StratName,
          O.InjectIcdBug ? "true" : "false",
          O.FaultSweep ? "true" : "false",
          static_cast<unsigned long long>(R.Programs),
          static_cast<unsigned long long>(R.Pairs),
          static_cast<unsigned long long>(R.RandomPairs),
          static_cast<unsigned long long>(R.PctPairs),
          static_cast<unsigned long long>(R.ExhaustivePairs),
          static_cast<unsigned long long>(R.OracleViolations),
          static_cast<unsigned long long>(R.FaultPlansRun), R.Div ? 1 : 0,
          R.Seconds);
      std::fclose(F);
    }
  }
  std::printf("dcfuzz: %llu pairs over %llu programs in %.1fs "
              "(random %llu, pct %llu, exhaustive %llu); "
              "%llu oracle violations; %llu fault plans\n",
              static_cast<unsigned long long>(R.Pairs),
              static_cast<unsigned long long>(R.Programs), R.Seconds,
              static_cast<unsigned long long>(R.RandomPairs),
              static_cast<unsigned long long>(R.PctPairs),
              static_cast<unsigned long long>(R.ExhaustivePairs),
              static_cast<unsigned long long>(R.OracleViolations),
              static_cast<unsigned long long>(R.FaultPlansRun));
  if (!R.Div) {
    std::printf("no divergences\n");
    return 0;
  }

  std::printf("DIVERGENCE (spec seed %llu, %llu data accesses):\n%s\n",
              static_cast<unsigned long long>(R.Div->Spec.Seed),
              static_cast<unsigned long long>(R.Div->DataAccesses),
              R.Div->Description.c_str());
  if (!WitnessOut.empty()) {
    if (fuzz::writeWitness(WitnessOut, *R.Div, O.InjectIcdBug))
      std::printf("witness written to %s (replay with: dcfuzz --replay %s)\n",
                  WitnessOut.c_str(), WitnessOut.c_str());
    else
      std::fprintf(stderr, "dcfuzz: cannot write %s\n", WitnessOut.c_str());
  }
  return 1;
}
