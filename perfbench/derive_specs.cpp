//===- perfbench/derive_specs.cpp - Re-derive the frozen specifications ---===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints the "program"/"exclude" lines of perfbench/frozen_inputs.txt: each
/// benchmark program's final specification, derived with the same seeded
/// iterative refinement bench::finalSpecFor uses (§5.1: refine with the
/// sound single-run checker until no violations are reported, at a small
/// deterministic scale; method names transfer to any scale). The "allow"
/// lines are hand-written from the builders in src/workloads/ and are not
/// produced here. Not built by default:
///
///   cmake --build .bench_build/perfbench --target dcbench_derive
///   .bench_build/perfbench/dcbench_derive
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <functional>
#include <string>

#include "core/Refinement.h"
#include "workloads/Workloads.h"

using namespace dc;

int main() {
  for (const char *Name : {"eclipse6", "xalan6", "sunflow9", "tsp",
                           "montecarlo"}) {
    ir::Program Small = workloads::build(Name, 0.08);
    core::RefinementOptions Opts;
    Opts.Checker = core::RefinementChecker::SingleRun;
    Opts.QuietTrials = 2;
    Opts.Deterministic = true;
    Opts.Seed = 0xf17a1 + std::hash<std::string>{}(Name);
    const core::AtomicitySpec Final =
        core::iterativeRefinement(Small, Opts).FinalSpec;
    std::printf("program %s\n", Name);
    for (const std::string &M : Final.excluded())
      std::printf("exclude %s\n", M.c_str());
  }
  return 0;
}
