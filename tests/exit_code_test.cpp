//===- tests/exit_code_test.cpp - dcheck exit-code contract ---------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the dcheck exit-code contract (README "Exit codes"): supervisors
/// and CI scripts key on these values, so they are part of the tool's
/// public interface:
///
///   0   clean — run completed, no violations
///   1   violations — at least one precisely blamed atomicity violation
///   2   checker fault — a structured fault was recorded (or the run
///       aborted, or only degraded Potential reports exist, which cannot
///       be distinguished from overload-induced imprecision)
///   64  usage error
///
/// Each test shells out to the real binary (path injected via
/// DC_DCHECK_BIN) exactly like a caller would.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

namespace {

int runDcheck(const std::string &Args) {
  std::string Cmd = std::string(DC_DCHECK_BIN) + " " + Args +
                    " >/dev/null 2>&1";
  int Rc = std::system(Cmd.c_str());
  return WIFEXITED(Rc) ? WEXITSTATUS(Rc) : -1;
}

TEST(DcheckExitCodes, CleanRunExitsZero) {
  EXPECT_EQ(runDcheck("--workload philo --scale 0.05 --mode single-run "
                      "--det --seed 3"),
            0);
}

TEST(DcheckExitCodes, ViolationsExitOne) {
  EXPECT_EQ(runDcheck("--workload xalan6 --scale 0.2 --mode single-run "
                      "--det --seed 1"),
            1);
}

TEST(DcheckExitCodes, CheckerFaultExitsTwo) {
  // A wedged window flush is a structured checker fault: the verdict may
  // be incomplete, so the exit reports the fault even though violations
  // were also found (fault trumps blame — a supervisor must not treat a
  // faulted run as a trustworthy "1").
  EXPECT_EQ(runDcheck("--workload xalan6 --scale 0.2 --mode single-run "
                      "--det --seed 1 --window-txs 16 "
                      "--fault-plan window-stall@1 --stall-timeout-ms 100"),
            2);
}

TEST(DcheckExitCodes, UsageErrorExitsSixtyFour) {
  EXPECT_EQ(runDcheck("--workload philo --bogus-flag"), 64);
  EXPECT_EQ(runDcheck("--workload no-such-workload"), 64);
}

TEST(DcheckExitCodes, ServeModePreservesTheContract) {
  // Service mode changes the output channel, not the verdict contract.
  EXPECT_EQ(runDcheck("--serve --window-txs 64 --workload philo "
                      "--scale 0.05 --mode single-run --det --seed 3"),
            0);
  EXPECT_EQ(runDcheck("--serve --window-txs 64 --workload xalan6 "
                      "--scale 0.2 --mode single-run --det --seed 1"),
            1);
}

TEST(DcheckExitCodes, SummaryEventMatchesExitCode) {
  const std::string Ndjson = ::testing::TempDir() + "/exit_code_serve.ndjson";
  int Exit = runDcheck("--serve --window-txs 64 --ndjson " + Ndjson +
                       " --workload xalan6 --scale 0.2 --mode single-run "
                       "--det --seed 1");
  ASSERT_EQ(Exit, 1);
  std::ifstream In(Ndjson);
  ASSERT_TRUE(In.is_open());
  std::string Line, Last;
  bool SawViolation = false;
  while (std::getline(In, Line)) {
    if (!Line.empty())
      Last = Line;
    SawViolation |= Line.rfind("{\"event\":\"violation\"", 0) == 0;
  }
  EXPECT_TRUE(SawViolation);
  EXPECT_NE(Last.find("\"event\":\"summary\""), std::string::npos);
  EXPECT_NE(Last.find("\"exit_code\":1"), std::string::npos)
      << "the streamed summary must agree with the process exit code";
}

} // namespace
