//===- support/FaultPlan.cpp ----------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultPlan.h"

#include <cstdlib>

using namespace dc;

std::string FaultPlan::spec() const {
  std::string Out;
  auto Add = [&](const char *Key, uint64_t V) {
    if (V == 0)
      return;
    if (!Out.empty())
      Out += ',';
    Out += Key;
    Out += '@';
    Out += std::to_string(V);
  };
  Add("alloc-fail", AllocFailAt);
  Add("window-stall", WindowStallAt);
  return Out.empty() ? "none" : Out;
}

bool FaultPlan::parse(const std::string &Spec, FaultPlan &Out,
                      std::string &Error) {
  Out = FaultPlan();
  // Strip surrounding whitespace; "none" and the empty string are the
  // canonical empty plans.
  size_t B = Spec.find_first_not_of(" \t");
  size_t E = Spec.find_last_not_of(" \t");
  std::string S = B == std::string::npos ? "" : Spec.substr(B, E - B + 1);
  if (S.empty() || S == "none")
    return true;

  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Comma = S.find(',', Pos);
    std::string Tok =
        S.substr(Pos, Comma == std::string::npos ? std::string::npos
                                                 : Comma - Pos);
    Pos = Comma == std::string::npos ? S.size() : Comma + 1;
    size_t At = Tok.find('@');
    if (At == std::string::npos) {
      Error = "fault token '" + Tok + "' is missing '@count'";
      return false;
    }
    std::string Key = Tok.substr(0, At);
    const std::string Num = Tok.substr(At + 1);
    char *End = nullptr;
    unsigned long long V = std::strtoull(Num.c_str(), &End, 10);
    if (Num.empty() || End == Num.c_str() || *End != '\0' || V == 0) {
      Error = "fault count '" + Num + "' for '" + Key +
              "' must be a positive integer";
      return false;
    }
    if (Key == "alloc-fail")
      Out.AllocFailAt = V;
    else if (Key == "window-stall")
      Out.WindowStallAt = V;
    else {
      Error = "unknown fault key '" + Key +
              "' (expected alloc-fail or window-stall)";
      return false;
    }
  }
  return true;
}
