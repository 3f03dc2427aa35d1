//===- rt/StreamingSession.cpp --------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/StreamingSession.h"

#include <cstdio>

using namespace dc;
using namespace dc::rt;

namespace {

void appendEscaped(std::string &S, const std::string &V) {
  S += '"';
  for (char C : V) {
    switch (C) {
    case '"':
      S += "\\\"";
      break;
    case '\\':
      S += "\\\\";
      break;
    case '\n':
      S += "\\n";
      break;
    case '\t':
      S += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        S += Buf;
      } else {
        S += C;
      }
    }
  }
  S += '"';
}

void appendKV(std::string &S, const char *K, uint64_t V) {
  S += '"';
  S += K;
  S += "\":";
  S += std::to_string(V);
}

void appendKV(std::string &S, const char *K, const std::string &V) {
  S += '"';
  S += K;
  S += "\":";
  appendEscaped(S, V);
}

} // namespace

std::string StreamingSession::siteName(ir::MethodId M) const {
  if (M == ir::InvalidMethodId)
    return "-";
  if (Opts.MethodName)
    return Opts.MethodName(M);
  return "m" + std::to_string(M);
}

void StreamingSession::writeLine(const std::string &Line) {
  if (Opts.Out == nullptr)
    return;
  SpinLockGuard Guard(Lock);
  *Opts.Out << Line << "\n";
  Opts.Out->flush(); // A supervisor tails the stream live; buffer nothing.
}

void StreamingSession::onViolation(const analysis::ViolationRecord &R) {
  uint64_t N = Violations.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string S = "{";
  appendKV(S, "event", std::string("violation"));
  S += ',';
  appendKV(S, "seq", Seq.fetch_add(1, std::memory_order_relaxed));
  S += ',';
  appendKV(S, "n", N);
  S += ',';
  appendKV(S, "kind",
           std::string(R.K == analysis::ViolationRecord::Kind::Precise
                           ? "precise"
                           : "potential"));
  S += ',';
  appendKV(S, "blamed", siteName(R.Blamed));
  S += ",\"cycle\":[";
  bool First = true;
  for (const analysis::CycleMember &M : R.Cycle) {
    if (!First)
      S += ',';
    First = false;
    S += "{";
    appendKV(S, "tid", static_cast<uint64_t>(M.Tid));
    S += ',';
    appendKV(S, "site", siteName(M.Site));
    S += ',';
    appendKV(S, "tx", M.TxId);
    S += "}";
  }
  S += "]}";
  writeLine(S);
}

void StreamingSession::healthJson(std::string &S,
                                  const HealthSnapshot &H) const {
  appendKV(S, "window", H.WindowIndex);
  S += ',';
  appendKV(S, "finished_txs", H.FinishedTxs);
  S += ',';
  appendKV(S, "live_txs", H.LiveTxs);
  S += ',';
  appendKV(S, "retired_txs", H.RetiredTxs);
  S += ',';
  appendKV(S, "pinned_txs", H.PinnedTxs);
  S += ',';
  appendKV(S, "sealed_txs", H.SealedTxs);
  S += ',';
  appendKV(S, "cross_edges", H.CrossEdges);
  S += ',';
  appendKV(S, "violations", H.Violations);
  S += ',';
  appendKV(S, "degradations", H.Degradations);
  S += ',';
  appendKV(S, "fault", std::string(toString(H.Fault)));
}

void StreamingSession::onWindow(const HealthSnapshot &H) {
  uint64_t N = Windows.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string S = "{";
  appendKV(S, "event", std::string("window"));
  S += ',';
  appendKV(S, "seq", Seq.fetch_add(1, std::memory_order_relaxed));
  S += ',';
  healthJson(S, H);
  S += "}";
  writeLine(S);
  if (Opts.HealthEveryWindows != 0 && N % Opts.HealthEveryWindows == 0)
    emitHealth(H);
}

void StreamingSession::emitHealth(const HealthSnapshot &H) {
  std::string S = "{";
  appendKV(S, "event", std::string("health"));
  S += ',';
  appendKV(S, "seq", Seq.fetch_add(1, std::memory_order_relaxed));
  S += ',';
  healthJson(S, H);
  S += ',';
  appendKV(S, "stats_stable", static_cast<uint64_t>(H.StatsStable ? 1 : 0));
  S += ",\"stats\":{";
  bool First = true;
  for (const auto &KV : H.Stats) {
    if (!First)
      S += ',';
    First = false;
    appendEscaped(S, KV.first);
    S += ':';
    S += std::to_string(KV.second);
  }
  S += "}}";
  writeLine(S);
}

void StreamingSession::onFault(CheckerFault F, const std::string &Diagnosis) {
  std::string S = "{";
  appendKV(S, "event", std::string("fault"));
  S += ',';
  appendKV(S, "seq", Seq.fetch_add(1, std::memory_order_relaxed));
  S += ',';
  appendKV(S, "fault", std::string(toString(F)));
  S += ',';
  appendKV(S, "diagnosis", Diagnosis);
  S += "}";
  writeLine(S);
}

void StreamingSession::finish(const std::set<std::string> &Blamed,
                              const std::set<std::string> &Potential,
                              uint64_t Records, CheckerFault Fault,
                              int ExitCode) {
  std::string S = "{";
  appendKV(S, "event", std::string("summary"));
  S += ',';
  appendKV(S, "seq", Seq.fetch_add(1, std::memory_order_relaxed));
  S += ',';
  appendKV(S, "violations", Records);
  S += ',';
  appendKV(S, "windows", windowsStreamed());
  S += ',';
  appendKV(S, "fault", std::string(toString(Fault)));
  S += ',';
  appendKV(S, "exit_code", static_cast<uint64_t>(ExitCode));
  auto AppendSet = [&](const char *K, const std::set<std::string> &Set) {
    S += ",\"";
    S += K;
    S += "\":[";
    bool First = true;
    for (const std::string &M : Set) {
      if (!First)
        S += ',';
      First = false;
      appendEscaped(S, M);
    }
    S += "]";
  };
  AppendSet("blamed", Blamed);
  AppendSet("potential", Potential);
  S += "}";
  writeLine(S);
}
