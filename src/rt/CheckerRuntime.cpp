//===- rt/CheckerRuntime.cpp ----------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/CheckerRuntime.h"

using namespace dc;
using namespace dc::rt;

// Out-of-line vtable anchor.
CheckerRuntime::~CheckerRuntime() = default;

const char *dc::rt::toString(CheckerFault F) {
  switch (F) {
  case CheckerFault::None:
    return "none";
  case CheckerFault::CollectorStall:
    return "collector-stall";
  case CheckerFault::GateStall:
    return "gate-stall";
  case CheckerFault::WindowFlushStall:
    return "window-flush-stall";
  }
  return "unknown";
}

const char *dc::rt::toString(DegradationEvent::Action A) {
  switch (A) {
  case DegradationEvent::Action::PotentialOnly:
    return "potential-only";
  case DegradationEvent::Action::ShedLogging:
    return "shed-logging";
  case DegradationEvent::Action::Rearm:
    return "rearm";
  }
  return "unknown";
}
