//===- tests/octet_coord_test.cpp - Pipelined coordination tests ----------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coverage for the pipelined fan-out coordination protocol (DESIGN.md
/// §11): overlapping RdSh->WrEx and WrEx->WrEx coordinations against mixed
/// responder sets (executing, blocked, exited) with exactly-once listener
/// accounting, listener edges equal to a serial reference model of Table 1
/// on a fixed schedule, the spin-then-park path, and the
/// abort-mid-coordination regression (an aborted roundtrip must retire its
/// posted request before returning, or a late drain writes into a retired
/// slot — run this under ASan/TSan).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "ir/Builder.h"
#include "octet/OctetManager.h"
#include "rt/Runtime.h"
#include "support/Rng.h"

using namespace dc;
using namespace dc::octet;

namespace {

struct Edge {
  uint32_t Resp = 0;
  uint32_t Requester = 0;
  rt::ObjectId Obj = 0;
  OctetState Old;
  OctetState New;

  bool operator==(const Edge &O) const {
    return Resp == O.Resp && Requester == O.Requester && Obj == O.Obj &&
           Old == O.Old && New == O.New;
  }
};

class RecordingListener : public OctetListener {
public:
  void onConflictingEdge(uint32_t RespTid, const Transition &T) override {
    std::lock_guard<std::mutex> G(M);
    Edges.push_back({RespTid, T.Requester, T.Obj, T.Old, T.New});
  }

  std::vector<Edge> edges() {
    std::lock_guard<std::mutex> G(M);
    return Edges;
  }

private:
  std::mutex M;
  std::vector<Edge> Edges;
};

ir::Program heapProgram(uint32_t Objects, uint32_t Threads) {
  ir::ProgramBuilder B("coord");
  B.addPool("objs", Objects, 1);
  ir::MethodId Main = B.beginMethod("main", false).work(1).endMethod();
  for (uint32_t T = 0; T < Threads; ++T)
    B.addThread(Main);
  return B.build();
}

rt::ThreadContext makeTC(rt::Runtime &RT, uint32_t Tid) {
  rt::ThreadContext TC;
  TC.Tid = Tid;
  TC.RT = &RT;
  return TC;
}

// Multiple requesters running RdSh->WrEx and WrEx->WrEx fan-outs at once
// against overlapping responder sets: two executing pollers, one blocked
// thread, one exited thread, and each other. Checks termination (the test
// completes), exactly-once callbacks, and counter consistency.
TEST(OctetCoordTest, ConcurrentFanOutsAgainstMixedResponders) {
  constexpr uint32_t NumThreads = 6;
  constexpr uint32_t Objects = 6;
  constexpr uint64_t OpsPerRequester = 4000;

  ir::Program P = heapProgram(Objects, NumThreads);
  rt::Runtime RT(P, nullptr);
  StatisticRegistry Stats;
  RecordingListener Listener;
  OctetManager Manager(RT.heap(), NumThreads, &Listener, Stats);

  // Tid 4: starts, takes ownership of object 4, then blocks for the whole
  // run — requesters coordinate with it implicitly.
  {
    rt::ThreadContext TC = makeTC(RT, 4);
    Manager.threadStarted(4);
    Manager.writeBarrier(TC, 4);
    Manager.aboutToBlock(4);
  }
  // Tid 5: starts, takes ownership of object 5, and exits — requesters
  // coordinate with a permanently-blocked responder.
  {
    rt::ThreadContext TC = makeTC(RT, 5);
    Manager.threadStarted(5);
    Manager.writeBarrier(TC, 5);
    Manager.threadExited(5);
  }

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Workers;
  // Tids 2 and 3: executing responders. They answer requests at their safe
  // points and read the shared objects so RdSh states include them.
  for (uint32_t T = 2; T <= 3; ++T) {
    Workers.emplace_back([&, T] {
      rt::ThreadContext TC = makeTC(RT, T);
      Manager.threadStarted(T);
      SplitMix64 Rng(T * 31 + 7);
      while (!Stop.load(std::memory_order_acquire)) {
        Manager.pollSafePoint(T);
        if (Rng.chancePercent(25))
          Manager.readBarrier(
              TC, static_cast<rt::ObjectId>(Rng.nextBelow(Objects)));
        if (Rng.chancePercent(1)) {
          Manager.aboutToBlock(T);
          std::this_thread::yield();
          Manager.unblocked(T);
        }
      }
      Manager.threadExited(T);
    });
  }
  // Tids 0 and 1: requesters. Reads drive objects into RdSh (with the
  // pollers and each other), writes then trigger RdSh->WrEx fan-outs to
  // all five other threads; alternating writes ping WrEx->WrEx.
  for (uint32_t T = 0; T <= 1; ++T) {
    Workers.emplace_back([&, T] {
      rt::ThreadContext TC = makeTC(RT, T);
      Manager.threadStarted(T);
      SplitMix64 Rng(T * 7919 + 13);
      for (uint64_t Op = 0; Op < OpsPerRequester; ++Op) {
        rt::ObjectId Obj = static_cast<rt::ObjectId>(Rng.nextBelow(Objects));
        if (Rng.chancePercent(40))
          Manager.writeBarrier(TC, Obj);
        else
          Manager.readBarrier(TC, Obj);
        Manager.pollSafePoint(T);
      }
      Manager.threadExited(T);
    });
  }
  for (size_t I = 2; I < Workers.size(); ++I)
    Workers[I].join(); // Requesters finish first...
  Stop.store(true, std::memory_order_release);
  Workers[0].join(); // ...then release the pollers.
  Workers[1].join();

  Manager.flushStatistics();
  const std::vector<Edge> Edges = Listener.edges();

  // Every callback names a real conflict: never self, and single-responder
  // transitions must notify exactly the old owner.
  for (const Edge &E : Edges) {
    EXPECT_NE(E.Resp, E.Requester);
    if (E.Old.Kind == StateKind::WrEx || E.Old.Kind == StateKind::RdEx) {
      EXPECT_EQ(E.Resp, E.Old.Owner)
          << "single-responder transition notified a bystander";
    }
  }

  // Exactly-once per (responder, transition): each RdSh->WrEx coordination
  // is uniquely keyed by the RdSh counter it retires (the global counter
  // is never reused), and must have produced one callback per other
  // thread — no responder missed, none notified twice.
  std::map<uint64_t, std::pair<uint32_t, std::vector<uint32_t>>> FanOuts;
  for (const Edge &E : Edges)
    if (E.Old.Kind == StateKind::RdSh) {
      auto &F = FanOuts[E.Old.Counter];
      F.first = E.Requester;
      F.second.push_back(E.Resp);
    }
  for (auto &[Counter, F] : FanOuts) {
    std::vector<uint32_t> Expect;
    for (uint32_t T = 0; T < NumThreads; ++T)
      if (T != F.first)
        Expect.push_back(T);
    std::sort(F.second.begin(), F.second.end());
    EXPECT_EQ(F.second, Expect)
        << "RdSh(" << Counter << ") fan-out by requester " << F.first
        << " did not reach every other thread exactly once";
  }
  EXPECT_FALSE(FanOuts.empty()) << "workload produced no RdSh->WrEx fan-outs";

  // Counter consistency: one roundtrip per callback, and the fan-out
  // batches accounted for every responder they visited.
  const uint64_t Roundtrips = Stats.value("octet.explicit_roundtrips") +
                              Stats.value("octet.implicit_roundtrips");
  EXPECT_EQ(Edges.size(), Roundtrips);
  EXPECT_EQ(Stats.value("octet.fanout_responders"), Roundtrips);
  EXPECT_EQ(Stats.value("octet.conflicting"),
            Stats.value("octet.fanout_batches"));
  EXPECT_EQ(Stats.value("octet.cancelled_requests"), 0u);
}

// On a fixed schedule the pipelined fan-out must produce exactly the
// listener edges of a serial reference model of the paper's Table 1 — one
// roundtrip per responder, RdSh -> WrEx visiting every other thread in tid
// order — and leave every object in the model's state. Drives four logical
// threads deterministically from one OS thread (all stay formally blocked,
// so every coordination is synchronous) through a pseudo-random op tape.
TEST(OctetCoordTest, FanOutMatchesSerialOnFixedSchedule) {
  constexpr uint32_t NumThreads = 4;
  constexpr uint32_t Objects = 6;
  constexpr int Ops = 5000;

  ir::Program P = heapProgram(Objects, NumThreads);
  rt::Runtime RT(P, nullptr);
  StatisticRegistry Stats;
  RecordingListener Listener;
  OctetManager Manager(RT.heap(), NumThreads, &Listener, Stats);

  auto Owned = [](StateKind K, uint32_t Tid) {
    OctetState S;
    S.Kind = K;
    S.Owner = Tid;
    return S;
  };
  std::vector<OctetState> Model(Objects);
  std::vector<Edge> Expected;
  uint64_t LastRdSh = 0;
  SplitMix64 Rng(42);
  for (int Op = 0; Op < Ops; ++Op) {
    uint32_t Tid = static_cast<uint32_t>(Rng.nextBelow(NumThreads));
    rt::ThreadContext TC = makeTC(RT, Tid);
    rt::ObjectId Obj = static_cast<rt::ObjectId>(Rng.nextBelow(Objects));
    const OctetState Old = Model[Obj];
    OctetState New = Old;
    std::vector<uint32_t> Responders;
    if (Rng.chancePercent(35)) {
      Manager.writeBarrier(TC, Obj);
      if (Old.Kind == StateKind::RdSh) {
        for (uint32_t U = 0; U < NumThreads; ++U)
          if (U != Tid)
            Responders.push_back(U);
      } else if (Old.Kind != StateKind::Untouched && Old.Owner != Tid) {
        Responders.push_back(Old.Owner);
      }
      New = Owned(StateKind::WrEx, Tid);
    } else {
      Manager.readBarrier(TC, Obj);
      if (Old.Kind == StateKind::Untouched) {
        New = Owned(StateKind::RdEx, Tid);
      } else if (Old.Kind == StateKind::WrEx && Old.Owner != Tid) {
        Responders.push_back(Old.Owner);
        New = Owned(StateKind::RdEx, Tid);
      } else if (Old.Kind == StateKind::RdEx && Old.Owner != Tid) {
        // Upgrading transition: no roundtrip, a fresh global counter.
        New = Manager.stateOf(Obj);
        ASSERT_EQ(New.Kind, StateKind::RdSh) << "op " << Op;
        ASSERT_GT(New.Counter, LastRdSh) << "op " << Op;
        LastRdSh = New.Counter;
      }
    }
    for (uint32_t U : Responders)
      Expected.push_back({U, Tid, Obj, Old, New});
    Model[Obj] = New;
    ASSERT_TRUE(Manager.stateOf(Obj) == New)
        << "op " << Op << ": object " << Obj << " is "
        << toString(Manager.stateOf(Obj)) << ", model says "
        << toString(New);
  }

  const std::vector<Edge> Edges = Listener.edges();
  ASSERT_FALSE(Edges.empty());
  ASSERT_EQ(Edges.size(), Expected.size());
  for (size_t I = 0; I < Edges.size(); ++I)
    EXPECT_TRUE(Edges[I] == Expected[I]) << "edge " << I << " differs";
}

// A responder that stays away from safe points longer than the spin bound
// forces the requester through the park path; the wake on Done must bring
// it back and complete the coordination.
TEST(OctetCoordTest, RequesterParksWhenResponderIsSlow) {
  ir::Program P = heapProgram(2, 2);
  rt::Runtime RT(P, nullptr);
  StatisticRegistry Stats;
  RecordingListener Listener;
  OctetManager Manager(RT.heap(), 2, &Listener, Stats);

  std::atomic<bool> Owned{false};
  std::atomic<bool> Stop{false};
  std::thread Responder([&] {
    rt::ThreadContext TC = makeTC(RT, 1);
    Manager.threadStarted(1);
    Manager.writeBarrier(TC, 0); // Claim: object 0 becomes WrEx(1).
    Owned.store(true, std::memory_order_release);
    // Stay executing but away from safe points until the requester has
    // really exhausted its spin budget and parked (a fixed sleep flakes
    // under load: a preempted requester can find the response mid-spin).
    while (!Manager.isParkedForTest(0))
      std::this_thread::yield();
    while (!Stop.load(std::memory_order_acquire)) {
      Manager.pollSafePoint(1);
      std::this_thread::yield();
    }
    Manager.threadExited(1);
  });

  rt::ThreadContext TC = makeTC(RT, 0);
  Manager.threadStarted(0);
  while (!Owned.load(std::memory_order_acquire))
    std::this_thread::yield();
  Manager.writeBarrier(TC, 0); // WrEx(1) -> WrEx(0): explicit roundtrip.
  Stop.store(true, std::memory_order_release);
  Manager.threadExited(0);
  Responder.join();

  EXPECT_EQ(Manager.stateOf(0).Kind, StateKind::WrEx);
  EXPECT_EQ(Manager.stateOf(0).Owner, 0u);
  Manager.flushStatistics();
  EXPECT_EQ(Stats.value("octet.explicit_roundtrips"), 1u);
  EXPECT_GE(Stats.value("octet.parks"), 1u)
      << "requester should have parked while the responder slept";
  const std::vector<Edge> Edges = Listener.edges();
  ASSERT_EQ(Edges.size(), 1u);
  EXPECT_EQ(Edges[0].Resp, 1u);
  EXPECT_EQ(Edges[0].Requester, 0u);
}

// Abort-mid-coordination regression: the requester posts to an executing
// responder that never reaches a safe point, the run aborts, and the
// requester must retire the posted request before returning — the
// responder's eventual drain may only skip it. A request left linked in
// the mailbox would have the late drain write Done into a slot its
// requester already abandoned.
TEST(OctetCoordAbortTest, AbortMidCoordinationRetiresRequest) {
  ir::Program P = heapProgram(2, 2);
  rt::Runtime RT(P, nullptr);
  StatisticRegistry Stats;
  RecordingListener Listener;
  std::atomic<bool> Abort{false};
  OctetManager Manager(RT.heap(), 2, &Listener, Stats, &Abort);

  std::atomic<bool> Owned{false};
  std::atomic<bool> Release{false};
  std::thread Responder([&] {
    rt::ThreadContext TC = makeTC(RT, 1);
    Manager.threadStarted(1);
    Manager.writeBarrier(TC, 0);
    Owned.store(true, std::memory_order_release);
    // Hold the request hostage: no safe point until released.
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
    // The late drain: must skip the cancelled request, not complete it.
    Manager.pollSafePoint(1);
    Manager.threadExited(1);
  });

  std::thread Requester([&] {
    rt::ThreadContext TC = makeTC(RT, 0);
    Manager.threadStarted(0);
    while (!Owned.load(std::memory_order_acquire))
      std::this_thread::yield();
    // Conflicting WrEx(1) -> WrEx(0); the responder never answers, so this
    // returns only via the abort path.
    Manager.writeBarrier(TC, 0);
  });

  // Wait until the coordination is in flight (object parked intermediate),
  // give the post time to land, then abort the run.
  while (Manager.stateOf(0).Kind != StateKind::IntWrEx)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Abort.store(true, std::memory_order_release);
  Requester.join(); // Must terminate: the request is cancelled, not leaked.
  Release.store(true, std::memory_order_release);
  Responder.join();

  Manager.flushStatistics();
  EXPECT_EQ(Stats.value("octet.cancelled_requests"), 1u);
  EXPECT_EQ(Stats.value("octet.explicit_roundtrips"), 0u);
  // The cancelled roundtrip must not have produced a callback.
  EXPECT_TRUE(Listener.edges().empty());
}

} // namespace
