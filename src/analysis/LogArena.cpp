//===- analysis/LogArena.cpp ----------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LogArena.h"

using namespace dc;
using namespace dc::analysis;

LogChunkPool::~LogChunkPool() {
  for (LogChunk *C = Free; C != nullptr;) {
    LogChunk *Next = C->Next;
    delete C;
    C = Next;
  }
}

LogChunk *LogChunkPool::popBatch(uint32_t Max) {
  LogChunk *Chain = nullptr;
  uint32_t Got = 0;
  {
    SpinLockGuard Guard(Lock);
    while (Got < Max && Free != nullptr) {
      LogChunk *C = Free;
      Free = C->Next;
      C->Next = Chain;
      Chain = C;
      ++Got;
    }
  }
  if (Got != 0)
    Reuses.fetch_add(Got, std::memory_order_relaxed);
  if (Got < Max) {
    Allocs.fetch_add(Max - Got, std::memory_order_relaxed);
    for (; Got < Max; ++Got) {
      LogChunk *C = new LogChunk();
      C->Next = Chain;
      Chain = C;
    }
  }
  if (Gov != nullptr)
    Gov->logBytes(static_cast<int64_t>(Max) * sizeof(LogChunk));
  return Chain;
}

void LogChunkPool::recycle(LogChunk *Head, LogChunk *Tail, uint64_t N) {
  if (Head == nullptr)
    return;
  if (Gov != nullptr)
    Gov->logBytes(-static_cast<int64_t>(N) * sizeof(LogChunk));
  SpinLockGuard Guard(Lock);
  Tail->Next = Free;
  Free = Head;
}

bool LogChunkPool::admitRefill() {
  uint64_t N = RefillCalls.fetch_add(1, std::memory_order_relaxed) + 1;
  if (FailAt != 0 && N == FailAt) {
    Refusals.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (Gov != nullptr && (Gov->pressure() & PressureLogBytes) != 0) {
    Refusals.fetch_add(1, std::memory_order_relaxed);
    Gov->countBreach();
    return false;
  }
  return true;
}

LogChunkCache::~LogChunkCache() {
  // Cached chunks were charged to the governor's log-byte gauge when
  // popBatch handed them out; recycling them (rather than deleting) issues
  // the matching credit, so MaxLogBytes accounting balances; deleted, the
  // chunks would stay charged forever and skew every later pressure
  // decision.
  if (Pool != nullptr && Free != nullptr) {
    LogChunk *Tail = Free;
    while (Tail->Next != nullptr)
      Tail = Tail->Next;
    Pool->recycle(Free, Tail, Count);
    Free = nullptr;
    Count = 0;
    return;
  }
  for (LogChunk *C = Free; C != nullptr;) {
    LogChunk *Next = C->Next;
    delete C;
    C = Next;
  }
}

LogChunk *LogChunkCache::tryGet() {
  if (Free == nullptr) {
    if (Pool == nullptr)
      return new LogChunk();
    if (!Pool->admitRefill())
      return nullptr;
    Free = Pool->popBatch(RefillBatch);
    Count = RefillBatch;
  }
  LogChunk *C = Free;
  Free = C->Next;
  --Count;
  C->Next = nullptr;
  return C;
}

LogChunk *LogChunkCache::get() {
  LogChunk *C = tryGet();
  // Never-fail contract: EdgeIn markers must land even when the pool is
  // refusing refills (the shed decision belongs to access logging only).
  return C != nullptr ? C : new LogChunk();
}
