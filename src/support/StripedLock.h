//===- support/StripedLock.h - Cache-padded lock stripes --------*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size set of cache-line-padded spin locks for sharding a data
/// structure by owner (the IDG shards by thread). Stripes form a total
/// order by index: acquiring stripes in ascending index order — and never
/// acquiring a lower index while holding a higher one — is deadlock-free.
///
/// Each stripe counts its cross-holder handoffs: acquisitions by a different
/// holder than the last one. A handoff migrates the lock word and the lines
/// it protects between cores, so the count (icd.idg_lock_handoffs) is a
/// proxy for the coherence traffic a sharding scheme causes.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SUPPORT_STRIPEDLOCK_H
#define DC_SUPPORT_STRIPEDLOCK_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "support/SpinLock.h"

namespace dc {

/// A set of spin-lock stripes with last-holder tracking.
class StripedLockSet {
public:
  /// Holder id meaning "never locked".
  static constexpr uint32_t NoHolder = ~0u;

  explicit StripedLockSet(uint32_t Count)
      : Stripes(new Stripe[Count]), N(Count) {
    assert(Count > 0 && "need at least one stripe");
  }

  uint32_t count() const { return N; }

  /// Acquires stripe \p I on behalf of \p Holder, counting a handoff when
  /// the stripe was last held by a different holder.
  void lock(uint32_t I, uint32_t Holder) {
    assert(I < N && "stripe index out of range");
    Stripe &S = Stripes[I];
    S.L.lock();
    // Single writer (we hold L); relaxed keeps readers race-free.
    if (S.LastHolder != Holder && S.LastHolder != NoHolder)
      S.Handoffs.store(S.Handoffs.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    S.LastHolder = Holder;
    S.CurHolder.store(Holder, std::memory_order_relaxed);
  }

  void unlock(uint32_t I) {
    assert(I < N && "stripe index out of range");
    Stripes[I].CurHolder.store(NoHolder, std::memory_order_relaxed);
    Stripes[I].L.unlock();
  }

  /// True when \p Holder currently holds stripe \p I. Only exact for the
  /// *calling* holder asking about itself (another holder's acquisition or
  /// release races with the read); that is the one query the tests need —
  /// "which stripes do I hold right now?".
  bool heldBy(uint32_t I, uint32_t Holder) const {
    assert(I < N && "stripe index out of range");
    return Stripes[I].CurHolder.load(std::memory_order_relaxed) == Holder;
  }

  /// Number of stripes currently held by \p Holder (see heldBy).
  uint32_t heldCount(uint32_t Holder) const {
    uint32_t Count = 0;
    for (uint32_t I = 0; I < N; ++I)
      Count += heldBy(I, Holder) ? 1 : 0;
    return Count;
  }

  /// Total cross-holder handoffs across all stripes. Exact once every
  /// holder is quiescent; a read that races a late holder (a collector
  /// still running after its drain timed out at endRun) sees a snapshot.
  uint64_t totalHandoffs() const {
    uint64_t Sum = 0;
    for (uint32_t I = 0; I < N; ++I)
      Sum += Stripes[I].Handoffs.load(std::memory_order_relaxed);
    return Sum;
  }

private:
  struct alignas(64) Stripe {
    SpinLock L;
    uint32_t LastHolder = NoHolder; ///< Guarded by L.
    std::atomic<uint64_t> Handoffs{0}; ///< Written under L.
    /// Current holder (NoHolder when free). Written while holding L;
    /// atomic so a holder can ask "do I hold this?" without taking locks.
    std::atomic<uint32_t> CurHolder{NoHolder};
  };

  std::unique_ptr<Stripe[]> Stripes;
  uint32_t N;
};

} // namespace dc

#endif // DC_SUPPORT_STRIPEDLOCK_H
