/**
 * @file
 * Reusable phase barrier for the host-parallel tick engine.
 *
 * Unlike ultra::rt::Barrier (a *simulated-runtime* primitive whose cost
 * the benchmarks measure), this barrier is simulator infrastructure: it
 * separates the compute and commit phases of a simulated cycle, so it
 * must be cheap when workers arrive nearly together (the common case at
 * a few microseconds per phase) and must not burn a core when they do
 * not.  Arrivals spin briefly on the epoch word, then park on it with
 * std::atomic::wait (a futex on Linux); the releasing thread bumps the
 * epoch and notifies.
 *
 * The epoch scheme makes the barrier reusable with no quiescent period:
 * the last arriver resets the arrival count *before* publishing the new
 * epoch, so a fast thread re-entering the next episode can never observe
 * stale state.
 */

#ifndef ULTRA_PAR_BARRIER_H
#define ULTRA_PAR_BARRIER_H

#include <atomic>
#include <cstdint>

#include "common/log.h"

namespace ultra::par
{

/** Reusable fork-join barrier for a fixed set of participants. */
class PhaseBarrier
{
  public:
    explicit PhaseBarrier(unsigned parties) : parties_(parties)
    {
        ULTRA_ASSERT(parties > 0);
    }

    PhaseBarrier(const PhaseBarrier &) = delete;
    PhaseBarrier &operator=(const PhaseBarrier &) = delete;

    /** Block until all parties arrive; reusable across episodes. */
    void
    arriveAndWait()
    {
        const std::uint32_t epoch =
            epoch_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            arrived_.store(0, std::memory_order_relaxed);
            // seq_cst, not release: notify_all() skips the futex wake
            // when libstdc++'s waiter count reads 0, and a release
            // store may still sit in the store buffer when that count
            // is loaded.  A waiter that registers and checks the epoch
            // in that gap sleeps on the old epoch for good.
            epoch_.store(epoch + 1, std::memory_order_seq_cst);
            epoch_.notify_all();
            return;
        }
        // Spin first: in a tick loop the other shards are microseconds
        // away, and a futex round trip costs more than the whole phase.
        for (int spin = 0; spin < 4096; ++spin) {
            if (epoch_.load(std::memory_order_acquire) != epoch)
                return;
        }
        while (epoch_.load(std::memory_order_acquire) == epoch)
            epoch_.wait(epoch, std::memory_order_acquire);
    }

    unsigned parties() const { return parties_; }

  private:
    const unsigned parties_;
    alignas(64) std::atomic<std::uint32_t> arrived_{0};
    alignas(64) std::atomic<std::uint32_t> epoch_{0};
};

} // namespace ultra::par

#endif // ULTRA_PAR_BARRIER_H
