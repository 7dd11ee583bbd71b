/**
 * @file
 * The discrete-event simulation kernel.
 *
 * An EventQueue orders the simulated work of one whole machine (the
 * CCSVM chip, the APU baseline) or of a standalone component under
 * test. Ticks are picoseconds; events at equal ticks are ordered by
 * (priority, insertion sequence) so simulations are fully
 * deterministic. A queue is single-threaded; host parallelism comes
 * from running independent machines side by side (sim::SweepRunner).
 *
 * The heap orders 24-byte keys {when, priority, slot, seq}; the
 * callbacks stay put in a slot pool (reused through a free list), so
 * heap sifting moves no closures. Callbacks are InlineCallbacks:
 * closures of up to InlineCallback::capacity bytes stored inline, so
 * scheduling never allocates once the pool has grown to the peak
 * number of pending events. A closure that outgrows the capacity does
 * not compile; it must capture ids or pool indices, not whole
 * messages.
 */

#ifndef CCSVM_SIM_EVENTQ_HH
#define CCSVM_SIM_EVENTQ_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/callback.hh"

namespace ccsvm::sim
{

/** Default event priorities; lower values run first within a tick. */
enum : int
{
    prioNetwork = -10,
    prioDefault = 0,
    prioCpu = 10,
    prioStats = 100,
};

/**
 * Deterministic discrete-event queue.
 *
 * Events are void() closures that fit an InlineCallback. The queue
 * itself is not thread safe: only one host thread may schedule into or
 * run it at a time.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    static constexpr Tick maxTick = std::numeric_limits<Tick>::max();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Total events executed so far (for progress/perf reporting). */
    std::uint64_t eventsExecuted() const { return executed_; }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * The closure is built directly in a free pool slot.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb, int priority = prioDefault)
    {
        ccsvm_assert(when >= now_,
                     "scheduling in the past: when=%llu now=%llu",
                     (unsigned long long)when, (unsigned long long)now_);
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back(std::forward<F>(cb));
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slots_[slot].emplace(std::forward<F>(cb));
        }
        heap_.push_back(Key{when, priority, slot, seq_++});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&cb, int priority = prioDefault)
    {
        schedule(now_ + delta, std::forward<F>(cb), priority);
    }

    /**
     * Pop and run the earliest event.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Key k = heap_.back();
        heap_.pop_back();
        // Move the callback out and free its slot before running it:
        // the callback may schedule, which may reuse the slot or grow
        // (and so reallocate) the pool.
        Callback cb = std::move(slots_[k.slot]);
        freeSlots_.push_back(k.slot);
        now_ = k.when;
        ++executed_;
        cb();
        return true;
    }

    /**
     * Run events until the queue drains or simulated time would exceed
     * @p limit.
     * @return the final simulated time.
     */
    Tick
    run(Tick limit = maxTick)
    {
        while (!heap_.empty() && heap_.front().when <= limit)
            runOne();
        return now_;
    }

    /**
     * Run until @p done returns true (checked after every event) or the
     * queue drains.
     * @return true iff the predicate was satisfied.
     */
    bool
    runUntil(const std::function<bool()> &done, Tick limit = maxTick)
    {
        if (done())
            return true;
        while (!heap_.empty() && heap_.front().when <= limit) {
            runOne();
            if (done())
                return true;
        }
        return false;
    }

    /** Timestamp of the earliest pending event, or maxTick. */
    Tick
    peekWhen() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

  private:
    /** What the heap orders: small and trivially copyable, so a sift
     * step moves 24 bytes. */
    struct Key
    {
        Tick when;
        std::int32_t priority;
        std::uint32_t slot; ///< index of the callback in slots_
        std::uint64_t seq;
    };
    static_assert(sizeof(Key) == 24);

    /** Heap order: a runs after b. std::*_heap with this comparator
     * keeps the earliest event at the front. A function object, not
     * a function pointer, so the heap algorithms inline it. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** Min-heap over Later, managed with std::push_heap /
     * std::pop_heap; front() is the earliest event. */
    std::vector<Key> heap_;
    /** Callback pool; a slot is empty unless a pending key names it. */
    std::vector<Callback> slots_;
    /** Empty slots of slots_, reused last-freed first. */
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_EVENTQ_HH
