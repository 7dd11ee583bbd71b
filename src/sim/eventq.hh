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
 * Events are arbitrary callables. The queue itself is not thread
 * safe: only one host thread may schedule into or run it at a time.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

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
     * Takes the callable by forwarding reference: the std::function
     * is constructed directly in the heap entry, skipping one
     * std::function move per schedule on the hot path.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb, int priority = prioDefault)
    {
        ccsvm_assert(when >= now_,
                     "scheduling in the past: when=%llu now=%llu",
                     (unsigned long long)when, (unsigned long long)now_);
        heap_.push_back(
            Entry{when, priority, seq_++, std::forward<F>(cb)});
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
        // pop_heap swaps the earliest entry to the back (move-
        // assigning whole entries; it never compares an entry that
        // has been moved from), so extraction does not depend on the
        // comparator tolerating a moved-from std::function. The entry
        // is fully moved out before cb() runs, since running it may
        // schedule (and so reallocate the heap).
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        now_ = e.when;
        ++executed_;
        e.cb();
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
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Callback cb;
    };

    /** Heap order: a runs after b. std::*_heap with this comparator
     * keeps the earliest event at the front. A function object, not
     * a function pointer, so the heap algorithms inline it. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
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
    std::vector<Entry> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_EVENTQ_HH
