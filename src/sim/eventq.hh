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
 * Pending events are kept in a radix heap (Ahuja, Mehlhorn, Orlin and
 * Tarjan, JACM 1990), which works because simulated time never goes
 * back. The queue remembers the tick it last refilled from, `last_`.
 * Events due at that tick sit in a short run sorted by (priority,
 * seq). Every later event sits in bucket b, where b is the highest bit
 * in which its tick differs from `last_`. When the due run is used up,
 * the lowest non-empty bucket (found with a 64-bit occupancy mask and
 * one count-trailing-zeros) is emptied: its smallest tick (kept per
 * bucket as events arrive) becomes the new `last_`, and each of its
 * events drops into the due run or into a strictly lower bucket. An
 * event is therefore moved at most 64 times however many are pending,
 * and the pop order is exactly (when, priority, seq). A tick holds a
 * handful of events (one per core clocked on that edge, plus their
 * follow-ups), and an event scheduled for the running tick almost
 * always sorts last, so the run is sorted once per refill and
 * appended to, not kept as a heap.
 *
 * Callbacks stay put in a slot pool (reused through a free list). Each
 * slot has a key beside it holding its tick, priority, sequence number
 * and the next slot of its bucket, so the buckets are intrusive lists
 * and neither scheduling nor refilling moves a closure or allocates.
 * Callbacks are InlineCallbacks: closures of up to
 * InlineCallback::capacity bytes stored inline, so scheduling never
 * allocates once the pool has grown to the peak number of pending
 * events. A closure that outgrows the capacity does not compile; it
 * must capture ids or pool indices, not whole messages.
 */

#ifndef CCSVM_SIM_EVENTQ_HH
#define CCSVM_SIM_EVENTQ_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
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

    /** A slot is taken exactly while its event is pending. */
    std::size_t size() const { return slots_.size() - freeSlots_.size(); }
    bool empty() const { return size() == 0; }

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
            keys_.emplace_back();
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slots_[slot].emplace(std::forward<F>(cb));
        }
        enqueue(slot, when, priority);
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
        if (due_.empty()) {
            if (mask_ == 0)
                return false;
            refill();
        }
        const std::uint32_t slot = due_[dueHead_++].slot;
        if (dueHead_ == due_.size()) {
            due_.clear();
            dueHead_ = 0;
        }
        // Move the callback out and free its slot before running it:
        // the callback may schedule, which may reuse the slot or grow
        // (and so reallocate) the pool.
        Callback cb = std::move(slots_[slot]);
        freeSlots_.push_back(slot);
        now_ = last_;
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
        while (!empty() && peekWhen() <= limit)
            runOne();
        return now_;
    }

    /**
     * Run until @p done returns true (checked after every event) or the
     * queue drains.
     * @return true iff the predicate was satisfied.
     */
    template <typename Done>
    bool
    runUntil(Done &&done, Tick limit = maxTick)
    {
        if (done())
            return true;
        while (!empty() && peekWhen() <= limit) {
            runOne();
            if (done())
                return true;
        }
        return false;
    }

    /**
     * Timestamp of the earliest pending event, or maxTick. This may
     * refill the due run from a bucket, which leaves the pop order
     * unchanged.
     */
    Tick
    peekWhen() const
    {
        if (!due_.empty())
            return last_;
        if (mask_ == 0)
            return maxTick;
        refill();
        return last_;
    }

  private:
    static constexpr std::uint32_t noSlot =
        std::numeric_limits<std::uint32_t>::max();
    static constexpr int numBuckets = 64;

    /** A pending event's key, kept beside its callback slot. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::int32_t priority;
        std::uint32_t next; ///< next slot in the same bucket, or noSlot
    };
    static_assert(sizeof(Key) == 24);

    /** An entry of the due run: all its events are due at last_, so
     * only (priority, seq) orders them. */
    struct Due
    {
        std::int32_t priority;
        std::uint32_t slot;
        std::uint64_t seq;
    };

    /** Run order within a tick: a runs before b. */
    static bool
    before(const Due &a, const Due &b)
    {
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    /** Record pool slot @p slot's key and file it in the due run or a
     * bucket. Out of line: every schedule() instantiation calls it. */
    void enqueue(std::uint32_t slot, Tick when, int priority);

    /** Insert @p d into the sorted due_ run. A new event usually has
     * the highest seq and no lower priority than what is left, so it
     * lands at the back. */
    void
    insertDue(const Due &d)
    {
        due_.push_back(d);
        std::size_t i = due_.size() - 1;
        for (; i != dueHead_ && before(d, due_[i - 1]); --i)
            due_[i] = due_[i - 1];
        due_[i] = d;
    }

    /** Put pending @p slot in its bucket.
     * @pre keys_[slot].when > last_ */
    void
    bucket(std::uint32_t slot) const
    {
        Key &k = keys_[slot];
        const int b = std::bit_width(k.when ^ last_) - 1;
        k.next = heads_[b];
        heads_[b] = slot;
        mins_[b] = std::min(mins_[b], k.when);
        mask_ |= std::uint64_t{1} << b;
    }

    /** File the chain starting at @p s around last_: events due at
     * last_ go to due_ (then sorted), the rest to lower buckets.
     * @pre due_ is empty */
    void fileChain(std::uint32_t s) const;

    /** Empty the lowest non-empty bucket: its earliest tick becomes
     * last_ and each of its events moves to due_ or a lower bucket.
     * @pre due_ is empty and mask_ != 0 */
    void refill() const;

    /**
     * Re-bucket every pending event around @p when, the new earliest
     * tick. Only a schedule after run(limit) or peekWhen() refilled
     * past now() lands before last_.
     */
    void rebucket(Tick when);

    template <typename T>
    static constexpr std::array<T, numBuckets>
    filled(T v)
    {
        std::array<T, numBuckets> a{};
        a.fill(v);
        return a;
    }

    /** Callback pool; a slot is empty unless its event is pending. */
    std::vector<Callback> slots_;
    /** Empty slots of slots_, reused last-freed first. */
    std::vector<std::uint32_t> freeSlots_;

    // The radix heap. peekWhen() refills it, so it is mutable.
    /** Key of each slot of slots_ (stale while the slot is free). */
    mutable std::vector<Key> keys_;
    /** Events due at last_ in run order; due_[dueHead_] runs next.
     * Cleared when the last one is taken, so a non-empty due_ always
     * has an event left to run. */
    mutable std::vector<Due> due_;
    mutable std::size_t dueHead_ = 0;
    /** Head slot of bucket b: events whose tick differs from last_
     * first in bit b (counting from 0 at the lowest bit). */
    mutable std::array<std::uint32_t, numBuckets> heads_ = filled(noSlot);
    /** Earliest tick in bucket b; maxTick while it is empty. */
    mutable std::array<Tick, numBuckets> mins_ = filled(maxTick);
    /** Bit b set iff bucket b is not empty. */
    mutable std::uint64_t mask_ = 0;
    /** The tick of the last refill; no pending event is earlier. */
    mutable Tick last_ = 0;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_EVENTQ_HH
