/**
 * @file
 * Unit tests for the event queue and clock domains.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/clock.hh"
#include "sim/eventq.hh"

namespace ccsvm::sim
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenSeq)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, 0);
    eq.schedule(5, [&] { order.push_back(1); }, -1);
    eq.schedule(5, [&] { order.push_back(3); }, 0);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleIn(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

TEST(EventQueue, SameTickChurnKeepsDeterministicOrder)
{
    // (priority, seq) order must stay exact while callbacks schedule
    // more same-tick events mid-run, which grows (and may reallocate)
    // the due run under the extraction.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] {
        order.push_back(1);
        // Same-tick follow-ups at mixed priorities, scheduled while
        // the tick is already draining.
        eq.schedule(7, [&] { order.push_back(4); }, prioCpu);
        eq.schedule(7, [&] { order.push_back(3); }, prioDefault);
        for (int i = 0; i < 64; ++i)
            eq.schedule(8, [&] { order.push_back(5); });
    }, prioNetwork);
    eq.schedule(7, [&] { order.push_back(2); }, prioDefault);
    eq.run();
    ASSERT_EQ(order.size(), 4u + 64u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2); // earlier seq at equal priority
    EXPECT_EQ(order[2], 3);
    EXPECT_EQ(order[3], 4);
    EXPECT_EQ(eq.now(), 8u);
    EXPECT_EQ(eq.eventsExecuted(), 68u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.run(15);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int x = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&] { ++x; });
    bool ok = eq.runUntil([&] { return x == 4; });
    EXPECT_TRUE(ok);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, RunUntilReturnsFalseWhenDrained)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    bool ok = eq.runUntil([] { return false; });
    EXPECT_FALSE(ok);
}

TEST(EventQueue, PushBeforeRefilledTickReBuckets)
{
    // run(limit) stops once peekWhen() has refilled past the limit,
    // leaving now() behind the queue's refilled tick. A push landing
    // in between must come out first, ahead of events already pulled
    // into the same-tick heap.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(100); });
    eq.schedule(200, [&] { order.push_back(201); }, prioCpu);
    eq.schedule(200, [&] { order.push_back(200); });
    eq.schedule(300, [&] { order.push_back(300); });
    EXPECT_EQ(eq.run(150), 100u);
    EXPECT_EQ(eq.peekWhen(), 200u);

    eq.schedule(170, [&] { order.push_back(170); });
    EXPECT_EQ(eq.peekWhen(), 170u);
    eq.schedule(160, [&] { order.push_back(160); });
    eq.schedule(200, [&] { order.push_back(199); }, prioNetwork);
    eq.schedule(100, [&] { order.push_back(101); });
    EXPECT_EQ(eq.peekWhen(), 100u);
    EXPECT_EQ(eq.size(), 7u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{100, 101, 160, 170, 199, 200,
                                       201, 300}));
    EXPECT_EQ(eq.now(), 300u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.peekWhen(), EventQueue::maxTick);
}

TEST(EventQueue, PushAfterPeekInsideAnEvent)
{
    // An event may peek (which refills past now()) and then schedule
    // at now(): the new event still runs before the peeked one.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(1);
        EXPECT_EQ(eq.peekWhen(), 50u);
        eq.schedule(10, [&] { order.push_back(2); }, prioStats);
        eq.schedule(49, [&] { order.push_back(3); });
    });
    eq.schedule(50, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, SameTickTiesFromRefillAndDirectPush)
{
    // Events at tick 40 reach the same-tick heap two ways: pushed
    // before the queue reached 40 (they wait in a bucket and arrive
    // by refill) and pushed while tick 40 runs (straight in). Both
    // must interleave by (priority, seq).
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(40, [&] {
        order.push_back('A');
        eq.schedule(40, [&] { order.push_back('C'); }, prioCpu);
        eq.schedule(40, [&] { order.push_back('E'); }, prioStats);
        eq.schedule(40, [&] { order.push_back('B'); }, prioNetwork);
        eq.schedule(40, [&] { order.push_back('D'); }, prioCpu);
    }, prioDefault);
    eq.schedule(40, [&] { order.push_back('c'); }, prioCpu);
    eq.schedule(40, [&] { order.push_back('a'); }, prioNetwork);
    // Earlier ticks that share the bucket with 40 force a partial
    // refill first.
    eq.schedule(33, [&] { order.push_back('0'); }, prioStats);
    eq.schedule(41, [&] { order.push_back('Z'); }, prioNetwork);
    eq.run();
    // 'a' (prio -10, bucketed) first, then 'A' (prio 0); 'B' was
    // pushed at prio -10 while 40 ran, so it beats everything left.
    // At prioCpu the bucketed 'c' has the lowest seq, then C, D.
    EXPECT_EQ(std::string(order.begin(), order.end()), "0aABcCDEZ");
}

TEST(EventQueue, TicksNearTopOfRange)
{
    // Keys that differ in bit 63 and keys at the very top of the
    // range, with the queue's refilled tick crossing 2^63.
    constexpr Tick half = Tick{1} << 63;
    EventQueue eq;
    std::vector<Tick> seen;
    const auto note = [&] { seen.push_back(eq.now()); };
    eq.schedule(EventQueue::maxTick, note);
    eq.schedule(half + 1, note);
    eq.schedule(half - 1, [&] {
        note();
        eq.schedule(half, note, prioNetwork);
        eq.schedule(EventQueue::maxTick - 1, note);
    });
    eq.schedule(7, note);
    eq.schedule(half, note, prioStats);
    EXPECT_EQ(eq.run(half - 2), 7u);
    EXPECT_EQ(eq.peekWhen(), half - 1);
    eq.schedule(half - 2, note);
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{7, half - 2, half - 1, half, half,
                                       half + 1, EventQueue::maxTick - 1,
                                       EventQueue::maxTick}));
    EXPECT_EQ(eq.now(), EventQueue::maxTick);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RandomScheduleMatchesReferenceSort)
{
    // ~20k events at random ticks and priorities, 8k of them
    // scheduled from inside running callbacks (so freed slots are
    // reused and the pool grows mid-run). The host drives the queue
    // through run(limit) to random limits and schedules between the
    // calls, and both the host and events peek at random points, so
    // pushes land behind the queue's refilled tick. Execution must
    // follow a reference sort by (when, priority, insertion order),
    // and every peek must name the earliest pending tick.
    struct Sched
    {
        Tick when;
        int priority;
        std::uint64_t id;
    };
    /** A peekWhen() result with how many events had run and been
     * scheduled when it was taken. */
    struct Peek
    {
        Tick when;
        std::size_t ran;
        std::size_t scheduled;
    };
    EventQueue eq;
    std::mt19937_64 rng(20130421);
    std::vector<Sched> scheduled;
    std::vector<std::uint64_t> ran;
    std::vector<Peek> peeks;
    std::uint64_t corrupt = 0;

    const auto peek = [&] {
        peeks.push_back({eq.peekWhen(), ran.size(), scheduled.size()});
    };
    // Every closure carries a payload that must survive slot reuse
    // and pool growth.
    std::function<void(Tick, int)> add = [&](Tick when, int prio) {
        const std::uint64_t id = scheduled.size();
        scheduled.push_back({when, prio, id});
        std::array<std::uint64_t, 12> payload;
        payload.fill(id * 0x9e3779b97f4a7c15ull);
        eq.schedule(when, [&, id, prio, payload] {
            for (std::uint64_t w : payload)
                corrupt += w != id * 0x9e3779b97f4a7c15ull;
            ran.push_back(id);
            if (rng() % 16 == 0)
                peek();
            // One or two follow-ups from a third of the events, so
            // one slot is freed and up to two are taken in a row.
            const unsigned kids = rng() % 3 == 0 ? 1 + rng() % 2 : 0;
            for (unsigned k = 0; k < kids && scheduled.size() < 20000;
                 ++k) {
                // Strictly later, or the same tick at the same
                // priority: both run after this event in the sort.
                if (rng() % 4 == 0)
                    add(eq.now(), prio);
                else
                    add(eq.now() + 1 + rng() % 64,
                        static_cast<int>(rng() % 5) - 2);
            }
        }, prio);
    };
    for (int i = 0; i < 12000; ++i)
        add(rng() % 5000, static_cast<int>(rng() % 5) - 2);
    while (!eq.empty()) {
        if (rng() % 2 == 0)
            peek();
        const Tick limit = eq.now() + rng() % 128;
        EXPECT_LE(eq.run(limit), limit);
        // Strictly after now(), so it sorts after everything that
        // ran; often before the tick run(limit) stopped at.
        if (rng() % 2 == 0 && scheduled.size() < 20000)
            add(eq.now() + 1 + rng() % 64,
                static_cast<int>(rng() % 5) - 2);
    }

    std::vector<Sched> ref = scheduled;
    std::sort(ref.begin(), ref.end(), [](const Sched &a, const Sched &b) {
        return std::tie(a.when, a.priority, a.id) <
               std::tie(b.when, b.priority, b.id);
    });
    std::vector<std::uint64_t> expect;
    for (const Sched &e : ref)
        expect.push_back(e.id);
    EXPECT_GT(scheduled.size(), 19000u);
    EXPECT_EQ(ran, expect);
    EXPECT_EQ(corrupt, 0u);
    EXPECT_EQ(eq.eventsExecuted(), scheduled.size());
    EXPECT_TRUE(eq.empty());

    // A peek's answer is the earliest tick among the events that had
    // been scheduled then but had not yet run.
    EXPECT_GT(peeks.size(), 500u);
    std::size_t wrong = 0;
    for (const Peek &p : peeks) {
        Tick earliest = EventQueue::maxTick;
        for (std::size_t k = p.ran; k < ran.size(); ++k)
            if (ran[k] < p.scheduled)
                earliest = std::min(earliest, scheduled[ran[k]].when);
        wrong += p.when != earliest;
    }
    EXPECT_EQ(wrong, 0u);
}

TEST(EventQueue, MoveOnlyCapture)
{
    EventQueue eq;
    int got = 0;
    auto p = std::make_unique<int>(42);
    eq.schedule(1, [p = std::move(p), &got] { got = *p; });
    eq.run();
    EXPECT_EQ(got, 42);
}

TEST(EventQueue, CapturesAreReleasedAfterRunAndWithTheQueue)
{
    auto sp = std::make_shared<int>(7);
    {
        EventQueue eq;
        long during = 0, after = 0;
        eq.schedule(1, [sp, &during] { during = sp.use_count(); });
        eq.schedule(2, [&] { after = sp.use_count(); });
        eq.schedule(5, [sp] {});
        eq.run(3);
        EXPECT_EQ(during, 3); // test's, the running and the t=5 copy
        EXPECT_EQ(after, 2);  // the t=1 closure is gone once it ran
        EXPECT_EQ(sp.use_count(), 2); // t=5 is still pending
    }
    EXPECT_EQ(sp.use_count(), 1); // destroyed with the queue
}

// A closure one byte over the inline capacity must not convert: no
// heap fallback exists.
struct Oversize
{
    std::array<std::uint8_t, InlineCallback::capacity + 1> bytes;
    void operator()() const {}
};
struct AtCapacity
{
    std::array<std::uint8_t, InlineCallback::capacity> bytes;
    void operator()() const {}
};
static_assert(!std::is_constructible_v<EventQueue::Callback, Oversize>);
static_assert(std::is_constructible_v<EventQueue::Callback, AtCapacity>);
static_assert(!std::is_copy_constructible_v<EventQueue::Callback>);

TEST(ClockDomain, EdgeAlignment)
{
    EventQueue eq;
    ClockDomain clk(eq, 345); // 2.9 GHz CPU clock
    // At time 0, the aligned edge is 0.
    EXPECT_EQ(clk.clockEdge(), 0u);
    eq.schedule(1, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 1u);
    EXPECT_EQ(clk.clockEdge(), 345u);
    EXPECT_EQ(clk.clockEdge(2), 345u + 2 * 345u);
}

TEST(ClockDomain, Conversions)
{
    EventQueue eq;
    ClockDomain clk(eq, 1667); // 600 MHz MTTOP clock
    EXPECT_EQ(clk.cyclesToTicks(3), 5001u);
    EXPECT_EQ(clk.ticksToCycles(1667), 1u);
    EXPECT_EQ(clk.ticksToCycles(1668), 2u);
}

TEST(ClockDomain, MixedDomainsInterleave)
{
    EventQueue eq;
    ClockDomain cpu(eq, 345);
    ClockDomain mttop(eq, 1667);
    std::vector<char> order;
    // One CPU event per CPU cycle and one MTTOP event per MTTOP cycle;
    // the CPU must fire ~4.8x as often.
    for (Cycles c = 1; c <= 48; ++c)
        eq.schedule(cpu.cyclesToTicks(c), [&] { order.push_back('c'); });
    for (Cycles c = 1; c <= 10; ++c)
        eq.schedule(mttop.cyclesToTicks(c),
                    [&] { order.push_back('m'); });
    eq.run();
    EXPECT_EQ(std::count(order.begin(), order.end(), 'c'), 48);
    EXPECT_EQ(std::count(order.begin(), order.end(), 'm'), 10);
    // The last event overall is the 10th MTTOP tick (16670 > 16560).
    EXPECT_EQ(order.back(), 'm');
}

} // namespace
} // namespace ccsvm::sim
