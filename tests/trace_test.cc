/**
 * @file
 * The transaction tracer's contract:
 *
 *  - category parsing and the enabled() mask test
 *  - capacity wraparound: oldest events overwritten, the drop count
 *    reported, the survivors the most recent ones
 *  - deterministic export order: events sort by (when, seq)
 *  - writeJson structure (metadata rows, exact microsecond ts)
 *  - machine-level determinism: a traced matmul run exports the same
 *    trace document and the same time-series samples every time
 *  - observers are pure: tracing plus sampling leaves the stats dump
 *    byte-identical to an unobserved run
 *  - zero-overhead-when-disabled: an untraced run records nothing.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/trace.hh"
#include "system/ccsvm_machine.hh"
#include "workloads/workloads.hh"

namespace ccsvm
{
namespace
{

TEST(TraceCategories, ParseListsAndRejectUnknown)
{
    unsigned mask = 0;
    EXPECT_TRUE(sim::Tracer::parseCategories("all", mask));
    EXPECT_EQ(mask, sim::traceAll);

    EXPECT_TRUE(sim::Tracer::parseCategories("coh,noc", mask));
    EXPECT_EQ(mask, sim::traceCoh | sim::traceNoc);

    EXPECT_TRUE(sim::Tracer::parseCategories("kernel", mask));
    EXPECT_EQ(mask, unsigned(sim::traceKernel));

    // Any other token, "engine" included, is rejected.
    mask = 0xdead;
    EXPECT_FALSE(sim::Tracer::parseCategories("engine", mask));

    mask = 0xdead;
    EXPECT_FALSE(sim::Tracer::parseCategories("coh,bogus", mask));
    EXPECT_EQ(mask, 0xdeadu) << "mask must be untouched on failure";
}

TEST(TraceCategories, EnabledIsAMaskTest)
{
    sim::Tracer t;
    EXPECT_FALSE(t.anyEnabled());
    t.setMask(sim::traceCoh | sim::traceVm);
    EXPECT_TRUE(t.enabled(sim::traceCoh));
    EXPECT_TRUE(t.enabled(sim::traceVm));
    EXPECT_FALSE(t.enabled(sim::traceNoc));
    EXPECT_FALSE(t.enabled(sim::traceKernel));
    EXPECT_TRUE(t.anyEnabled());
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDrops)
{
    sim::Tracer t;
    t.setMask(sim::traceAll);
    t.setCapacity(4);
    const int lane = t.lane("test");
    for (Tick i = 0; i < 10; ++i)
        t.instant(sim::traceCoh, lane, "ev", i, i);

    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    const std::vector<sim::TraceEvent> &evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    for (std::size_t i = 0; i < evs.size(); ++i) {
        EXPECT_EQ(evs[i].when, Tick(6 + i));
        EXPECT_EQ(evs[i].seq, 6 + i);
    }
}

TEST(TraceRing, ExportOrderIsWhenThenSeq)
{
    // Spans are recorded when they end, so export sorts by start
    // tick, then by record order.
    sim::Tracer t;
    t.setMask(sim::traceAll);
    const int lane = t.lane("test");
    t.instant(sim::traceCoh, lane, "late", 500, 0);
    t.instant(sim::traceCoh, lane, "early", 100, 1);
    t.complete(sim::traceCoh, lane, "early2", 100, 200, 2);

    const std::vector<sim::TraceEvent> &evs = t.events();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_STREQ(evs[0].name, "early");
    EXPECT_STREQ(evs[1].name, "early2");
    EXPECT_STREQ(evs[2].name, "late");
    EXPECT_LT(evs[0].seq, evs[1].seq);
}

TEST(TraceJson, StructureAndMicrosecondFormatting)
{
    sim::Tracer t;
    t.setMask(sim::traceAll);
    const int lane = t.lane("lane0");
    // 1234567 ps = 1.234567 us; spans 1 us.
    t.complete(sim::traceNoc, lane, "pkt", 1234567, 2234567, 64);
    t.instant(sim::traceKernel, lane, "launch", 5, 0, false);

    std::ostringstream ss;
    t.writeJson(ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(out.find("process_name"), std::string::npos);
    EXPECT_NE(out.find("\"lane0\""), std::string::npos);
    EXPECT_NE(out.find("\"ts\": 1.234567"), std::string::npos) << out;
    EXPECT_NE(out.find("\"dur\": 1.000000"), std::string::npos);
    EXPECT_NE(out.find("\"cat\": \"noc\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(out.find("\"recorded\": 2"), std::string::npos);
}

/** Trace, series and stats of one matmul run; tracing and sampling
 * are off when @p cats is empty. */
struct TracedRun
{
    std::string trace;
    std::vector<system::CcsvmMachine::Sample> samples;
    std::uint64_t recorded = 0;
    std::string stats;
};

TracedRun
runTraced(const std::string &cats)
{
    system::CcsvmConfig cfg;
    cfg.traceCategories = cats;
    cfg.sampleInterval = cats.empty() ? 0 : 500000;
    system::CcsvmMachine m(cfg);
    workloads::matmulXthreads(m, 8);

    TracedRun out;
    out.recorded = m.stats().tracer().recorded();
    std::ostringstream ss;
    m.stats().tracer().writeJson(ss);
    out.trace = ss.str();
    out.samples = m.samples();
    std::ostringstream st;
    m.dumpStats(st);
    out.stats = st.str();
    return out;
}

TEST(TraceMachine, ByteIdenticalAcrossRuns)
{
    const TracedRun t1 = runTraced("all");
    const TracedRun t2 = runTraced("all");
    EXPECT_GT(t1.recorded, 0u);
    EXPECT_EQ(t1.trace, t2.trace);

    ASSERT_EQ(t1.samples.size(), t2.samples.size());
    ASSERT_FALSE(t1.samples.empty());
    for (std::size_t i = 0; i < t1.samples.size(); ++i) {
        EXPECT_EQ(t1.samples[i].t, t2.samples[i].t);
        EXPECT_EQ(t1.samples[i].dram, t2.samples[i].dram);
        EXPECT_EQ(t1.samples[i].l1Hits, t2.samples[i].l1Hits);
        EXPECT_EQ(t1.samples[i].l1Misses, t2.samples[i].l1Misses);
        EXPECT_EQ(t1.samples[i].nocPackets, t2.samples[i].nocPackets);
        EXPECT_EQ(t1.samples[i].nocBytes, t2.samples[i].nocBytes);
        EXPECT_EQ(t1.samples[i].pageFaults,
                  t2.samples[i].pageFaults);
    }
}

TEST(TraceMachine, SamplesSitOnIntervalBoundaries)
{
    const TracedRun t = runTraced("all");
    ASSERT_FALSE(t.samples.empty());
    Tick prev = 0;
    for (const system::CcsvmMachine::Sample &s : t.samples) {
        EXPECT_EQ(s.t % 500000, 0u);
        EXPECT_GT(s.t, prev);
        prev = s.t;
    }
}

TEST(TraceMachine, ObserversLeaveStatsUnchanged)
{
    EXPECT_EQ(runTraced("").stats, runTraced("all").stats);
}

TEST(TraceMachine, CategoryFilterRestrictsEvents)
{
    const TracedRun coh = runTraced("coh");
    EXPECT_GT(coh.recorded, 0u);
    EXPECT_NE(coh.trace.find("\"cat\": \"coh\""), std::string::npos);
    EXPECT_EQ(coh.trace.find("\"cat\": \"noc\""), std::string::npos);
}

TEST(TraceMachine, DisabledTracingRecordsNothing)
{
    system::CcsvmConfig cfg;
    system::CcsvmMachine m(cfg);
    workloads::matmulXthreads(m, 8);
    EXPECT_FALSE(m.stats().tracer().anyEnabled());
    EXPECT_EQ(m.stats().tracer().recorded(), 0u);
    EXPECT_TRUE(m.samples().empty());
}

TEST(TraceMachine, BadCategoryListThrows)
{
    system::CcsvmConfig cfg;
    cfg.traceCategories = "coh,nope";
    EXPECT_THROW(system::CcsvmMachine m(cfg), std::invalid_argument);
}

} // namespace
} // namespace ccsvm
