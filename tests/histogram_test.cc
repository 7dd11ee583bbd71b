/**
 * @file
 * The log2-bucketed latency histogram and its StatRegistry/JSON
 * integration:
 *
 *  - bucket boundaries (bucket 0 = {0}, bucket b = [2^(b-1), 2^b))
 *  - count/min/max/mean bookkeeping
 *  - percentile interpolation: a single repeated value reports
 *    exactly that value at every percentile (the clamp contract), a
 *    known uniform input interpolates to a hand-computed answer
 *  - reset
 *  - dumpJson emits a "histograms" section with p50/p90/p99/p999
 *  - jsonEscape neutralises hostile stat names (quotes, backslashes,
 *    control bytes, high-bit chars) so the registry JSON always
 *    parses, whatever a config calls its components.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/histogram.hh"
#include "sim/stats.hh"

namespace ccsvm
{
namespace
{

TEST(LatencyHistogram, BucketBoundaries)
{
    EXPECT_EQ(sim::LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(sim::LatencyHistogram::bucketOf(1), 1u);
    EXPECT_EQ(sim::LatencyHistogram::bucketOf(2), 2u);
    EXPECT_EQ(sim::LatencyHistogram::bucketOf(3), 2u);
    EXPECT_EQ(sim::LatencyHistogram::bucketOf(4), 3u);
    EXPECT_EQ(sim::LatencyHistogram::bucketOf(7), 3u);
    EXPECT_EQ(sim::LatencyHistogram::bucketOf(8), 4u);
    EXPECT_EQ(sim::LatencyHistogram::bucketOf(~std::uint64_t(0)),
              64u);
}

TEST(LatencyHistogram, CountMinMaxMean)
{
    sim::LatencyHistogram h("h", "test");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);

    for (std::uint64_t v = 1; v <= 8; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.minValue(), 1u);
    EXPECT_EQ(h.maxValue(), 8u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.5);
}

TEST(LatencyHistogram, SingleValueIsExactAtEveryPercentile)
{
    sim::LatencyHistogram h("h", "test");
    for (int i = 0; i < 5; ++i)
        h.record(700);
    EXPECT_DOUBLE_EQ(h.percentile(1), 700.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 700.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 700.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.9), 700.0);
}

TEST(LatencyHistogram, KnownInputInterpolates)
{
    // 1..8: buckets {1}=1, [2,4)=2, [4,8)=4, [8,16)=1. p50 targets
    // the 4th sample: one step into the [4,8) bucket of four ->
    // 4 + (1/4)*4 = 5.
    sim::LatencyHistogram h("h", "test");
    for (std::uint64_t v = 1; v <= 8; ++v)
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
    // p100 lands exactly on the last sample; the clamp keeps it at
    // the observed max rather than the bucket's upper edge (16).
    EXPECT_DOUBLE_EQ(h.percentile(100), 8.0);
}

TEST(LatencyHistogram, Reset)
{
    sim::LatencyHistogram a("a", "test");
    a.record(4);
    a.record(256);
    EXPECT_EQ(a.count(), 2u);

    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.maxValue(), 0u);
    EXPECT_DOUBLE_EQ(a.percentile(50), 0.0);
}

TEST(StatRegistry, DumpJsonHasHistogramSection)
{
    sim::StatRegistry reg;
    sim::LatencyHistogram &h =
        reg.histogram("latency.test", "test histogram");
    for (std::uint64_t v = 1; v <= 8; ++v)
        h.record(v);

    std::ostringstream ss;
    reg.dumpJson(ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("\"histograms\""), std::string::npos) << out;
    EXPECT_NE(out.find("\"latency.test\""), std::string::npos);
    EXPECT_NE(out.find("\"p50\": 5"), std::string::npos) << out;
    EXPECT_NE(out.find("\"p999\""), std::string::npos);
    EXPECT_NE(out.find("\"count\": 8"), std::string::npos);
}

TEST(StatRegistry, HistogramIsSharedByName)
{
    // Same dedup contract as counters: two components asking for the
    // same histogram name accumulate into one instance (the per-class
    // latency histograms rely on this).
    sim::StatRegistry reg;
    sim::LatencyHistogram &a = reg.histogram("lat", "d");
    sim::LatencyHistogram &b = reg.histogram("lat", "d");
    EXPECT_EQ(&a, &b);
    a.record(3);
    b.record(5);
    EXPECT_EQ(a.count(), 2u);
}

TEST(JsonEscape, NeutralisesHostileNames)
{
    EXPECT_EQ(sim::jsonEscape("plain.name"), "plain.name");
    EXPECT_EQ(sim::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(sim::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(sim::jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(sim::jsonEscape(std::string("a\x01") + "b"),
              "a\\u0001b");
    // High-bit bytes come through char as negative on most ABIs; the
    // escape must not sign-extend into an 8-hex-digit sequence.
    EXPECT_EQ(sim::jsonEscape("a\xffz"), "a\\u00ffz");
}

TEST(JsonEscape, HostileStatNamesProduceParseableJson)
{
    sim::StatRegistry reg;
    // Split literal: "\x01c" would munch both hex digits into \x1c.
    const std::string evil = "bad\"name\\with\x01" "ctrl";
    reg.counter(evil, "hostile \"desc\"") += 3;
    reg.distribution(evil + ".dist", "d").record(1);
    reg.histogram(evil + ".hist", "h").record(7);

    std::ostringstream ss;
    reg.dumpJson(ss);
    const std::string out = ss.str();
    // The raw control byte and bare quote must not survive into the
    // document; their escaped spellings must.
    EXPECT_EQ(out.find('\x01'), std::string::npos);
    EXPECT_NE(out.find("bad\\\"name\\\\with\\u0001ctrl"),
              std::string::npos)
        << out;
    // Every quote in the document is either a structural delimiter
    // following {, ,, : or [ (possibly with whitespace) or escaped —
    // a cheap structural sanity check without a JSON parser.
    std::size_t balance = 0;
    for (const char c : out) {
        if (c == '{' || c == '[')
            ++balance;
        else if (c == '}' || c == ']')
            --balance;
    }
    EXPECT_EQ(balance, 0u);
}

} // namespace
} // namespace ccsvm
