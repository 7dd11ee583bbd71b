/**
 * @file
 * The trace capture + replay subsystem's contract
 * (docs/TRACE_FORMAT.md):
 *
 *  - varint / zigzag primitives round-trip edge values
 *  - the reader rejects bad magic, truncated files and checksum
 *    corruption with the documented messages
 *  - shapeMismatch() flags every checked header field, in both
 *    directions, and deliberately ignores the protocol fields
 *  - a capture file is byte-identical across two identical runs
 *  - capturing is a pure observer: the capture run's stats dump is
 *    byte-identical to an uncaptured run's
 *  - capture-then-replay reproduces the stats dump byte-identically
 *    for a synth pattern and for matmul
 *  - decoded streams preserve per-thread ordering (monotone ticks)
 *    and the v1 stream layout (one CPU stream with records).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "system/ccsvm_machine.hh"
#include "workloads/replay/reader.hh"
#include "workloads/replay/replayer.hh"
#include "workloads/replay/trace_format.hh"
#include "workloads/synth/synth.hh"
#include "workloads/workloads.hh"

namespace ccsvm
{
namespace
{

using namespace workloads::replay;

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "ccsvm_replay_" + name;
}

// --- encoding primitives --------------------------------------------

TEST(TraceEncoding, VarintRoundTripsEdgeValues)
{
    const std::uint64_t values[] = {
        0, 1, 127, 128, 300, 0xffff, 0x12345678,
        0xffffffffull, 0xffffffffffffffffull};
    for (const std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        putVarint(buf, v);
        // Decode by hand (the reader's cursor is file-level; the
        // wire format is plain LEB128).
        std::uint64_t out = 0;
        unsigned shift = 0;
        for (const std::uint8_t b : buf) {
            out |= std::uint64_t(b & 0x7f) << shift;
            shift += 7;
        }
        EXPECT_EQ(out, v);
        EXPECT_LE(buf.size(), 10u);
    }
}

TEST(TraceEncoding, ZigzagRoundTripsAndKeepsSmallDeltasSmall)
{
    const std::int64_t values[] = {0, 1, -1, 63, -64, 4096, -4096,
                                   INT64_MAX, INT64_MIN};
    for (const std::int64_t v : values)
        EXPECT_EQ(unzigzag(zigzag(v)), v);
    EXPECT_EQ(zigzag(0), 0u);
    EXPECT_EQ(zigzag(-1), 1u);
    EXPECT_EQ(zigzag(1), 2u);
    EXPECT_LT(zigzag(-64), 128u) << "small negatives stay 1 byte";
}

// --- malformed-file rejection ---------------------------------------

TEST(TraceReader, RejectsBadMagic)
{
    const std::string path = tmpPath("badmagic.ccsvmt");
    {
        std::ofstream f(path, std::ios::binary);
        // 64 zero bytes: long enough for a header, wrong magic.
        const std::string zeros(64, '\0');
        f.write(zeros.data(), std::streamsize(zeros.size()));
    }
    try {
        readTraceInfo(path);
        FAIL() << "bad magic must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceReader, RejectsTruncatedFile)
{
    const std::string path = tmpPath("trunc.ccsvmt");
    {
        std::ofstream f(path, std::ios::binary);
        f.write("CCSVMTRC", 8); // magic only, header cut short
    }
    try {
        readTraceInfo(path);
        FAIL() << "truncated header must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncated trace"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceReader, RejectsUnsupportedVersion)
{
    const std::string path = tmpPath("version.ccsvmt");
    {
        std::vector<std::uint8_t> buf(traceMagic,
                                      traceMagic + 8);
        put32(buf, 99);               // version
        put32(buf, traceHeaderBytes); // header_bytes
        buf.resize(traceHeaderBytes, 0);
        std::ofstream f(path, std::ios::binary);
        f.write(reinterpret_cast<const char *>(buf.data()),
                std::streamsize(buf.size()));
    }
    try {
        readTraceInfo(path);
        FAIL() << "future version must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what())
                      .find("unsupported trace version 99"),
                  std::string::npos)
            << e.what();
    }
}

// --- shape checking -------------------------------------------------

TraceShape
defaultShape()
{
    return shapeOf(system::CcsvmConfig{});
}

TEST(TraceShapeCheck, MatchingShapesProduceNoDiagnostic)
{
    EXPECT_EQ(shapeMismatch(defaultShape(), defaultShape()), "");
}

TEST(TraceShapeCheck, FlagsEveryCheckedField)
{
    struct Case
    {
        void (*tweak)(TraceShape &);
        const char *what;
    };
    const Case cases[] = {
        {[](TraceShape &s) { s.numCpuCores = 2; }, "cpu cores"},
        {[](TraceShape &s) { s.numMttopCores = 5; }, "mttop cores"},
        {[](TraceShape &s) { s.mttopContexts = 64; },
         "mttop contexts"},
        {[](TraceShape &s) { s.blockBytes = 32; },
         "cache line bytes"},
        {[](TraceShape &s) { s.pageBytes = 8192; }, "page bytes"},
        {[](TraceShape &s) { s.framePoolBase <<= 1; },
         "frame pool base"},
        {[](TraceShape &s) { s.physMemBytes /= 2; },
         "physical memory bytes"},
    };
    for (const Case &c : cases) {
        TraceShape t = defaultShape();
        c.tweak(t);
        // Both directions: a smaller trace on a bigger machine and
        // vice versa are equally mismatched.
        EXPECT_NE(shapeMismatch(t, defaultShape()).find(c.what),
                  std::string::npos)
            << shapeMismatch(t, defaultShape());
        EXPECT_NE(shapeMismatch(defaultShape(), t).find(c.what),
                  std::string::npos);
    }
}

TEST(TraceShapeCheck, ProtocolFieldsAreEchoedNotChecked)
{
    TraceShape t = defaultShape();
    t.protocol = 0;
    t.cpuProtocol = 1;
    t.mttopProtocol = 2;
    EXPECT_EQ(shapeMismatch(t, defaultShape()), "")
        << "protocol sweeps over one trace are a feature";
}

TEST(TraceShapeCheck, L2BanksAreEchoedNotChecked)
{
    // Bank count changes the address interleave but not the guest op
    // stream; sweeping it over one trace is allowed.
    TraceShape t = defaultShape();
    t.numL2Banks = 8;
    EXPECT_EQ(shapeMismatch(t, defaultShape()), "");
}

// --- capture + replay, end to end -----------------------------------

workloads::synth::SynthParams
smallFalseShare()
{
    workloads::synth::SynthParams sp;
    sp.pattern = workloads::synth::Pattern::FalseShare;
    sp.iters = 8;
    sp.threads = 8;
    return sp;
}

/** Stats dump of a synth:false run, capturing iff @p capture_path is
 * non-empty. */
std::string
runSynth(const std::string &capture_path)
{
    system::CcsvmConfig cfg;
    cfg.captureOut = capture_path;
    system::CcsvmMachine m(cfg);
    const workloads::RunResult r =
        workloads::synth::synthXthreads(m, smallFalseShare());
    EXPECT_TRUE(r.correct);
    std::ostringstream ss;
    m.dumpStats(ss);
    return ss.str();
}

std::string
runReplayOf(const std::string &trace_path)
{
    system::CcsvmMachine m;
    const workloads::RunResult r = runReplay(m, trace_path);
    EXPECT_TRUE(r.correct);
    std::ostringstream ss;
    m.dumpStats(ss);
    return ss.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

TEST(TraceCaptureReplay, CaptureIsAPureObserver)
{
    const std::string plain = runSynth("");
    const std::string captured =
        runSynth(tmpPath("observer.ccsvmt"));
    EXPECT_EQ(plain, captured)
        << "capture hooks must not perturb the simulation";
}

TEST(TraceCaptureReplay, CaptureFileIsByteIdenticalAcrossRuns)
{
    const std::string p1 = tmpPath("cap1.ccsvmt");
    const std::string p2 = tmpPath("cap2.ccsvmt");
    runSynth(p1);
    runSynth(p2);
    const std::string b1 = slurp(p1);
    ASSERT_FALSE(b1.empty());
    EXPECT_EQ(b1, slurp(p2));
}

TEST(TraceCaptureReplay, SynthStatsAreByteIdenticalOnReplay)
{
    const std::string path = tmpPath("synth.ccsvmt");
    const std::string cap = runSynth(path);
    EXPECT_EQ(cap, runReplayOf(path));
}

TEST(TraceCaptureReplay, MatmulStatsAreByteIdenticalOnReplay)
{
    const std::string path = tmpPath("matmul.ccsvmt");
    std::string cap;
    {
        system::CcsvmConfig cfg;
        cfg.captureOut = path;
        system::CcsvmMachine m(cfg);
        const workloads::RunResult r =
            workloads::matmulXthreads(m, 8);
        EXPECT_TRUE(r.correct);
        std::ostringstream ss;
        m.dumpStats(ss);
        cap = ss.str();
    }
    EXPECT_EQ(cap, runReplayOf(path));
}

TEST(TraceCaptureReplay, ReplayRejectsShapeMismatch)
{
    const std::string path = tmpPath("shape.ccsvmt");
    runSynth(path);
    system::CcsvmConfig cfg;
    cfg.numCpuCores = 2;
    system::CcsvmMachine m(cfg);
    try {
        runReplay(m, path);
        FAIL() << "shape mismatch must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("machine shape"), std::string::npos)
            << what;
        EXPECT_NE(what.find("cpu cores: trace has 4, machine has 2"),
                  std::string::npos)
            << what;
    }
}

TEST(TraceCaptureReplay, ReplayNeedsATraceFile)
{
    system::CcsvmMachine m{system::CcsvmConfig{}};
    EXPECT_THROW(runReplay(m, ""), std::runtime_error);
    EXPECT_THROW(runReplay(m, tmpPath("missing.ccsvmt")),
                 std::runtime_error);
}

// --- decoded-stream structure ---------------------------------------

TEST(TraceStructure, StreamsPreserveOrderingAndV1Layout)
{
    const std::string path = tmpPath("struct.ccsvmt");
    runSynth(path);
    const TraceData t = readTrace(path);

    EXPECT_EQ(t.info.version, traceVersion);
    EXPECT_EQ(shapeMismatch(t.info.shape, defaultShape()), "");

    std::size_t cpu_with_records = 0, mttop_streams = 0;
    std::uint64_t sum = 0;
    for (const TraceStream &s : t.streams) {
        sum += s.records.size();
        if (s.kind == StreamKind::Cpu && !s.records.empty())
            ++cpu_with_records;
        if (s.kind == StreamKind::Mttop) {
            ++mttop_streams;
            EXPECT_FALSE(s.records.empty())
                << "mttop streams only exist for threads that "
                   "recorded ops";
        }
        // Per-thread program order: issue ticks never go backwards.
        for (std::size_t i = 1; i < s.records.size(); ++i)
            EXPECT_GE(s.records[i].tick, s.records[i - 1].tick);
    }
    EXPECT_EQ(cpu_with_records, 1u) << "v1: runMain only";
    EXPECT_GE(mttop_streams, 8u) << "one per launched synth thread";
    EXPECT_EQ(sum, t.totalRecords);

    // The launch record must be on the CPU stream and reference the
    // mttop streams' launch id.
    bool saw_launch = false;
    for (const TraceStream &s : t.streams) {
        if (s.kind != StreamKind::Cpu)
            continue;
        for (const TraceRecord &r : s.records) {
            if (r.kind != RecKind::Launch)
                continue;
            saw_launch = true;
            EXPECT_GE(r.lastTid, r.firstTid);
        }
    }
    EXPECT_TRUE(saw_launch);
}

TEST(TraceStructure, ChecksumDetectsCorruption)
{
    const std::string path = tmpPath("corrupt.ccsvmt");
    runSynth(path);
    std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() / 2] ^= 0x40; // flip one payload bit
    const std::string bad = tmpPath("corrupt2.ccsvmt");
    {
        std::ofstream f(bad, std::ios::binary);
        f.write(bytes.data(), std::streamsize(bytes.size()));
    }
    try {
        readTrace(bad);
        FAIL() << "corruption must not parse cleanly";
    } catch (const std::runtime_error &e) {
        // Depending on which byte flips, the damage surfaces as a
        // checksum mismatch or as a structural error; both are
        // loud rejections.
        SUCCEED() << e.what();
    }
}

} // namespace
} // namespace ccsvm
