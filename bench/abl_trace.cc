/**
 * @file
 * Ablation A9: what does observability cost?
 *
 * The tracing layer claims to be zero-overhead when disabled (every
 * record site is one load + mask test) and cheap when enabled (one
 * buffer store per event). This
 * bench puts numbers on both claims with the same matmul run at
 * three settings:
 *
 *   row 0 — tracing off (the default every other figure runs at)
 *   row 1 — --trace-categories coh (the busiest single category)
 *   row 2 — --trace-categories all + --sample-interval
 *
 * reporting wall ms, recorded events, and the percent overhead over
 * row 0. A hash of the full stats text is carried per row and
 * asserted equal across rows: tracing must observe the simulation,
 * never perturb it.
 *
 * Host-time measurement, so the custom main pins CCSVM_BENCH_JOBS=1
 * like abl_replay; numbers from a concurrent run_figures.sh run are
 * indicative only.
 */

#include "bench_common.hh"

#include <chrono>
#include <sstream>

#include "system/ccsvm_machine.hh"

namespace ccsvm::bench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** FNV-1a over the stats text: a cheap, order-sensitive fingerprint
 * of every counter/distribution/histogram value. */
std::uint64_t
statsHash(system::CcsvmMachine &m)
{
    std::ostringstream ss;
    m.dumpStats(ss);
    const std::string text = ss.str();
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** One matmul run with the given trace settings; wall time measured
 * around the run only (machine build and JSON export excluded). */
SweepOutcome
tracedMatmul(const char *cats, Tick sample_interval, unsigned n)
{
    system::CcsvmConfig cfg;
    cfg.traceCategories = cats;
    cfg.sampleInterval = sample_interval;
    system::CcsvmMachine m(cfg);
    const auto t0 = Clock::now();
    SweepOutcome o;
    o.run = workloads::matmulXthreads(m, n);
    o.values["wall_ms"] = msSince(t0);
    o.values["recorded"] =
        static_cast<double>(m.stats().tracer().recorded());
    o.values["dropped"] =
        static_cast<double>(m.stats().tracer().dropped());
    o.values["stats_hash"] = static_cast<double>(statsHash(m));
    return o;
}

void
BM_TraceOverhead(benchmark::State &state)
{
    const auto &out = BenchSweep::instance().result(
        static_cast<std::size_t>(state.range(1)));
    const auto &base = BenchSweep::instance().result(
        static_cast<std::size_t>(state.range(2)));
    for (auto _ : state) {
    }
    setCounters(state, out.run);

    // Tracing must not change a single simulated number. The hash is
    // carried as a double, exact for the comparison's purposes: both
    // rows round identically or the mismatch is real.
    ccsvm_assert(out.values.at("stats_hash") ==
                     base.values.at("stats_hash"),
                 "tracing perturbed the simulated stats");

    const double wall = out.values.at("wall_ms");
    const double base_wall = base.values.at("wall_ms");
    const double overhead_pct =
        base_wall > 0 ? (wall / base_wall - 1.0) * 100.0 : 0.0;
    state.counters["wall_ms"] = wall;
    state.counters["recorded"] = out.values.at("recorded");
    state.counters["overhead_pct"] = overhead_pct;

    const auto row = static_cast<std::uint64_t>(state.range(0));
    FigureTable::instance().record(row, "wall_ms", wall);
    FigureTable::instance().record(row, "recorded",
                                   out.values.at("recorded"));
    FigureTable::instance().record(row, "dropped",
                                   out.values.at("dropped"));
    FigureTable::instance().record(row, "overhead_pct", overhead_pct);
}

void
registerAll()
{
    const unsigned n = largeSweeps() ? 96 : 48;
    struct Setting
    {
        const char *label;
        const char *cats;
        Tick sampleInterval;
    };
    const Setting settings[] = {
        {"off", "", 0},
        {"coh", "coh", 0},
        {"all+sampling", "all", 500000},
    };
    std::vector<std::int64_t> job;
    for (const Setting &s : settings)
        job.push_back(static_cast<std::int64_t>(
            BenchSweep::instance().add([s, n] {
                return tracedMatmul(s.cats, s.sampleInterval, n);
            })));
    for (std::size_t i = 0; i < job.size(); ++i) {
        benchmark::RegisterBenchmark("abl_trace/overhead",
                                     BM_TraceOverhead)
            ->Args({static_cast<std::int64_t>(i), job[i], job[0]})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
}

const int registered = (registerAll(), 0);

} // namespace
} // namespace ccsvm::bench

// Custom main (see the file comment): overhead percentages need the
// simulation sweep itself to stay sequential, whatever
// CCSVM_BENCH_JOBS the caller exported.
int
main(int argc, char **argv)
{
    ::setenv("CCSVM_BENCH_JOBS", "1", 1);
    ::ccsvm::setQuiet(true);
    ::benchmark::Initialize(&argc, argv);
    ::ccsvm::bench::BenchSweep::instance().runAll();
    ::benchmark::RunSpecifiedBenchmarks();
    ::ccsvm::bench::FigureTable::instance().print(
        "Ablation A9: observability overhead (row 0 = off, 1 = coh, "
        "2 = all + sampling)",
        "setting");
    ::ccsvm::bench::FigureTable::instance().writeJsonFromEnv(
        "Ablation A9: observability overhead (row 0 = off, 1 = coh, "
        "2 = all + sampling)",
        "setting");
    return 0;
}
