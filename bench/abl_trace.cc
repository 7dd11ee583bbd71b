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
 * Host-time measurement, so the sweep runs on one worker whatever
 * CCSVM_JOBS says, like abl_replay; numbers from a concurrent
 * run_figures.sh run are indicative only.
 */

#include "bench_common.hh"

#include <chrono>
#include <sstream>

#include "system/ccsvm_machine.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

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

} // namespace

int
main()
{
    const unsigned n = largeSweeps() ? 96 : 48;
    struct Setting
    {
        const char *cats;
        Tick sampleInterval;
    };
    // Row 0 is tracing off, the baseline the other rows compare to.
    const Setting settings[] = {
        {"", 0},
        {"coh", 0},
        {"all", 500000},
    };
    std::vector<Job> jobs;
    for (const Setting &s : settings)
        jobs.push_back(
            [s, n] { return tracedMatmul(s.cats, s.sampleInterval, n); });
    // One worker: overhead percentages compare host time between rows.
    const auto out = runSweep(jobs, 1);

    FigureTable table;
    const SweepOutcome &base = out[0];
    for (std::uint64_t row = 0; row < out.size(); ++row) {
        const SweepOutcome &o = out[row];
        // Tracing must not change a single simulated number. The hash
        // is carried as a double, exact for the comparison's purposes:
        // both rows round identically or the mismatch is real.
        ccsvm_assert(o.values.at("stats_hash") ==
                         base.values.at("stats_hash"),
                     "tracing perturbed the simulated stats");
        const double wall = o.values.at("wall_ms");
        const double base_wall = base.values.at("wall_ms");
        table.record(row, "wall_ms", wall);
        table.record(row, "recorded", o.values.at("recorded"));
        table.record(row, "dropped", o.values.at("dropped"));
        table.record(row, "overhead_pct",
                     base_wall > 0 ? (wall / base_wall - 1.0) * 100.0 : 0.0);
    }
    return finish(table, out,
                  "Ablation A9: observability overhead (row 0 = off, 1 = "
                  "coh, 2 = all + sampling)",
                  "setting");
}
