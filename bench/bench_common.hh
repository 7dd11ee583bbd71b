/**
 * @file
 * Shared infrastructure for the per-figure bench binaries.
 *
 * Each binary is a plain sweep: main() builds one job per (system,
 * size) point — a self-contained function running one full
 * simulation on a machine it owns — runs the list through
 * sim::SweepRunner::map (the engine behind `ccsvm --jobs`), records
 * the paper-style series (e.g. "runtime relative to the AMD CPU
 * core") into a FigureTable by indexing the results, and hands both
 * to finish(). Results come back in job order, so stdout and
 * BENCH_*.json are byte-identical for every worker count.
 *
 * Environment knobs:
 *   CCSVM_JOBS=N         sweep workers (1 = sequential; default:
 *                        hardware concurrency)
 *   CCSVM_BENCH_JSON=P   also write the figure as JSON to P
 *   CCSVM_BENCH_LARGE=1  extend sweeps toward the paper's sizes
 *                        (longer host runtime)
 */

#ifndef CCSVM_BENCH_BENCH_COMMON_HH
#define CCSVM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

namespace ccsvm::bench
{

inline bool
largeSweeps()
{
    const char *env = std::getenv("CCSVM_BENCH_LARGE");
    return env && env[0] == '1';
}

/**
 * What one sweep job produced: the workload's RunResult (or at least
 * run.ticks and run.correct for hand-rolled experiments) plus any
 * machine stats the bench reads after the run, extracted before the
 * machine dies.
 */
struct SweepOutcome
{
    workloads::RunResult run;
    std::map<std::string, double> values;
};

using Job = std::function<SweepOutcome()>;

/** A job that runs one workload call and keeps its RunResult. */
template <typename Fn>
Job
workloadJob(Fn fn)
{
    return [fn] {
        SweepOutcome o;
        o.run = fn();
        return o;
    };
}

/** A job for a hand-rolled experiment that yields only its
 * simulated time; the experiment checks its own result. */
template <typename Fn>
Job
ticksJob(Fn fn)
{
    return [fn] {
        SweepOutcome o;
        o.run.ticks = fn();
        o.run.correct = true;
        return o;
    };
}

/** A workload run at one size on a default machine. */
using SizedRun = workloads::RunResult (*)(unsigned);

/** One job per (system, size), system-major: systems[s] at sizes[i]
 * is job s * sizes.size() + i. */
inline std::vector<Job>
sizeSweepJobs(std::initializer_list<SizedRun> systems,
              const std::vector<unsigned> &sizes)
{
    std::vector<Job> jobs;
    for (const SizedRun fn : systems)
        for (const unsigned n : sizes)
            jobs.push_back(workloadJob([fn, n] { return fn(n); }));
    return jobs;
}

/**
 * Run every job and return the outcomes in job order. @p workers 0
 * sizes the pool with sim::defaultSweepJobs() (CCSVM_JOBS, which it
 * validates); the pool is sized before the simulator is quieted so
 * a bad CCSVM_JOBS still warns.
 */
inline std::vector<SweepOutcome>
runSweep(const std::vector<Job> &jobs, unsigned workers = 0)
{
    const sim::SweepRunner runner(workers);
    setQuiet(true);
    return runner.map<SweepOutcome>(jobs);
}

/** Collected series for the post-run figure table. Columns appear in
 * the order their series were first recorded. */
class FigureTable
{
  public:
    void
    record(std::uint64_t x, const std::string &series, double value)
    {
        data_[x][series] = value;
        seriesNames_.insert({series, seriesNames_.size()});
    }

    /** Print rows: x followed by each series column. */
    void
    print(const char *title, const char *x_label) const
    {
        const std::vector<std::string> cols = columns();
        std::printf("\n=== %s ===\n", title);
        std::printf("%-10s", x_label);
        for (const auto &c : cols)
            std::printf(" %16s", c.c_str());
        std::printf("\n");
        for (const auto &[x, row] : data_) {
            std::printf("%-10llu", (unsigned long long)x);
            for (const auto &c : cols) {
                auto it = row.find(c);
                if (it == row.end())
                    std::printf(" %16s", "-");
                else
                    std::printf(" %16.4g", it->second);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }

    /**
     * Write the figure as JSON: title, x label, the binary's total
     * simulated ticks, series names, and one row object per x value.
     * Shares the number/escape helpers with the stats registry so
     * `BENCH_*.json` files and the ccsvm driver's output form one
     * schema family.
     */
    bool
    writeJson(const std::string &path, const char *title,
              const char *x_label, std::uint64_t total_sim_ticks) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        os << "{\n  \"title\": \"" << sim::jsonEscape(title)
           << "\",\n  \"x_label\": \"" << sim::jsonEscape(x_label)
           << "\",\n  \"total_sim_ticks\": " << total_sim_ticks
           << ",\n  \"series\": [";
        const std::vector<std::string> cols = columns();
        for (std::size_t i = 0; i < cols.size(); ++i)
            os << (i ? ", " : "") << '"' << sim::jsonEscape(cols[i])
               << '"';
        os << "],\n  \"rows\": [";
        bool first_row = true;
        for (const auto &[x, row] : data_) {
            os << (first_row ? "\n" : ",\n") << "    {\"x\": " << x;
            for (const auto &[name, value] : row)
                os << ", \"" << sim::jsonEscape(name)
                   << "\": " << sim::jsonNumber(value);
            os << "}";
            first_row = false;
        }
        os << (first_row ? "" : "\n  ") << "]\n}\n";
        return bool(os.flush());
    }

  private:
    std::vector<std::string>
    columns() const
    {
        std::vector<std::string> cols(seriesNames_.size());
        for (const auto &[name, idx] : seriesNames_)
            cols[idx] = name;
        return cols;
    }

    std::map<std::uint64_t, std::map<std::string, double>> data_;
    std::map<std::string, std::size_t> seriesNames_;
};

inline double
toMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(tickMs);
}

/**
 * The end of every sweep binary's main(): print the figure table,
 * write it to CCSVM_BENCH_JSON when that is set (bench/run_figures.sh
 * sets it for every binary), and return the exit status — 1 when any
 * outcome failed validation or the JSON could not be written.
 */
inline int
finish(const FigureTable &table,
       const std::vector<SweepOutcome> &outcomes, const char *title,
       const char *x_label)
{
    table.print(title, x_label);
    int status = 0;
    std::uint64_t total_ticks = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        total_ticks += outcomes[i].run.ticks;
        if (!outcomes[i].run.correct) {
            std::fprintf(stderr,
                         "sweep job %zu of %zu failed validation\n",
                         i, outcomes.size());
            status = 1;
        }
    }
    if (const char *path = std::getenv("CCSVM_BENCH_JSON");
        path && path[0]) {
        if (table.writeJson(path, title, x_label, total_ticks)) {
            std::printf("figure JSON written to %s\n", path);
        } else {
            std::fprintf(stderr, "cannot write %s\n", path);
            status = 1;
        }
    }
    return status;
}

} // namespace ccsvm::bench

#endif // CCSVM_BENCH_BENCH_COMMON_HH
