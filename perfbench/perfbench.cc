/**
 * @file
 * The simulator benchmark: host time, set-up time and host memory per
 * simulation of the paper's CCSVM chip (Table 2 defaults: 4 CPU cores,
 * 10 MTTOP cores, 4 MOESI L2/directory banks on a 2D torus).
 *
 * One invocation runs one workload, one simulation at a time, each in a
 * fresh CcsvmMachine through the workload registry's public `run`,
 * until --seconds of host time have passed. Every simulation must
 * validate against its host golden model, and every repetition must
 * reproduce the same stats (FNV-1a over StatRegistry::dumpJson) and
 * the same layer counts; otherwise the run fails.
 *
 * With --trace 0 it prints the end-to-end metrics; with --trace 1 it
 * alternates untraced and traced simulations, records spans around
 * the calls into each layer, and prints the per-layer metrics. The
 * last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 * The exit code is 0 only when every simulation validated, every
 * counter read exists, and every repetition reproduced the first.
 *
 * Usage: ccsvm_perfbench --workload NAME --seed N --seconds S
 *                        --trace 0|1 [--size full|tiny]
 *                        [--spans-out FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"
#include "system/ccsvm_machine.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccsvm;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- workloads --------------------------------------------------------

/** One benchmark workload: a registry entry plus the parameters that
 * make it stress its layers. `tiny` shrinks it for the self-test. */
struct Workload
{
    const char *name;
    const char *registryName;
    /** Whether --seed reaches the generated inputs. */
    bool seeded;
    void (*configure)(workloads::WorkloadParams &p, bool tiny,
                      std::uint64_t seed);
};

// Three workloads that load different layers, so a change to one
// layer has a workload that exercises it and one that predicts no
// change (perfbench/README.md has the full prediction table).
const Workload kWorkloads[] = {
    // Compute-bound Barnes-Hut under xthreads (paper Fig. 7): 98% L1
    // hits, few NoC hop events, ~1.6k DRAM accesses. The guest-task
    // and L1-hit path dominate; NoC, directory and DRAM changes must
    // not move it.
    {"fig7_barneshut", "barneshut", true,
     [](workloads::WorkloadParams &p, bool tiny, std::uint64_t seed) {
         p.bh.bodies = tiny ? 24 : 384;
         p.bh.steps = 2;
         p.bh.seed = seed;
     }},
    // 16 MTTOP threads stream a private 8 MB footprint, twice the
    // 4 MB L2: capacity misses, ~half a million DRAM accesses, the
    // most NoC hop events and the largest host footprint. Reads only.
    {"stream_dram", "synth:stream", false,
     [](workloads::WorkloadParams &p, bool tiny, std::uint64_t) {
         p.synth.threads = 16;
         p.synth.footprintBytes = (tiny ? 256ull : 8192ull) * 1024;
         p.synth.iters = tiny ? 1 : 2;
     }},
    // 128 MTTOP threads, 8 per line, write beside reads: nearly every
    // directory request stalls on a busy line, with heavy invalidation
    // and forwarding traffic and almost no DRAM.
    {"false_share", "synth:false", false,
     [](workloads::WorkloadParams &p, bool tiny, std::uint64_t) {
         p.synth.threads = 128;
         p.synth.sharingDegree = 8;
         p.synth.iters = tiny ? 16 : 2048;
     }},
};

// --- reading the machine's statistics ----------------------------------

/** A counter the benchmark depends on. StatRegistry::get returns 0 for
 * an unknown name, so a renamed counter would silently read as zero;
 * this throws instead. */
std::uint64_t
requireCounter(const sim::StatRegistry &s, const std::string &name)
{
    if (!s.hasCounter(name))
        throw std::runtime_error("missing counter '" + name + "'");
    return s.get(name);
}

/** Sum of `<prefix><i><suffix>` over components 0..n-1. */
std::uint64_t
sumCounters(const sim::StatRegistry &s, const char *prefix, int n,
            const char *suffix)
{
    std::uint64_t total = 0;
    for (int i = 0; i < n; ++i)
        total += requireCounter(s, prefix + std::to_string(i) + suffix);
    return total;
}

/** Field @p field of distribution/histogram @p name in a dumpJson
 * document; throws if either is absent. Histograms have no hasCounter
 * analogue, so the exported JSON is the one place to check them. */
double
requireJsonField(const std::string &json, const std::string &name,
                 const std::string &field)
{
    const std::string key = "\"" + name + "\": {";
    const std::size_t at = json.find(key);
    const std::size_t close =
        at == std::string::npos ? at : json.find('}', at);
    const std::string fkey = "\"" + field + "\": ";
    const std::size_t f =
        at == std::string::npos ? at : json.find(fkey, at);
    if (at == std::string::npos || f == std::string::npos || f > close)
        throw std::runtime_error("missing statistic '" + name + "::" +
                                 field + "'");
    return std::strtod(json.c_str() + f + fkey.size(), nullptr);
}

/** Simulated events executed so far. The one place that knows which
 * engine the machine runs on. */
std::uint64_t
simEvents(system::CcsvmMachine &m)
{
    return m.engine().eventsExecuted();
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The deterministic per-layer counts of one finished simulation. */
std::vector<Metric>
layerCounts(system::CcsvmMachine &m, const workloads::RunResult &r,
            const std::string &stats_json)
{
    const sim::StatRegistry &s = m.stats();
    const int cpus = m.numCpuCores();
    const int mttops = m.numMttopCores();
    const int banks = m.config().numL2Banks;
    auto both = [&](const char *suffix) {
        return sumCounters(s, "cpu", cpus, suffix) +
               sumCounters(s, "mttop", mttops, suffix);
    };

    const double events = static_cast<double>(simEvents(m));
    const double l1_hits = static_cast<double>(both(".l1.hits"));
    const double l1_misses = static_cast<double>(both(".l1.misses"));
    const double dir_requests =
        static_cast<double>(sumCounters(s, "dir", banks, ".requests"));
    const double dir_stalls =
        static_cast<double>(sumCounters(s, "dir", banks, ".stalls"));
    const double packets =
        static_cast<double>(requireCounter(s, "noc.packets"));
    const double hops = static_cast<double>(requireCounter(s, "noc.hops"));
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    return {
        {"sim.events", "count", events},
        {"sim.ticks", "ps", count(r.ticks)},
        {"core.cpu_instructions", "count",
         count(sumCounters(s, "cpu", cpus, ".instructions"))},
        {"core.mttop_instructions", "count",
         count(sumCounters(s, "mttop", mttops, ".instructions"))},
        {"core.mem_ops", "count", count(both(".memOps"))},
        {"vm.tlb_misses", "count", count(both(".tlb.misses"))},
        {"vm.walks", "count", count(both(".walker.walks"))},
        {"vm.page_faults", "count",
         count(requireCounter(s, "kernel.pageFaults"))},
        {"vm.shootdowns", "count",
         count(requireCounter(s, "kernel.shootdowns"))},
        {"dev.mifd_tasks", "count", count(requireCounter(s, "mifd.tasks"))},
        {"dev.mifd_fault_relays", "count",
         count(requireCounter(s, "mifd.faultRelays"))},
        {"coherence.l1_hits", "count", l1_hits},
        {"coherence.l1_misses", "count", l1_misses},
        {"coherence.l1_hit_ratio", "ratio",
         ratio(l1_hits, l1_hits + l1_misses)},
        {"coherence.l1_invs", "count", count(both(".l1.invs"))},
        {"coherence.l1_fwds", "count", count(both(".l1.fwds"))},
        {"coherence.dir_requests", "count", dir_requests},
        {"coherence.dir_stalls", "count", dir_stalls},
        {"coherence.dir_stall_ratio", "ratio",
         ratio(dir_stalls, dir_requests)},
        {"coherence.dir_recalls", "count",
         count(sumCounters(s, "dir", banks, ".recalls"))},
        {"coherence.dir_writebacks", "count",
         count(sumCounters(s, "dir", banks, ".writebacks"))},
        {"coherence.mttop_mem_p50_ps", "ps",
         requireJsonField(stats_json, "latency.mttop.mem", "p50")},
        {"coherence.mttop_mem_p99_ps", "ps",
         requireJsonField(stats_json, "latency.mttop.mem", "p99")},
        {"coherence.cpu_mem_p99_ps", "ps",
         requireJsonField(stats_json, "latency.cpu.mem", "p99")},
        {"cache.l2_fetches", "count",
         count(sumCounters(s, "dir", banks, ".fetches"))},
        {"cache.l2_conflict_evictions", "count",
         count(sumCounters(s, "dir", banks, ".conflictEvictions"))},
        {"noc.packets", "count", packets},
        {"noc.hops", "count", hops},
        {"noc.hops_per_packet", "hop/packet", ratio(hops, packets)},
        {"noc.latency_mean_ps", "ps",
         requireJsonField(stats_json, "noc.latency", "mean")},
        {"noc.hop_event_share", "ratio", ratio(hops, events)},
        {"mem.dram_reads", "count", count(requireCounter(s, "dram.reads"))},
        {"mem.dram_writes", "count",
         count(requireCounter(s, "dram.writes"))},
    };
}

// --- spans --------------------------------------------------------------

/**
 * Spans around the benchmark's calls into each layer: name, start,
 * end and parent, kept in memory and written out at exit. Disabled
 * logs record nothing.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        int parent; ///< index into spans(), -1 for a root
        Clock::time_point start;
        Clock::time_point end;
    };

    explicit SpanLog(bool on) : on_(on) {}

    int
    open(const char *name, int parent)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, parent, Clock::now(), {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[id].end = Clock::now();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the time covered by child spans. Children of
     * one span run one after another, never overlapping, so their
     * durations add. */
    double
    selfSeconds(std::size_t id) const
    {
        double self = secondsBetween(spans_[id].start, spans_[id].end);
        for (const Span &c : spans_) {
            if (c.parent == static_cast<int>(id))
                self -= secondsBetween(c.start, c.end);
        }
        return self;
    }

    void
    writeJson(std::ostream &os, Clock::time_point origin) const
    {
        os << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n " : "\n ") << "{\"id\": " << i
               << ", \"name\": \"" << s.name
               << "\", \"parent\": " << s.parent << ", \"start_s\": "
               << sim::jsonNumber(secondsBetween(origin, s.start))
               << ", \"end_s\": "
               << sim::jsonNumber(secondsBetween(origin, s.end))
               << ", \"self_s\": " << sim::jsonNumber(selfSeconds(i))
               << "}";
        }
        os << "\n]\n";
    }

  private:
    bool on_;
    std::vector<Span> spans_;
};

// --- one simulation -------------------------------------------------------

struct Outcome
{
    double setupS = 0; ///< CcsvmMachine construction
    double wallS = 0;  ///< workload run on the built machine, validated
    bool correct = false;
    std::uint64_t statsHash = 0;
    std::string machineDesc;
    std::vector<Metric> counts;
};

/** Build a fresh machine, run the workload on it, validate, export
 * and hash its stats, and read its layer counts. */
Outcome
simulateOnce(const workloads::WorkloadEntry &entry,
             const workloads::WorkloadParams &params, SpanLog &log)
{
    Outcome o;
    const int root = log.open("bench.simulation", -1);

    int span = log.open("system.construct", root);
    const Clock::time_point t0 = Clock::now();
    auto m = std::make_unique<system::CcsvmMachine>();
    const Clock::time_point t1 = Clock::now();
    log.close(span);

    span = log.open("workloads.run", root);
    const Clock::time_point t2 = Clock::now();
    const workloads::RunResult r = entry.run(*m, params);
    o.correct = r.correct;
    const Clock::time_point t3 = Clock::now();
    log.close(span);

    span = log.open("sim.stats_export", root);
    std::ostringstream json;
    m->stats().dumpJson(json);
    log.close(span);

    o.setupS = secondsBetween(t0, t1);
    o.wallS = secondsBetween(t2, t3);
    o.statsHash = fnv1a(json.str());
    o.counts = layerCounts(*m, r, json.str());
    const system::CcsvmConfig &cfg = m->config();
    o.machineDesc = std::string("protocol=") +
                    coherence::protocolName(m->protocol()) +
                    " l2_banks=" + std::to_string(cfg.numL2Banks) +
                    " cpu_cores=" + std::to_string(m->numCpuCores()) +
                    " mttop_cores=" + std::to_string(m->numMttopCores()) +
                    " swmr_checker=" + (cfg.swmrChecks ? "on" : "off");
    m.reset();
    log.close(root);
    return o;
}

// --- run loop and report ----------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "ccsvm_perfbench: " << msg << "\n"
              << "usage: ccsvm_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] "
                 "[--spans-out FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            errno = 0;
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end || val[0] == '-' || errno == ERANGE)
                usage("--seed wants a non-negative integer");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(o.seconds > 0))
                usage("--seconds wants a positive number");
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace wants 0 or 1");
            o.trace = val == "1";
        } else if (flag == "--size") {
            if (val != "full" && val != "tiny")
                usage("--size wants full or tiny");
            o.tiny = val == "tiny";
        } else if (flag == "--spans-out") {
            o.spansOut = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

void
printJsonMetrics(std::ostream &os, const std::vector<Metric> &ms)
{
    os << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        os << (i ? ", " : "") << "\"" << ms[i].name
           << "\": {\"value\": " << sim::jsonNumber(ms[i].value)
           << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload *w = nullptr;
    for (const Workload &c : kWorkloads) {
        if (opt.workload == c.name)
            w = &c;
    }
    if (!w)
        usage(("unknown workload '" + opt.workload +
               "' (fig7_barneshut, stream_dram, false_share)")
                  .c_str());
    const workloads::WorkloadEntry *entry =
        workloads::WorkloadRegistry::instance().find(w->registryName);
    if (!entry)
        usage(("registry has no workload " +
               std::string(w->registryName)).c_str());

    // Pin the environment: CcsvmConfig's default simThreads reads
    // CCSVM_SIM_THREADS, and the parallel engine is several times
    // slower than one thread. The sweep knobs are cleared with it so
    // nothing inherited from the shell reaches a machine.
    for (const char *var :
         {"CCSVM_SIM_THREADS", "CCSVM_JOBS", "CCSVM_BENCH_JOBS"})
        unsetenv(var);

    workloads::WorkloadParams params;
    w->configure(params, opt.tiny, opt.seed);

    std::cout << "workload=" << w->name << " (" << w->registryName
              << ") size=" << (opt.tiny ? "tiny" : "full")
              << " seed=" << opt.seed
              << (w->seeded ? " (feeds input generation)"
                            : " (unused: the pattern takes no seed and "
                              "is fully determined by its shape)")
              << "\n"
              << "env: CCSVM_SIM_THREADS, CCSVM_JOBS, CCSVM_BENCH_JOBS "
                 "unset (one simulation thread)\n"
              << "model: unvalidated (no reference hardware "
                 "measurements; no error figure); modelled caches "
                 "start empty in every simulation\n";

    // Traced runs alternate untraced and traced simulations so the
    // tracing overhead is measured in the same process.
    const int min_reps = opt.trace ? 4 : 2;
    constexpr int kExtraSetupsPerRep = 4;
    SpanLog log(opt.trace);
    SpanLog off(false);
    std::vector<double> setup_s, wall_s, traced_wall_s;
    std::vector<Metric> counts;
    std::uint64_t stats_hash = 0;
    std::uint64_t attempted = 0, failed = 0;
    bool reproducible = true;
    std::string machine_desc;

    const Clock::time_point origin = Clock::now();
    for (int rep = 0;
         rep < min_reps ||
         secondsBetween(origin, Clock::now()) < opt.seconds;
         ++rep) {
        const bool traced = opt.trace && rep % 2 == 1;
        ++attempted;
        try {
            // Construction takes milliseconds, so sample it more often
            // than the simulations; the samples spread over the run.
            for (int i = 0; !opt.trace && i < kExtraSetupsPerRep; ++i) {
                const Clock::time_point t0 = Clock::now();
                auto m = std::make_unique<system::CcsvmMachine>();
                setup_s.push_back(secondsBetween(t0, Clock::now()));
            }
            const Outcome o =
                simulateOnce(*entry, params, traced ? log : off);
            if (!o.correct) {
                ++failed;
                std::cout << "rep " << rep
                          << ": FAILED (result did not validate)\n";
                continue;
            }
            setup_s.push_back(o.setupS);
            (traced ? traced_wall_s : wall_s).push_back(o.wallS);
            char hash[24];
            std::snprintf(hash, sizeof(hash), "%016llx",
                          static_cast<unsigned long long>(o.statsHash));
            std::cout << "rep " << rep << (traced ? " traced" : "")
                      << ": setup_s=" << o.setupS
                      << " sim_wall_s=" << o.wallS
                      << " stats_hash=" << hash << "\n";
            if (machine_desc.empty()) {
                machine_desc = o.machineDesc;
                stats_hash = o.statsHash;
                counts = o.counts;
                continue;
            }
            bool same = o.statsHash == stats_hash &&
                        o.counts.size() == counts.size();
            for (std::size_t i = 0; same && i < counts.size(); ++i)
                same = o.counts[i].value == counts[i].value;
            if (!same) {
                reproducible = false;
                std::cout << "rep " << rep
                          << ": FAILED (stats differ from rep 0)\n";
            }
        } catch (const std::exception &e) {
            ++failed;
            std::cout << "rep " << rep << ": FAILED (" << e.what()
                      << ")\n";
        }
    }

    const bool ok = failed == 0 && reproducible;
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(stats_hash));
    std::cout << "machine: " << machine_desc << "\n"
              << "stats_hash=" << hash << " (FNV-1a of the stats JSON)\n"
              << "simulations: " << attempted << " attempted, " << failed
              << " failed, " << wall_s.size()
              << " untraced samples; timings are medians, with no tail "
                 "percentile (one needs ten samples beyond it)\n";

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"sim_wall_s", "s", median(wall_s)},
            {"setup_s", "s", median(setup_s)},
            {"peak_rss_mb", "MiB", peakRssMiB()},
            {"valid_frac", "ratio",
             static_cast<double>(attempted - failed) /
                 static_cast<double>(attempted)},
        };
    } else {
        // Self time of each span, as a median over the traced
        // simulations.
        auto self_median = [&](std::string_view name) {
            std::vector<double> v;
            for (std::size_t i = 0; i < log.spans().size(); ++i) {
                if (name == log.spans()[i].name)
                    v.push_back(log.selfSeconds(i));
            }
            return median(v);
        };
        const double run_s = self_median("workloads.run");
        double events = 0;
        for (const Metric &c : counts) {
            if (c.name == "sim.events")
                events = c.value;
        }
        metrics = {
            {"sim.host_ns_per_event", "ns", ratio(run_s * 1e9, events)},
            {"sim.stats_export_s", "s", self_median("sim.stats_export")},
            {"system.construct_s", "s", self_median("system.construct")},
            {"workloads.run_s", "s", run_s},
            {"bench.simulation_self_s", "s",
             self_median("bench.simulation")},
            {"trace.overhead_s", "s",
             median(traced_wall_s) - median(wall_s)},
        };
        metrics.insert(metrics.end(), counts.begin(), counts.end());
        for (const Metric &m : metrics)
            std::cout << "  " << m.name << " = " << m.value << " "
                      << m.unit << "\n";
        if (!opt.spansOut.empty()) {
            std::ofstream f(opt.spansOut);
            log.writeJson(f, origin);
            if (!f) {
                std::cerr << "ccsvm_perfbench: cannot write "
                          << opt.spansOut << "\n";
                return 1;
            }
        }
    }

    std::cout << "{\"correct\": " << (ok ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": ";
    printJsonMetrics(std::cout, metrics);
    std::cout << "}" << std::endl;
    return ok ? 0 : 1;
}
