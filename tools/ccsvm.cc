/**
 * @file
 * The `ccsvm` simulation driver: build a CCSVM machine from
 * command-line flags (core counts and cache geometry default to the
 * paper's Table 2), run one named workload on it, and report the
 * result — a one-line summary on stdout, optionally the full stats
 * registry as text (--stats) and/or JSON (--json FILE).
 *
 *   ccsvm --workload matmul --n 32 --json out.json
 *   ccsvm --workload barneshut --bodies 128 --steps 2 --stats
 *   ccsvm --workload synth:migratory --iters 64 --synth-threads 8
 *   ccsvm --workload matmul,synth:hot --protocol msi,moesi --jobs 4
 *   ccsvm --list-workloads
 *
 * Comma lists on --workload / --protocol form a sweep grid
 * (workload-major); the points run on --jobs worker threads through
 * sim::SweepRunner, and every output — stdout summaries, --stats
 * text, the JSON file — is emitted in point order, byte-identical
 * for every worker count.
 *
 * Workloads come from the workload registry
 * (src/workloads/registry.hh): the paper's four applications plus the
 * synthetic coherence-traffic patterns (synth:*). The usage text, the
 * unknown-workload error and --list-workloads all enumerate the
 * registry, and a workload-parameter flag the selected workload does
 * not consume produces a warning on stderr instead of silently doing
 * nothing.
 *
 * The JSON file carries a "sim" summary (ticks, executed events, DRAM
 * transactions, validation verdict) plus the complete
 * counter/distribution registry, in the same shape the figure
 * benchmarks emit via CCSVM_BENCH_JSON — one schema for every
 * machine-readable artifact this repo produces.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/replacer.hh"
#include "coherence/protocol.hh"
#include "coherence/slice_hash.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "system/ccsvm_machine.hh"
#include "workloads/registry.hh"
#include "workloads/replay/reader.hh"
#include "workloads/replay/replayer.hh"

namespace
{

using namespace ccsvm;

struct DriverOptions
{
    /** Selected workloads (--workload accepts a comma list; more
     * than one name turns the run into a sweep). */
    std::vector<std::string> workloads = {"matmul"};
    /** Protocol axis (--protocol accepts a comma list); empty =
     * the config default, a single protocol behaves exactly like the
     * historical single-valued flag. */
    std::vector<coherence::Protocol> protocols;
    /** Home-slice hash axis (--slice-hash accepts a comma list);
     * empty = the config default (mod). */
    std::vector<coherence::SliceHashKind> sliceHashes;
    /** L2 replacement-policy axis (--l2-replace accepts a comma
     * list); empty = the config default (lru). */
    std::vector<cache::ReplacerKind> replacers;
    /** Sweep worker threads (--jobs): 0 = hardware concurrency,
     * 1 = the historical sequential order. Only sweeps (more than
     * one grid point) spawn workers at all. */
    unsigned jobs = 0;

    workloads::WorkloadParams params;
    /** Workload-parameter flags the user actually passed, for the
     * ignored-flag warning. */
    std::vector<std::string> setFlags;

    system::CcsvmConfig cfg;

    std::string jsonPath;       ///< empty = no JSON output; "-" = stdout
    std::string traceOut;       ///< empty = no trace file
    std::string traceCategories; ///< --trace-categories value
    bool textStats = false;
    bool verbose = false;
};

/** One point of the workload x protocol grid. */
struct PointSpec
{
    std::string workload;
    const workloads::WorkloadEntry *entry;
    system::CcsvmConfig cfg;
};

/** Everything a point's simulation produced, rendered on the worker
 * so the main thread only concatenates in deterministic point
 * order. */
struct PointOutput
{
    std::string summary;   ///< the one-line stdout summary
    std::string statsText; ///< --stats dump ("" when not requested)
    std::string json;      ///< full JSON doc ("" when no --json)
    std::string trace;     ///< Chrome trace JSON ("" when no --trace-out)
    bool correct = false;
};

void
usage(const char *argv0, std::FILE *out = stdout)
{
    const auto &reg = workloads::WorkloadRegistry::instance();
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "\n"
        "workload selection:\n"
        "  --workload NAMES    one of (comma-separate to sweep): %s\n"
        "                      (default matmul)\n"
        "  --list-workloads    list every workload with its summary "
        "and flags\n"
        "\n"
        "parallel sweeps (multiple --workload/--protocol values form "
        "a grid;\nsee README \"Parallel sweeps\"):\n"
        "  --jobs N            run sweep points on N worker threads\n"
        "                      (default: hardware concurrency; 1 = "
        "sequential\n"
        "                      order; results are deterministic "
        "either way)\n"
        "\n"
        "workload parameters (each consumed only by some workloads;\n"
        "setting one the selected workload ignores warns):\n"
        "  --n N               matrix dimension for matmul/apsp/spmm "
        "(default 32)\n"
        "  --bodies N          barneshut body count (default 256)\n"
        "  --steps N           barneshut time steps (default 2)\n"
        "  --density F         spmm non-zero fraction (default 0.01)\n"
        "  --seed N            barneshut/spmm input seed, "
        "synth:ptrchase ring seed\n"
        "  --iters N           synth main-loop iterations per thread "
        "(default 64)\n"
        "  --synth-threads N   synth MTTOP traffic threads "
        "(default 16)\n"
        "  --rpw N             synth extra reads per write "
        "(default 4)\n"
        "  --footprint-kb K    synth stream/ptrchase total footprint "
        "(default 64)\n"
        "  --stride B          synth stream/ptrchase access stride "
        "bytes (default 64)\n"
        "  --sharing N         synth sharing degree: threads/line "
        "(false), lines (readmostly)\n"
        "\n"
        "region-based coherence (see README \"Region-based "
        "coherence\"):\n"
        "  --region N:B:S:A    declare virtual region named N at "
        "page-aligned base B,\n"
        "                      size S (0x-hex or decimal, K/M "
        "suffixes) with attribute A:\n"
        "                      coherent | bypass | readmostly | a "
        "protocol name\n"
        "                      (protocol name = coherent under that "
        "protocol; repeatable)\n"
        "  --region-hints      apply the workload's default region "
        "annotations\n"
        "                      (synth:stream buffer -> bypass, "
        "matmul A/B -> readmostly)\n"
        "\n"
        "machine configuration (defaults = paper Table 2):\n"
        "  --protocol P[,P..]  chip-wide coherence protocol: %s "
        "(default moesi;\n"
        "                      a comma list sweeps the protocol "
        "axis)\n"
        "  --cpu-protocol P    CPU-cluster protocol (default: "
        "--protocol)\n"
        "  --mttop-protocol P  MTTOP-cluster protocol (default: "
        "--protocol)\n"
        "  --list-protocols    list every protocol name, one per "
        "line\n"
        "  --cpu-cores N       in-order CPU cores (default 4)\n"
        "  --mttop-cores N     MTTOP cores (default 10)\n"
        "  --mttop-contexts N  thread contexts per MTTOP core "
        "(default 128)\n"
        "  --l2-banks N        L2/directory bank count (default 4)\n"
        "  --cpu-l1-kb K       CPU L1 size (default 64)\n"
        "  --mttop-l1-kb K     MTTOP L1 size (default 16)\n"
        "  --l2-bank-kb K      per-bank L2 size (default 1024)\n"
        "  --slice-hash H[,H..]\n"
        "                      home-slice (bank-select) hash: %s\n"
        "                      (default mod; a comma list sweeps the "
        "hash axis;\n"
        "                      see README \"Sharded home banks\")\n"
        "  --list-slice-hashes\n"
        "                      list every slice-hash name, one per "
        "line\n"
        "  --l2-replace R[,R..]\n"
        "                      L2/directory replacement policy: %s\n"
        "                      (default lru; a comma list sweeps the "
        "replacer axis)\n"
        "  --list-replacers    list every replacement-policy name, "
        "one per line\n"
        "  --dram-ns N         flat DRAM latency (default 100)\n"
        "  --no-swmr           disable the SWMR checker (faster host "
        "run)\n"
        "\n"
        "output:\n"
        "  --json FILE         write summary + full stats registry as "
        "JSON\n"
        "                      (FILE '-' = stdout; summaries/--stats "
        "move to stderr)\n"
        "  --stats             dump the stats registry as text on "
        "stdout\n"
        "observability (see README \"Observability\"):\n"
        "  --trace-out FILE    write a Chrome trace-event JSON "
        "(single point only;\n"
        "                      load in Perfetto / chrome://tracing)\n"
        "  --trace-categories LIST\n"
        "                      comma list of coh,noc,vm,kernel or "
        "all\n"
        "                      (default all when --trace-out is set)\n"
        "  --sample-interval TICKS\n"
        "                      sample counter totals every TICKS into "
        "a \"series\"\n"
        "                      section of the JSON (0 = off)\n"
        "trace capture & replay (see README \"Trace capture & "
        "replay\"):\n"
        "  --capture-out FILE  record the guest memory-op stream to a "
        ".ccsvmt\n"
        "                      trace (single point only; format in "
        "docs/TRACE_FORMAT.md)\n"
        "  --trace FILE        the .ccsvmt trace --workload replay "
        "re-issues\n"
        "  --verbose           keep simulator log output\n"
        "  --help              this text\n",
        argv0, reg.nameList(" | ").c_str(),
        coherence::protocolNameList(" | ").c_str(),
        coherence::sliceHashNameList(" | ").c_str(),
        cache::replacerNameList(" | ").c_str());
}

void
listWorkloads()
{
    const auto &reg = workloads::WorkloadRegistry::instance();
    for (const auto &e : reg.entries()) {
        std::string flags;
        for (const auto &f : e.flags)
            flags += (flags.empty() ? "" : " ") + f;
        std::printf("  %-16s %s%s%s%s\n", e.name.c_str(),
                    e.summary.c_str(), flags.empty() ? "" : "  [",
                    flags.c_str(), flags.empty() ? "" : "]");
    }
}

/**
 * Parse the next argument of flag @p name as an unsigned integer.
 * Count-like flags (core counts, sizes) reject 0; flags where 0 is
 * meaningful (--seed, --steps, --dram-ns, --rpw) pass @p allow_zero.
 */
unsigned
parseUnsigned(const char *name, const char *value,
              bool allow_zero = false)
{
    // strtoul skips leading blanks, accepts a sign and wraps "-1" to
    // ULONG_MAX, so require a leading digit and a value that fits.
    char *end = nullptr;
    const unsigned long v = std::strtoul(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end ||
        v > std::numeric_limits<unsigned>::max() ||
        (v == 0 && !allow_zero)) {
        std::fprintf(stderr, "ccsvm: %s needs a %s integer of at most "
                     "%u, got '%s'\n", name,
                     allow_zero ? "non-negative" : "positive",
                     std::numeric_limits<unsigned>::max(), value);
        std::exit(2);
    }
    return static_cast<unsigned>(v);
}

/** Parse a protocol name for a --protocol-family flag; exits 2 with
 * the accepted names (from the same table --list-protocols prints)
 * on an unknown value. */
coherence::Protocol
parseProtocol(const char *name, const char *value)
{
    coherence::Protocol p;
    if (!coherence::protocolFromName(value, p)) {
        std::fprintf(stderr,
                     "ccsvm: %s wants one of %s, got '%s'\n", name,
                     coherence::protocolNameList(", ").c_str(), value);
        std::exit(2);
    }
    return p;
}

/** Parse a slice-hash name for --slice-hash; exits 2 with the
 * accepted names (the --list-slice-hashes table) on unknown. */
coherence::SliceHashKind
parseSliceHash(const char *name, const char *value)
{
    coherence::SliceHashKind k;
    if (!coherence::sliceHashFromName(value, k)) {
        std::fprintf(stderr,
                     "ccsvm: %s wants one of %s, got '%s'\n", name,
                     coherence::sliceHashNameList(", ").c_str(),
                     value);
        std::exit(2);
    }
    return k;
}

/** Parse a replacement-policy name for --l2-replace; exits 2 with
 * the accepted names (the --list-replacers table) on unknown. */
cache::ReplacerKind
parseReplacer(const char *name, const char *value)
{
    cache::ReplacerKind k;
    if (!cache::replacerFromName(value, k)) {
        std::fprintf(stderr,
                     "ccsvm: %s wants one of %s, got '%s'\n", name,
                     cache::replacerNameList(", ").c_str(), value);
        std::exit(2);
    }
    return k;
}

/** Parse a byte count: 0x-hex or decimal, optional K/M/G suffix. */
Addr
parseBytes(const char *flag, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(value.c_str(), &end, 0);
    Addr bytes = v;
    if (end && end[0] && !end[1]) {
        switch (std::tolower(static_cast<unsigned char>(end[0]))) {
          case 'k': bytes = v * 1024ull; end = nullptr; break;
          case 'm': bytes = v * 1024ull * 1024; end = nullptr; break;
          case 'g':
            bytes = v * 1024ull * 1024 * 1024;
            end = nullptr;
            break;
        }
    }
    if (value.empty() || (end && *end)) {
        std::fprintf(stderr,
                     "ccsvm: %s needs a byte count (hex/decimal, "
                     "optional K/M/G), got '%s'\n",
                     flag, value.c_str());
        std::exit(2);
    }
    return bytes;
}

/**
 * Parse one --region value "name:base:size:attr" into a MemRegion.
 * attr is coherent, bypass, readmostly (= MESI override), or a
 * protocol name (= override under that protocol). Exits 2 on a
 * malformed spec, an unknown attribute, or a misaligned region.
 */
vm::MemRegion
parseRegion(const std::string &spec)
{
    auto fail = [&spec](const char *why) {
        std::fprintf(stderr,
                     "ccsvm: --region wants name:base:size:attr "
                     "(%s), got '%s'\n",
                     why, spec.c_str());
        std::exit(2);
    };

    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (parts.size() < 4) {
        const std::size_t colon = parts.size() == 3
                                      ? std::string::npos
                                      : spec.find(':', pos);
        parts.push_back(spec.substr(
            pos,
            colon == std::string::npos ? std::string::npos
                                       : colon - pos));
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    if (parts.size() != 4 || parts[0].empty() || parts[3].empty())
        fail("four colon-separated fields");

    vm::MemRegion r;
    r.name = parts[0];
    r.base = parseBytes("--region base", parts[1]);
    r.size = parseBytes("--region size", parts[2]);

    const std::string &attr = parts[3];
    coherence::Protocol prot;
    if (attr == "coherent") {
        r.attr = coherence::RegionAttr::Coherent;
    } else if (attr == "bypass") {
        r.attr = coherence::RegionAttr::Bypass;
    } else if (attr == "readmostly") {
        // Read-mostly data wants clean-exclusive fills without
        // dirty-sharing residue: a MESI override.
        r.attr = coherence::RegionAttr::ProtocolOverride;
        r.protocol = coherence::Protocol::MESI;
    } else if (coherence::protocolFromName(attr, prot)) {
        r.attr = coherence::RegionAttr::ProtocolOverride;
        r.protocol = prot;
    } else {
        std::fprintf(stderr,
                     "ccsvm: --region attribute wants coherent, "
                     "bypass, readmostly or one of %s, got '%s'\n",
                     coherence::protocolNameList(", ").c_str(),
                     attr.c_str());
        std::exit(2);
    }

    if (r.size == 0 || r.base % mem::pageBytes != 0 ||
        r.size % mem::pageBytes != 0) {
        std::fprintf(stderr,
                     "ccsvm: --region '%s' must be page-aligned "
                     "(base=0x%llx size=0x%llx, page=%u)\n",
                     r.name.c_str(), (unsigned long long)r.base,
                     (unsigned long long)r.size,
                     unsigned(mem::pageBytes));
        std::exit(2);
    }
    return r;
}

/** Split a comma-separated flag value; rejects empty elements. */
std::vector<std::string>
splitList(const char *flag, const std::string &value)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        const std::size_t comma = value.find(',', pos);
        const std::string item = value.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (item.empty()) {
            std::fprintf(stderr,
                         "ccsvm: %s has an empty element in '%s'\n",
                         flag, value.c_str());
            std::exit(2);
        }
        out.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

double
parseDouble(const char *name, const char *value)
{
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    if (!value[0] || *end) {
        std::fprintf(stderr, "ccsvm: %s needs a number, got '%s'\n",
                     name, value);
        std::exit(2);
    }
    return v;
}

DriverOptions
parseArgs(int argc, char **argv)
{
    DriverOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "ccsvm: %s needs an argument\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // Record a workload-parameter flag for the ignored-flag
        // warning (machine/output flags apply to every workload).
        auto wlFlag = [&]() { o.setFlags.push_back(arg); };

        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else if (arg == "--list-workloads") {
            listWorkloads();
            std::exit(0);
        } else if (arg == "--workload") {
            o.workloads = splitList("--workload", next());
        } else if (arg == "--jobs") {
            o.jobs = parseUnsigned("--jobs", next(), true);
        } else if (arg == "--n") {
            o.params.n = parseUnsigned("--n", next());
            wlFlag();
        } else if (arg == "--bodies") {
            o.params.bh.bodies = parseUnsigned("--bodies", next());
            wlFlag();
        } else if (arg == "--steps") {
            o.params.bh.steps =
                parseUnsigned("--steps", next(), true);
            wlFlag();
        } else if (arg == "--density") {
            o.params.spmm.density = parseDouble("--density", next());
            wlFlag();
        } else if (arg == "--seed") {
            const unsigned s = parseUnsigned("--seed", next(), true);
            o.params.bh.seed = s;
            o.params.spmm.seed = s;
            o.params.synth.seed = s;
            o.params.matmulSeed = s;
            wlFlag();
        } else if (arg == "--iters") {
            o.params.synth.iters = parseUnsigned("--iters", next());
            wlFlag();
        } else if (arg == "--synth-threads") {
            o.params.synth.threads =
                parseUnsigned("--synth-threads", next());
            wlFlag();
        } else if (arg == "--rpw") {
            o.params.synth.readsPerWrite =
                parseUnsigned("--rpw", next(), true);
            wlFlag();
        } else if (arg == "--footprint-kb") {
            o.params.synth.footprintBytes =
                Addr(parseUnsigned("--footprint-kb", next())) * 1024;
            wlFlag();
        } else if (arg == "--stride") {
            o.params.synth.strideBytes =
                parseUnsigned("--stride", next());
            wlFlag();
        } else if (arg == "--sharing") {
            o.params.synth.sharingDegree =
                parseUnsigned("--sharing", next());
            wlFlag();
        } else if (arg == "--region") {
            o.cfg.regions.push_back(parseRegion(next()));
        } else if (arg == "--region-hints") {
            o.params.regionHints = true;
            wlFlag();
        } else if (arg == "--protocol") {
            o.protocols.clear();
            for (const auto &name :
                 splitList("--protocol", next())) {
                o.protocols.push_back(
                    parseProtocol("--protocol", name.c_str()));
            }
        } else if (arg == "--cpu-protocol") {
            o.cfg.cpuProtocol =
                parseProtocol("--cpu-protocol", next());
        } else if (arg == "--mttop-protocol") {
            o.cfg.mttopProtocol =
                parseProtocol("--mttop-protocol", next());
        } else if (arg == "--list-protocols") {
            for (const auto p : coherence::allProtocols)
                std::printf("%s\n", coherence::protocolName(p));
            std::exit(0);
        } else if (arg == "--slice-hash") {
            o.sliceHashes.clear();
            for (const auto &name :
                 splitList("--slice-hash", next())) {
                o.sliceHashes.push_back(
                    parseSliceHash("--slice-hash", name.c_str()));
            }
        } else if (arg == "--list-slice-hashes") {
            for (const auto k : coherence::allSliceHashes)
                std::printf("%s\n", coherence::sliceHashName(k));
            std::exit(0);
        } else if (arg == "--l2-replace") {
            o.replacers.clear();
            for (const auto &name :
                 splitList("--l2-replace", next())) {
                o.replacers.push_back(
                    parseReplacer("--l2-replace", name.c_str()));
            }
        } else if (arg == "--list-replacers") {
            for (const auto k : cache::allReplacers)
                std::printf("%s\n", cache::replacerName(k));
            std::exit(0);
        } else if (arg == "--cpu-cores") {
            o.cfg.numCpuCores =
                static_cast<int>(parseUnsigned("--cpu-cores", next()));
        } else if (arg == "--mttop-cores") {
            o.cfg.numMttopCores = static_cast<int>(
                parseUnsigned("--mttop-cores", next()));
        } else if (arg == "--mttop-contexts") {
            o.cfg.mttop.numContexts =
                parseUnsigned("--mttop-contexts", next());
        } else if (arg == "--l2-banks") {
            o.cfg.numL2Banks =
                static_cast<int>(parseUnsigned("--l2-banks", next()));
        } else if (arg == "--cpu-l1-kb") {
            o.cfg.cpuL1.sizeBytes =
                Addr(parseUnsigned("--cpu-l1-kb", next())) * 1024;
        } else if (arg == "--mttop-l1-kb") {
            o.cfg.mttopL1.sizeBytes =
                Addr(parseUnsigned("--mttop-l1-kb", next())) * 1024;
        } else if (arg == "--l2-bank-kb") {
            o.cfg.l2.bankSizeBytes =
                Addr(parseUnsigned("--l2-bank-kb", next())) * 1024;
        } else if (arg == "--dram-ns") {
            o.cfg.dram.accessLatency =
                Tick(parseUnsigned("--dram-ns", next(), true)) *
                tickNs;
        } else if (arg == "--no-swmr") {
            o.cfg.swmrChecks = false;
        } else if (arg == "--json") {
            o.jsonPath = next();
        } else if (arg == "--trace-out") {
            o.traceOut = next();
        } else if (arg == "--capture-out") {
            o.cfg.captureOut = next();
        } else if (arg == "--trace") {
            o.params.replayTrace = next();
            wlFlag();
        } else if (arg == "--trace-categories") {
            o.traceCategories = next();
            unsigned mask = 0;
            if (!sim::Tracer::parseCategories(o.traceCategories,
                                              mask)) {
                std::fprintf(
                    stderr,
                    "ccsvm: --trace-categories wants a comma list "
                    "of coh, noc, vm, kernel or all, got "
                    "'%s'\n",
                    o.traceCategories.c_str());
                std::exit(2);
            }
        } else if (arg == "--sample-interval") {
            // Ticks are picoseconds; intervals routinely exceed the
            // 32-bit range parseUnsigned would clip to.
            const char *v = next();
            char *end = nullptr;
            o.cfg.sampleInterval = std::strtoull(v, &end, 10);
            if (!std::isdigit(static_cast<unsigned char>(v[0])) ||
                *end) {
                std::fprintf(stderr,
                             "ccsvm: --sample-interval needs a tick "
                             "count, got '%s'\n", v);
                std::exit(2);
            }
        } else if (arg == "--stats") {
            o.textStats = true;
        } else if (arg == "--verbose") {
            o.verbose = true;
        } else {
            std::fprintf(stderr,
                         "ccsvm: unknown option '%s' (run %s --help "
                         "for the full flag list)\n",
                         arg.c_str(), argv[0]);
            usage(argv[0], stderr);
            std::exit(2);
        }
    }
    // Tracing is only armed when there is somewhere to write it;
    // --trace-categories alone is almost certainly a mistake, so
    // warn rather than pay the tracing cost silently.
    if (!o.traceOut.empty()) {
        o.cfg.traceCategories =
            o.traceCategories.empty() ? "all" : o.traceCategories;
    } else if (!o.traceCategories.empty()) {
        std::fprintf(stderr,
                     "ccsvm: warning: --trace-categories without "
                     "--trace-out; tracing stays off\n");
    }
    // Overlapping --region declarations are a user error: fail fast
    // with a CLI diagnostic instead of tripping the simulator's
    // region-table assert mid-construction.
    for (std::size_t i = 0; i < o.cfg.regions.size(); ++i) {
        for (std::size_t j = i + 1; j < o.cfg.regions.size(); ++j) {
            const vm::MemRegion &x = o.cfg.regions[i];
            const vm::MemRegion &y = o.cfg.regions[j];
            if (x.base < y.base + y.size && y.base < x.base + x.size) {
                std::fprintf(stderr,
                             "ccsvm: --region '%s' overlaps --region "
                             "'%s'\n",
                             y.name.c_str(), x.name.c_str());
                std::exit(2);
            }
        }
    }
    // Cache geometry flags must yield a power-of-two set count per
    // array; fail fast with a CLI diagnostic naming the flag instead
    // of tripping the cache array's internal assert mid-construction.
    const auto check_sets = [](const char *flag, Addr size_bytes,
                               unsigned assoc) {
        const Addr sets = size_bytes / mem::blockBytes / assoc;
        if (sets == 0 || (sets & (sets - 1)) != 0) {
            std::fprintf(
                stderr,
                "ccsvm: %s gives %llu sets (%llu bytes / %u-byte "
                "lines / %u ways); the set count must be a "
                "power of two >= 1\n",
                flag, (unsigned long long)sets,
                (unsigned long long)size_bytes,
                unsigned(mem::blockBytes), assoc);
            std::exit(2);
        }
    };
    check_sets("--l2-bank-kb", o.cfg.l2.bankSizeBytes, o.cfg.l2.assoc);
    check_sets("--cpu-l1-kb", o.cfg.cpuL1.sizeBytes, o.cfg.cpuL1.assoc);
    check_sets("--mttop-l1-kb", o.cfg.mttopL1.sizeBytes,
               o.cfg.mttopL1.assoc);
    if (o.cfg.numCpuCores + o.cfg.numMttopCores > coherence::maxL1s) {
        std::fprintf(stderr,
                     "ccsvm: --cpu-cores %d + --mttop-cores %d gives "
                     "%d L1 caches; the directory tracks at most %d\n",
                     o.cfg.numCpuCores, o.cfg.numMttopCores,
                     o.cfg.numCpuCores + o.cfg.numMttopCores,
                     coherence::maxL1s);
        std::exit(2);
    }
    if (o.cfg.numL2Banks < 1) {
        std::fprintf(stderr,
                     "ccsvm: --l2-banks %d: the home-slice hash "
                     "needs at least one bank\n",
                     o.cfg.numL2Banks);
        std::exit(2);
    }
    return o;
}

/**
 * Resolve every selected workload in the registry; exits with the
 * full name list on an unknown name. Warns (through the registry's
 * caller-supplied sink) about workload-parameter flags a selection
 * will ignore.
 */
std::vector<const workloads::WorkloadEntry *>
selectWorkloads(const DriverOptions &o)
{
    const auto &reg = workloads::WorkloadRegistry::instance();
    std::vector<const workloads::WorkloadEntry *> out;
    for (const auto &name : o.workloads) {
        const workloads::WorkloadEntry *e = reg.find(name);
        if (!e) {
            std::fprintf(stderr,
                         "ccsvm: unknown workload '%s' (want one of: "
                         "%s)\n",
                         name.c_str(), reg.nameList().c_str());
            std::exit(2);
        }
        workloads::WorkloadRegistry::warnIgnoredFlags(
            *e, o.setFlags, [](const std::string &msg) {
                std::fprintf(stderr, "ccsvm: warning: %s\n",
                             msg.c_str());
            });
        out.push_back(e);
    }
    return out;
}

/**
 * Render one point's full JSON document (the historical single-run
 * schema: params, machine, sim summary, full stats registry). Sweep
 * mode embeds one such document per point; the single-point path
 * writes exactly one, byte-identical to the pre-sweep driver.
 */
void
renderPointJson(std::ostream &os, const DriverOptions &o,
                const PointSpec &spec,
                system::CcsvmMachine &m,
                const workloads::RunResult &r)
{
    const workloads::WorkloadEntry &entry = *spec.entry;
    const workloads::WorkloadParams &p = o.params;
    // The parameter groups default to different seeds; the registry
    // entry knows which one (if any) the workload consumed.
    const std::uint64_t seed = entry.seed ? entry.seed(p) : 0;
    os << "{\n"
       << "  \"workload\": \"" << sim::jsonEscape(spec.workload)
       << "\",\n"
       << "  \"params\": {\"n\": " << p.n
       << ", \"bodies\": " << p.bh.bodies
       << ", \"steps\": " << p.bh.steps
       << ", \"density\": " << sim::jsonNumber(p.spmm.density)
       << ", \"seed\": " << seed
       << ",\n             \"iters\": " << p.synth.iters
       << ", \"synth_threads\": " << p.synth.threads
       << ", \"rpw\": " << p.synth.readsPerWrite
       << ", \"footprint_bytes\": " << p.synth.footprintBytes
       << ", \"stride\": " << p.synth.strideBytes
       << ", \"sharing\": " << p.synth.sharingDegree
       << "},\n"
       << "  \"machine\": {\"protocol\": \""
       << (m.cpuProtocol() == m.mttopProtocol()
               ? coherence::protocolName(m.cpuProtocol())
               : "heterogeneous")
       << "\", \"cpu_protocol\": \""
       << coherence::protocolName(m.cpuProtocol())
       << "\", \"mttop_protocol\": \""
       << coherence::protocolName(m.mttopProtocol())
       << "\", \"cpu_cores\": " << spec.cfg.numCpuCores
       << ", \"mttop_cores\": " << spec.cfg.numMttopCores
       << ", \"mttop_contexts\": " << spec.cfg.mttop.numContexts
       << ", \"l2_banks\": " << spec.cfg.numL2Banks
       << ", \"cpu_l1_bytes\": " << spec.cfg.cpuL1.sizeBytes
       << ", \"mttop_l1_bytes\": " << spec.cfg.mttopL1.sizeBytes
       << ", \"l2_bank_bytes\": " << spec.cfg.l2.bankSizeBytes
       << ", \"slice_hash\": \""
       << coherence::sliceHashName(spec.cfg.sliceHash)
       << "\", \"l2_replace\": \""
       << cache::replacerName(spec.cfg.l2Replace)
       << "\",\n              \"region_hints\": "
       << (p.regionHints ? "true" : "false") << ", \"regions\": [";
    for (std::size_t i = 0; i < spec.cfg.regions.size(); ++i) {
        const vm::MemRegion &reg = spec.cfg.regions[i];
        std::string attr = coherence::regionAttrName(reg.attr);
        if (reg.attr == coherence::RegionAttr::ProtocolOverride)
            attr += std::string(":") +
                    coherence::protocolName(reg.protocol);
        os << (i ? ", " : "") << "{\"name\": \""
           << sim::jsonEscape(reg.name) << "\", \"base\": " << reg.base
           << ", \"size\": " << reg.size << ", \"attr\": \"" << attr
           << "\"}";
    }
    os << "]},\n"
       << "  \"sim\": {\"ticks\": " << r.ticks
       << ", \"ticks_no_init\": " << r.ticksNoInit
       << ", \"events\": " << m.engine().eventsExecuted()
       << ", \"dram_accesses\": " << r.dramAccesses
       << ", \"correct\": " << (r.correct ? "true" : "false")
       << "},\n";
    if (spec.cfg.sampleInterval > 0) {
        // Time series: cumulative counter totals at each interval
        // boundary. Only present when sampling is on, so default
        // JSON output is byte-identical to the sampling-less driver.
        const std::vector<system::CcsvmMachine::Sample> &samples =
            m.samples();
        os << "  \"series\": {\"interval\": " << spec.cfg.sampleInterval
           << ", \"samples\": [";
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const system::CcsvmMachine::Sample &s = samples[i];
            os << (i ? ",\n    " : "\n    ") << "{\"t\": " << s.t
               << ", \"dram\": " << s.dram
               << ", \"l1_hits\": " << s.l1Hits
               << ", \"l1_misses\": " << s.l1Misses
               << ", \"noc_packets\": " << s.nocPackets
               << ", \"noc_bytes\": " << s.nocBytes
               << ", \"page_faults\": " << s.pageFaults << "}";
        }
        os << (samples.empty() ? "]" : "\n  ]") << "},\n";
    }
    os << "  \"stats\": ";
    m.stats().dumpJson(os, "  ");
    os << "\n}";
}

/**
 * Simulate one grid point and render everything it produces into
 * strings. Safe to call from a sweep worker: the machine is local,
 * and nothing here touches stdout/stderr or shared driver state — the
 * main thread emits the strings in point order afterwards.
 */
PointOutput
runPoint(const DriverOptions &o, const PointSpec &spec)
{
    system::CcsvmMachine m(spec.cfg);
    const workloads::RunResult r = spec.entry->run(m, o.params);

    // Mirror the run summary into the registry so every consumer of
    // the stats dump — text or JSON — sees the headline numbers next
    // to the component counters.
    m.stats().counter("sim.ticks", "simulated ticks (ps)") += r.ticks;
    m.stats().counter("sim.dramAccesses",
                      "off-chip DRAM transactions in the measured "
                      "region") += r.dramAccesses;

    // Homogeneous runs keep the historical single-name spelling;
    // mixed pairs print both sides.
    const std::string proto_str =
        m.cpuProtocol() == m.mttopProtocol()
            ? coherence::protocolName(m.cpuProtocol())
            : std::string("cpu:") +
                  coherence::protocolName(m.cpuProtocol()) +
                  "/mttop:" +
                  coherence::protocolName(m.mttopProtocol());
    char line[256];
    std::snprintf(line, sizeof line,
                  "ccsvm: workload=%s protocol=%s ticks=%llu "
                  "sim_ms=%.3f dram=%llu correct=%s\n",
                  spec.workload.c_str(), proto_str.c_str(),
                  (unsigned long long)r.ticks,
                  static_cast<double>(r.ticks) /
                      static_cast<double>(tickMs),
                  (unsigned long long)r.dramAccesses,
                  r.correct ? "yes" : "NO");

    PointOutput out;
    out.summary = line;
    out.correct = r.correct;
    if (o.textStats) {
        std::ostringstream ss;
        m.dumpStats(ss);
        out.statsText = ss.str();
    }
    if (!o.jsonPath.empty()) {
        std::ostringstream ss;
        renderPointJson(ss, o, spec, m, r);
        out.json = ss.str();
    }
    if (!o.traceOut.empty()) {
        std::ostringstream ss;
        m.stats().tracer().writeJson(ss);
        out.trace = ss.str();
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const DriverOptions o = parseArgs(argc, argv);
    const std::vector<const workloads::WorkloadEntry *> entries =
        selectWorkloads(o);
    if (!o.verbose)
        setQuiet(true);

    // The workload x protocol x slice-hash x replacer grid,
    // workload-major. Every empty axis contributes one config-default
    // point, so a run without sweep flags (or with single values) is
    // the historical driver.
    std::vector<PointSpec> points;
    const std::size_t np = o.protocols.empty() ? 1 : o.protocols.size();
    const std::size_t nh =
        o.sliceHashes.empty() ? 1 : o.sliceHashes.size();
    const std::size_t nr = o.replacers.empty() ? 1 : o.replacers.size();
    for (std::size_t wi = 0; wi < o.workloads.size(); ++wi) {
        for (std::size_t pi = 0; pi < np; ++pi) {
            for (std::size_t hi = 0; hi < nh; ++hi) {
                for (std::size_t ri = 0; ri < nr; ++ri) {
                    system::CcsvmConfig cfg = o.cfg;
                    if (!o.protocols.empty())
                        cfg.protocol = o.protocols[pi];
                    if (!o.sliceHashes.empty())
                        cfg.sliceHash = o.sliceHashes[hi];
                    if (!o.replacers.empty())
                        cfg.l2Replace = o.replacers[ri];
                    points.push_back(
                        {o.workloads[wi], entries[wi], cfg});
                }
            }
        }
    }

    // A transaction trace of a whole sweep would interleave unrelated
    // machines into one timeline; keep the feature single-point.
    if (!o.traceOut.empty() && points.size() > 1) {
        std::fprintf(stderr,
                     "ccsvm: --trace-out traces a single run; drop "
                     "the sweep axes (%zu points selected)\n",
                     points.size());
        return 2;
    }
    // Same story for op-stream capture: one trace file holds one run.
    if (!o.cfg.captureOut.empty() && points.size() > 1) {
        std::fprintf(stderr,
                     "ccsvm: --capture-out records a single run; drop "
                     "the sweep axes (%zu points selected)\n",
                     points.size());
        return 2;
    }

    // Validate replay points before simulating anything: a missing,
    // corrupt or shape-mismatched trace is a CLI error (exit 2 with a
    // diagnostic), not a mid-sweep exception.
    for (const PointSpec &spec : points) {
        if (spec.workload != "replay")
            continue;
        if (o.params.replayTrace.empty()) {
            std::fprintf(stderr,
                         "ccsvm: --workload replay needs --trace "
                         "FILE\n");
            return 2;
        }
        try {
            const workloads::replay::TraceInfo info =
                workloads::replay::readTraceInfo(o.params.replayTrace);
            const std::string err = workloads::replay::shapeMismatch(
                info.shape, workloads::replay::shapeOf(spec.cfg));
            if (!err.empty()) {
                std::fprintf(stderr,
                             "ccsvm: trace '%s' does not match the "
                             "configured machine shape: %s\n",
                             o.params.replayTrace.c_str(),
                             err.c_str());
                return 2;
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ccsvm: cannot read trace '%s': %s\n",
                         o.params.replayTrace.c_str(), e.what());
            return 2;
        }
    }

    // Simulate — on this thread for a single point (byte-identical to
    // the pre-sweep driver), through the sweep runner for a grid. The
    // runner returns results in point order whatever --jobs is, so
    // every byte below is independent of worker count.
    std::vector<PointOutput> results;
    if (points.size() == 1) {
        results.push_back(runPoint(o, points[0]));
    } else {
        std::vector<std::function<PointOutput()>> tasks;
        for (const PointSpec &spec : points)
            tasks.emplace_back(
                [&o, &spec]() { return runPoint(o, spec); });
        const sim::SweepRunner runner(o.jobs);
        results = runner.map<PointOutput>(tasks);
    }

    // --json - reserves stdout for the JSON document: the human-facing
    // summaries and --stats text move to stderr so `ccsvm ... | jq`
    // just works.
    const bool json_stdout = o.jsonPath == "-";
    std::FILE *const human = json_stdout ? stderr : stdout;
    bool all_correct = true;
    for (const PointOutput &res : results) {
        std::fputs(res.summary.c_str(), human);
        if (o.textStats)
            std::fputs(res.statsText.c_str(), human);
        all_correct = all_correct && res.correct;
    }

    if (!o.jsonPath.empty()) {
        std::ofstream file;
        if (!json_stdout) {
            file.open(o.jsonPath);
            if (!file) {
                std::fprintf(stderr, "ccsvm: cannot open %s\n",
                             o.jsonPath.c_str());
                return 1;
            }
        }
        std::ostream &os = json_stdout
                               ? static_cast<std::ostream &>(std::cout)
                               : file;
        if (results.size() == 1) {
            os << results[0].json << "\n";
        } else {
            // Sweep schema: the per-point documents, unchanged, under
            // "points". Deliberately no worker-count metadata: the
            // file must be byte-identical for every --jobs value.
            os << "{\n  \"sweep\": {\"points\": "
               << results.size() << "},\n  \"points\": [\n";
            for (std::size_t i = 0; i < results.size(); ++i) {
                os << results[i].json
                   << (i + 1 < results.size() ? ",\n" : "\n");
            }
            os << "]\n}\n";
        }
        if (!os.flush()) {
            std::fprintf(stderr, "ccsvm: short write to %s\n",
                         o.jsonPath.c_str());
            return 1;
        }
    }

    if (!o.traceOut.empty()) {
        std::ofstream os(o.traceOut);
        if (!os) {
            std::fprintf(stderr, "ccsvm: cannot open %s\n",
                         o.traceOut.c_str());
            return 1;
        }
        os << results[0].trace;
        if (!os.flush()) {
            std::fprintf(stderr, "ccsvm: short write to %s\n",
                         o.traceOut.c_str());
            return 1;
        }
    }

    return all_correct ? 0 : 1;
}
