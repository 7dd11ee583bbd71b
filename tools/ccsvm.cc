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
 * Every flag is one row of flagTable: its name, argument kind, help
 * text, the range its value must fall in (bounds taken from the
 * model: the 64-L1 sharer mask, the MIFD's SIMD width, the 1 GiB
 * guest heap) and the option it sets. One loop parses the command
 * line from the table and --help is rendered from it, so every
 * rejection exits 2 naming the flag.
 *
 * The JSON file carries a "sim" summary (ticks, executed events, DRAM
 * transactions, validation verdict) plus the complete
 * counter/distribution registry, in the same shape the figure
 * benchmarks emit via CCSVM_BENCH_JSON — one schema for every
 * machine-readable artifact this repo produces.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "base/intmath.hh"
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

/** Report a CLI error as "ccsvm: <message>" on stderr and exit 2. */
[[noreturn]] __attribute__((format(printf, 1, 2))) void
reject(const char *fmt, ...)
{
    std::fputs("ccsvm: ", stderr);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    std::exit(2);
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

/** Parse a byte count: 0x-hex or decimal, optional K/M/G suffix. */
Addr
parseBytes(const char *flag, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
    unsigned shift = 0;
    if (end[0] && !end[1]) {
        switch (std::tolower(static_cast<unsigned char>(end[0]))) {
          case 'k': shift = 10; ++end; break;
          case 'm': shift = 20; ++end; break;
          case 'g': shift = 30; ++end; break;
        }
    }
    // Like the integer flags: no blank, no sign, nothing that wraps.
    if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end ||
        errno == ERANGE || v > (~0ull >> shift)) {
        reject("%s needs a byte count (hex/decimal, optional K/M/G), "
               "got '%s'", flag, value.c_str());
    }
    return v << shift;
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
    if (parts.size() != 4 || parts[0].empty() || parts[3].empty()) {
        reject("--region wants name:base:size:attr (four "
               "colon-separated fields), got '%s'", spec.c_str());
    }

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
        reject("--region attribute wants coherent, bypass, readmostly "
               "or one of %s, got '%s'",
               coherence::protocolNameList(", ").c_str(), attr.c_str());
    }

    if (r.size == 0 || r.base % mem::pageBytes != 0 ||
        r.size % mem::pageBytes != 0 || r.base + r.size < r.base) {
        reject("--region '%s' must be page-aligned and end below 2^64 "
               "(base=0x%llx size=0x%llx, page=%u)",
               r.name.c_str(), (unsigned long long)r.base,
               (unsigned long long)r.size, unsigned(mem::pageBytes));
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
        if (item.empty())
            reject("%s has an empty element in '%s'", flag,
                   value.c_str());
        out.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

// --- the flag table ---------------------------------------------------
// One row per flag drives parsing, range checks and --help, so a flag
// added later gets all three by construction.

/** How a row reads its argument. */
enum class Kind
{
    Section,  ///< not a flag: a --help section title
    // The numeric kinds, Count to Fraction, carry a range.
    Count,    ///< unsigned integer in [lo, hi]
    Tick,     ///< 64-bit tick count in [lo, hi]
    Fraction, ///< real number in [lo, hi]
    Names,    ///< name(s) from one of the model's enum tables
    Text,     ///< text the setter checks (lists, specs, file names)
    Switch,   ///< no argument
    Action,   ///< no argument; prints something and exits 0
};
using K = Kind;

struct Flag;

/** One argument as its row's kind read it. */
struct Arg
{
    const Flag &row;
    const char *text;    ///< the raw argument; argv[0] for an Action
    std::uint64_t n = 0; ///< a Count/Tick value
    double x = 0;        ///< a Fraction value
};

struct Flag
{
    Kind kind;
    const char *name;    ///< "" for a Section
    const char *metavar; ///< "" for Section/Switch/Action rows
    const char *help;    ///< --help lines; a Section's title
    /** Store the checked argument into the options. */
    void (*set)(DriverOptions &, const Arg &) = nullptr;
    /** Inclusive range of a Count/Tick/Fraction value. */
    std::uint64_t lo = 0, hi = 0;
    /** A workload parameter: setting one the selected workload does
     * not consume warns (WorkloadRegistry::warnIgnoredFlags). */
    bool workloadParam = false;
    /** The accepted names (Names rows and --workload). */
    std::string (*choices)(std::string_view sep) = nullptr;

    bool numeric() const { return kind >= K::Count && kind <= K::Fraction; }
};

// Ranges come from the model, so a value the simulator cannot hold is
// a CLI error naming the flag, never a host crash or a hang.
constexpr std::uint64_t uintMax = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t tickMax = std::numeric_limits<Tick>::max();
/** The guest heap every workload allocation comes from (1 GiB). */
constexpr std::uint64_t heapBytes =
    vm::AddressLayout::heapLimit - vm::AddressLayout::heapBase;
constexpr std::uint64_t heapKb = heapBytes / 1024;
/** Cache lines in the heap: bounds per-line counts, and the body
 * count (every Barnes-Hut body owns a line-sized tree node). */
constexpr std::uint64_t heapLines = heapBytes / mem::blockBytes;
/** Largest power-of-two n whose n x n matrix of 32-bit elements fits
 * in the heap. */
constexpr std::uint64_t maxMatrixDim =
    std::uint64_t(1) << (floorLog2(heapBytes / 4) / 2);
/** The MIFD dispatches whole SIMD chunks; a core with fewer contexts
 * never fits one. */
constexpr std::uint64_t minContexts = dev::MifdConfig{}.simdWidth;
/** Every context may run a thread on its own guest stack; one core's
 * stacks must fit in a heap's worth of address space. */
constexpr std::uint64_t maxContexts =
    heapBytes / vm::AddressLayout::stackSize;

/** A numeric argument: in [lo, hi], and starting with a digit (or a
 * fraction's "."), because strtoull and strtod skip blanks and take
 * signs, and strtoull wraps "-1". */
void
parseNumber(const Flag &f, Arg &a)
{
    const bool frac = f.kind == K::Fraction;
    char *end = nullptr;
    errno = 0;
    bool in_range;
    if (frac) {
        a.x = std::strtod(a.text, &end);
        in_range = a.x >= double(f.lo) && a.x <= double(f.hi); // not nan
    } else {
        a.n = std::strtoull(a.text, &end, 10);
        in_range = a.n >= f.lo && a.n <= f.hi;
    }
    const char c = a.text[0];
    if (!(std::isdigit(static_cast<unsigned char>(c)) ||
          (frac && c == '.')) ||
        *end || errno == ERANGE || !in_range) {
        reject("%s needs %s in [%llu, %llu], got '%s'", f.name,
               frac ? "a number" : "an integer", (unsigned long long)f.lo,
               (unsigned long long)f.hi, a.text);
    }
}

/**
 * Parsing for the Names rows over one of the model's enum tables
 * (@p all, printed by @p name, parsed by @p fromName). A bad name
 * exits 2 listing the row's choices, the names the --list action
 * prints.
 */
template <const auto &all, auto name, auto fromName>
struct Names
{
    using E = std::decay_t<decltype(all[0])>;

    static E
    parse(const Flag &row, const std::string &value)
    {
        E e;
        if (!fromName(value, e)) {
            reject("%s wants one of %s, got '%s'", row.name,
                   row.choices(", ").c_str(), value.c_str());
        }
        return e;
    }

    /** One name. */
    static E one(const Arg &a) { return parse(a.row, a.text); }

    /** A comma list: one sweep axis. */
    static std::vector<E>
    list(const Arg &a)
    {
        std::vector<E> out;
        for (const std::string &v : splitList(a.row.name, a.text))
            out.push_back(parse(a.row, v));
        return out;
    }

    /** The --list action: every name, one per line. */
    static void
    print(DriverOptions &, const Arg &)
    {
        for (const E e : all)
            std::printf("%s\n", name(e));
    }
};

using Protocols = Names<coherence::allProtocols, coherence::protocolName,
                        coherence::protocolFromName>;
using SliceHashes = Names<coherence::allSliceHashes, coherence::sliceHashName,
                          coherence::sliceHashFromName>;
using Replacers = Names<cache::allReplacers, cache::replacerName,
                        cache::replacerFromName>;

void usage(const char *argv0, std::FILE *out);

using O = DriverOptions;
constexpr bool wl = true; ///< Flag::workloadParam

const Flag flagTable[] = {
    {K::Section, "", "", "workload selection:"},
    {K::Text, "--workload", "NAMES",
     "workload(s) to run; a comma list sweeps (default matmul)",
     [](O &o, const Arg &a) { o.workloads = splitList(a.row.name, a.text); },
     0, 0, false, [](std::string_view sep) {
         return workloads::WorkloadRegistry::instance().nameList(
             std::string(sep).c_str());
     }},
    {K::Action, "--list-workloads", "",
     "list every workload with its summary and flags",
     [](O &, const Arg &) { listWorkloads(); }},

    {K::Section, "", "",
     "parallel sweeps (multiple --workload/--protocol values form a "
     "grid;\nsee README \"Parallel sweeps\"):"},
    {K::Count, "--jobs", "N",
     "run sweep points on N worker threads\n(default: hardware "
     "concurrency; 1 = sequential\norder; results are deterministic "
     "either way)",
     [](O &o, const Arg &a) { o.jobs = a.n; }, 0, uintMax},

    {K::Section, "", "",
     "workload parameters (each consumed only by some workloads;\n"
     "setting one the selected workload ignores warns):"},
    {K::Count, "--n", "N",
     "matrix dimension for matmul/apsp/spmm (default 32)",
     [](O &o, const Arg &a) { o.params.n = a.n; }, 1, maxMatrixDim, wl},
    {K::Count, "--bodies", "N", "barneshut body count (default 256)",
     [](O &o, const Arg &a) { o.params.bh.bodies = a.n; }, 1, heapLines, wl},
    {K::Count, "--steps", "N", "barneshut time steps (default 2)",
     [](O &o, const Arg &a) { o.params.bh.steps = a.n; }, 0, uintMax, wl},
    {K::Fraction, "--density", "F", "spmm non-zero fraction (default 0.01)",
     [](O &o, const Arg &a) { o.params.spmm.density = a.x; }, 0, 1, wl},
    {K::Count, "--seed", "N",
     "barneshut/spmm input seed, synth:ptrchase ring seed",
     [](O &o, const Arg &a) {
         o.params.bh.seed = o.params.spmm.seed = o.params.synth.seed =
             o.params.matmulSeed = a.n;
     },
     0, uintMax, wl},
    {K::Count, "--iters", "N",
     "synth main-loop iterations per thread (default 64)",
     [](O &o, const Arg &a) { o.params.synth.iters = a.n; }, 1, uintMax, wl},
    {K::Count, "--synth-threads", "N",
     "synth MTTOP traffic threads (default 16)",
     [](O &o, const Arg &a) { o.params.synth.threads = a.n; }, 1, uintMax, wl},
    {K::Count, "--rpw", "N", "synth extra reads per write (default 4)",
     [](O &o, const Arg &a) { o.params.synth.readsPerWrite = a.n; }, 0,
     uintMax, wl},
    {K::Count, "--footprint-kb", "K",
     "synth stream/ptrchase total footprint (default 64)",
     [](O &o, const Arg &a) { o.params.synth.footprintBytes = a.n * 1024; },
     1, heapKb, wl},
    {K::Count, "--stride", "B",
     "synth stream/ptrchase access stride bytes (default 64)",
     [](O &o, const Arg &a) { o.params.synth.strideBytes = a.n; }, 1,
     heapBytes, wl},
    {K::Count, "--sharing", "N",
     "synth sharing degree: threads/line (false), lines\n(readmostly), "
     "conflicting lines/thread (conflict)",
     [](O &o, const Arg &a) { o.params.synth.sharingDegree = a.n; }, 1,
     heapLines, wl},

    {K::Section, "", "",
     "region-based coherence (see README \"Region-based coherence\"):"},
    {K::Text, "--region", "N:B:S:A",
     "declare virtual region named N at page-aligned base B,\nsize S "
     "(0x-hex or decimal, K/M suffixes) with attribute A:\ncoherent | "
     "bypass | readmostly | a protocol name\n(protocol name = coherent "
     "under that protocol; repeatable)",
     [](O &o, const Arg &a) { o.cfg.regions.push_back(parseRegion(a.text)); }},
    {K::Switch, "--region-hints", "",
     "apply the workload's default region annotations\n(synth:stream "
     "buffer -> bypass, matmul A/B -> readmostly)",
     [](O &o, const Arg &) { o.params.regionHints = true; }, 0, 0, wl},

    {K::Section, "", "", "machine configuration (defaults = paper Table 2):"},
    {K::Names, "--protocol", "P[,P..]",
     "chip-wide coherence protocol (default moesi;\na comma list sweeps "
     "the protocol axis)",
     [](O &o, const Arg &a) { o.protocols = Protocols::list(a); }, 0, 0,
     false, coherence::protocolNameList},
    {K::Names, "--cpu-protocol", "P",
     "CPU-cluster protocol (default: --protocol)",
     [](O &o, const Arg &a) { o.cfg.cpuProtocol = Protocols::one(a); }, 0,
     0, false, coherence::protocolNameList},
    {K::Names, "--mttop-protocol", "P",
     "MTTOP-cluster protocol (default: --protocol)",
     [](O &o, const Arg &a) { o.cfg.mttopProtocol = Protocols::one(a); }, 0,
     0, false, coherence::protocolNameList},
    {K::Action, "--list-protocols", "",
     "list every protocol name, one per line", Protocols::print},
    {K::Count, "--cpu-cores", "N", "in-order CPU cores (default 4)",
     [](O &o, const Arg &a) { o.cfg.numCpuCores = int(a.n); }, 1,
     coherence::maxL1s},
    {K::Count, "--mttop-cores", "N", "MTTOP cores (default 10)",
     [](O &o, const Arg &a) { o.cfg.numMttopCores = int(a.n); }, 1,
     coherence::maxL1s},
    {K::Count, "--mttop-contexts", "N",
     "thread contexts per MTTOP core (default 128)",
     [](O &o, const Arg &a) { o.cfg.mttop.numContexts = a.n; }, minContexts,
     maxContexts},
    // Every bank is a torus node and the torus keeps an all-pairs
    // route table, so banks share the L1 bound.
    {K::Count, "--l2-banks", "N", "L2/directory bank count (default 4)",
     [](O &o, const Arg &a) { o.cfg.numL2Banks = int(a.n); }, 1,
     coherence::maxL1s},
    {K::Count, "--cpu-l1-kb", "K", "CPU L1 size (default 64)",
     [](O &o, const Arg &a) { o.cfg.cpuL1.sizeBytes = a.n * 1024; }, 1,
     heapKb},
    {K::Count, "--mttop-l1-kb", "K", "MTTOP L1 size (default 16)",
     [](O &o, const Arg &a) { o.cfg.mttopL1.sizeBytes = a.n * 1024; }, 1,
     heapKb},
    {K::Count, "--l2-bank-kb", "K", "per-bank L2 size (default 1024)",
     [](O &o, const Arg &a) { o.cfg.l2.bankSizeBytes = a.n * 1024; }, 1,
     heapKb},
    {K::Names, "--slice-hash", "H[,H..]",
     "home-slice (bank-select) hash (default mod;\na comma list sweeps "
     "the hash axis;\nsee README \"Sharded home banks\")",
     [](O &o, const Arg &a) { o.sliceHashes = SliceHashes::list(a); }, 0,
     0, false, coherence::sliceHashNameList},
    {K::Action, "--list-slice-hashes", "",
     "list every slice-hash name, one per line", SliceHashes::print},
    {K::Names, "--l2-replace", "R[,R..]",
     "L2/directory replacement policy (default lru;\na comma list sweeps "
     "the replacer axis)",
     [](O &o, const Arg &a) { o.replacers = Replacers::list(a); }, 0, 0,
     false, cache::replacerNameList},
    {K::Action, "--list-replacers", "",
     "list every replacement-policy name, one per line", Replacers::print},
    {K::Count, "--dram-ns", "N", "flat DRAM latency (default 100)",
     [](O &o, const Arg &a) { o.cfg.dram.accessLatency = a.n * tickNs; }, 0,
     uintMax},
    {K::Switch, "--no-swmr", "", "disable the SWMR checker (faster host run)",
     [](O &o, const Arg &) { o.cfg.swmrChecks = false; }},

    {K::Section, "", "", "output:"},
    {K::Text, "--json", "FILE",
     "write summary + full stats registry as JSON\n(FILE '-' = stdout; "
     "summaries/--stats move to stderr)",
     [](O &o, const Arg &a) { o.jsonPath = a.text; }},
    {K::Switch, "--stats", "", "dump the stats registry as text on stdout",
     [](O &o, const Arg &) { o.textStats = true; }},

    {K::Section, "", "", "observability (see README \"Observability\"):"},
    {K::Text, "--trace-out", "FILE",
     "write a Chrome trace-event JSON (single point only;\nload in "
     "Perfetto / chrome://tracing)",
     [](O &o, const Arg &a) { o.traceOut = a.text; }},
    {K::Text, "--trace-categories", "LIST",
     "comma list of coh,noc,vm,kernel or all\n(default all when "
     "--trace-out is set)",
     [](O &o, const Arg &a) {
         unsigned mask = 0;
         if (!sim::Tracer::parseCategories(a.text, mask)) {
             reject("--trace-categories wants a comma list of coh, noc, "
                    "vm, kernel or all, got '%s'", a.text);
         }
         o.traceCategories = a.text;
     }},
    {K::Tick, "--sample-interval", "TICKS",
     "sample counter totals every TICKS into a \"series\"\nsection of the "
     "JSON (0 = off)",
     [](O &o, const Arg &a) { o.cfg.sampleInterval = a.n; }, 0, tickMax},

    {K::Section, "", "",
     "trace capture & replay (see README \"Trace capture & replay\"):"},
    {K::Text, "--capture-out", "FILE",
     "record the guest memory-op stream to a .ccsvmt\ntrace (single point "
     "only; format in docs/TRACE_FORMAT.md)",
     [](O &o, const Arg &a) { o.cfg.captureOut = a.text; }},
    {K::Text, "--trace", "FILE",
     "the .ccsvmt trace --workload replay re-issues",
     [](O &o, const Arg &a) { o.params.replayTrace = a.text; }, 0, 0, wl},
    {K::Switch, "--verbose", "", "keep simulator log output",
     [](O &o, const Arg &) { o.verbose = true; }},
    {K::Action, "--help", "", "this text",
     [](O &, const Arg &a) { usage(a.text, stdout); }},
};


/** --help, rendered from the table: each row's help, then the values
 * it accepts (a numeric range or the names). */
void
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(out, "usage: %s [options]\n", argv0);
    const std::string indent = "\n" + std::string(22, ' ');
    for (const Flag &f : flagTable) {
        if (f.kind == K::Section) {
            std::fprintf(out, "\n%s\n", f.help);
            continue;
        }
        const std::string metavar = f.metavar;
        const std::string value =
            metavar.substr(0, metavar.find_first_of("[,")) + " in ";
        std::string text = f.help;
        if (f.numeric()) {
            text += "\n" + value + "[" + std::to_string(f.lo) + ", " +
                    std::to_string(f.hi) + "]";
        } else if (f.choices) {
            text += "\n" + value + f.choices(" | ");
        }
        for (std::size_t at = 0;
             (at = text.find('\n', at)) != std::string::npos;
             at += indent.size())
            text.replace(at, 1, indent);
        const std::string head =
            f.name + (metavar.empty() ? "" : " " + metavar);
        std::fprintf(out, "  %-18s%s%s\n", head.c_str(),
                     head.size() > 18 ? indent.c_str() : "  ",
                     text.c_str());
    }
}

DriverOptions
parseArgs(int argc, char **argv)
{
    DriverOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg =
            std::strcmp(argv[i], "-h") ? argv[i] : "--help";
        const Flag *f = std::find_if(
            std::begin(flagTable), std::end(flagTable),
            [&](const Flag &r) {
                return r.kind != K::Section && r.name == arg;
            });
        if (f == std::end(flagTable)) {
            std::fprintf(stderr,
                         "ccsvm: unknown option '%s' (run %s --help "
                         "for the full flag list)\n",
                         arg.c_str(), argv[0]);
            usage(argv[0], stderr);
            std::exit(2);
        }
        Arg a{*f, argv[0]};
        if (f->kind == K::Action) {
            f->set(o, a);
            std::exit(0);
        }
        if (f->kind != K::Switch) {
            if (++i >= argc)
                reject("%s needs an argument", f->name);
            a.text = argv[i];
        }
        if (f->numeric())
            parseNumber(*f, a);
        f->set(o, a);
        if (f->workloadParam)
            o.setFlags.push_back(arg);
    }

    // Checks that span flags. Tracing is only armed when there is
    // somewhere to write it; --trace-categories alone is almost
    // certainly a mistake, so warn rather than pay the tracing cost
    // silently.
    if (!o.traceOut.empty()) {
        o.cfg.traceCategories =
            o.traceCategories.empty() ? "all" : o.traceCategories;
    } else if (!o.traceCategories.empty()) {
        std::fprintf(stderr,
                     "ccsvm: warning: --trace-categories without "
                     "--trace-out; tracing stays off\n");
    }
    // Overlapping regions, cache geometry the arrays cannot index and
    // more L1s than the sharer mask would trip the simulator's
    // asserts mid-construction.
    for (std::size_t i = 0; i < o.cfg.regions.size(); ++i) {
        for (std::size_t j = i + 1; j < o.cfg.regions.size(); ++j) {
            const vm::MemRegion &x = o.cfg.regions[i];
            const vm::MemRegion &y = o.cfg.regions[j];
            if (x.base < y.base + y.size && y.base < x.base + x.size) {
                reject("--region '%s' overlaps --region '%s'",
                       y.name.c_str(), x.name.c_str());
            }
        }
    }
    const auto check_sets = [](const char *flag, Addr size_bytes,
                               unsigned assoc) {
        const Addr sets = size_bytes / mem::blockBytes / assoc;
        if (!isPowerOf2(sets)) {
            reject("%s gives %llu sets (%llu bytes / %u-byte lines / %u "
                   "ways); the set count must be a power of two >= 1",
                   flag, (unsigned long long)sets,
                   (unsigned long long)size_bytes,
                   unsigned(mem::blockBytes), assoc);
        }
    };
    check_sets("--l2-bank-kb", o.cfg.l2.bankSizeBytes, o.cfg.l2.assoc);
    check_sets("--cpu-l1-kb", o.cfg.cpuL1.sizeBytes, o.cfg.cpuL1.assoc);
    check_sets("--mttop-l1-kb", o.cfg.mttopL1.sizeBytes,
               o.cfg.mttopL1.assoc);
    if (o.cfg.numCpuCores + o.cfg.numMttopCores > coherence::maxL1s) {
        reject("--cpu-cores %d + --mttop-cores %d gives %d L1 caches; "
               "the directory tracks at most %d",
               o.cfg.numCpuCores, o.cfg.numMttopCores,
               o.cfg.numCpuCores + o.cfg.numMttopCores, coherence::maxL1s);
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
            reject("unknown workload '%s' for --workload (want one of: "
                   "%s)", name.c_str(), reg.nameList().c_str());
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
try {
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
} catch (const std::exception &e) {
    // A config the machine rejects or a guest heap the run exhausts:
    // name the point, so a sweep's rethrow says which one failed.
    throw std::runtime_error("workload " + spec.workload + ": " +
                             e.what());
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
    try {
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
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ccsvm: %s\n", e.what());
        return 2;
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
