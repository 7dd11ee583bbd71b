/**
 * @file
 * Ablation A7: region-based coherence (attr x pattern x protocol).
 *
 * The paper's Section 5 discussion asks when hardware coherence pays
 * off for MTTOP data; the answer depends on the access pattern, which
 * varies per data region. This sweep crosses the three region
 * attributes (coherent — the PR-4 baseline, bypass — uncacheable at
 * the home, override:mesi — the read-mostly protocol pin) with the
 * two synth patterns the attributes discriminate hardest (stream:
 * private capacity-bound sweeps where coherence is pure overhead;
 * false sharing: invalidation storms that bypass eliminates) under
 * every chip protocol. Each row reports runtime, off-chip DRAM
 * transactions, L2 fills, directory-initiated invalidations (Inv
 * messages + inclusive-eviction recalls) and bypass ops. Expected
 * shape: coherent rows reproduce abl_synth; bypass rows drop fills
 * and recalls to (near) zero at the cost of per-op DRAM latency;
 * override rows sit between the cluster protocols.
 */

#include "bench_common.hh"

#include "coherence/protocol.hh"
#include "system/ccsvm_machine.hh"
#include "workloads/synth/synth.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

namespace
{

using coherence::Protocol;
using coherence::protocolName;
using coherence::RegionAttr;
namespace synth = workloads::synth;

struct AttrPoint
{
    const char *name;
    RegionAttr attr;
    Protocol prot;
};

constexpr AttrPoint kAttrs[] = {
    {"coherent", RegionAttr::Coherent, {}},
    {"bypass", RegionAttr::Bypass, {}},
    {"override_mesi", RegionAttr::ProtocolOverride, Protocol::MESI},
};

constexpr synth::Pattern kPatterns[] = {synth::Pattern::Stream,
                                        synth::Pattern::FalseShare};

std::uint64_t
sumDirCounter(system::CcsvmMachine &m, const std::string &suffix)
{
    std::uint64_t total = 0;
    for (int b = 0;; ++b) {
        const std::string name = "dir" + std::to_string(b) + suffix;
        if (!m.stats().hasCounter(name))
            break;
        total += m.stats().get(name);
    }
    return total;
}

/** One synth run with its buffer under @p attr, directory counters
 * extracted before the machine dies. */
SweepOutcome
regionPoint(const AttrPoint &attr, synth::Pattern pat, Protocol proto)
{
    system::CcsvmConfig cfg;
    cfg.protocol = proto;
    system::CcsvmMachine m(cfg);
    synth::SynthParams p;
    p.pattern = pat;
    p.iters = largeSweeps() ? 24 : 8;
    p.regionAttr = attr.attr;
    p.regionProt = attr.prot;
    SweepOutcome o;
    o.run = synth::synthXthreads(m, p);
    o.values["fills"] =
        static_cast<double>(sumDirCounter(m, ".fetches"));
    o.values["dirinvs"] =
        static_cast<double>(sumDirCounter(m, ".invsSent.cpu") +
                            sumDirCounter(m, ".invsSent.mttop") +
                            sumDirCounter(m, ".recalls"));
    o.values["bypass"] =
        static_cast<double>(sumDirCounter(m, ".bypassReads") +
                            sumDirCounter(m, ".bypassWrites"));
    return o;
}

} // namespace

int
main()
{
    std::vector<Job> jobs;
    for (const AttrPoint &attr : kAttrs)
        for (const synth::Pattern pat : kPatterns)
            for (const Protocol proto : coherence::allProtocols)
                jobs.push_back([attr, pat, proto] {
                    return regionPoint(attr, pat, proto);
                });
    const auto out = runSweep(jobs);

    FigureTable table;
    std::size_t job = 0;
    for (std::uint64_t x = 0; x < std::size(kAttrs); ++x) {
        for (const synth::Pattern pat : kPatterns) {
            for (const Protocol proto : coherence::allProtocols) {
                const SweepOutcome &o = out[job++];
                const std::string series = std::string(kAttrs[x].name) +
                                           "_" + synth::patternName(pat) +
                                           "_" + protocolName(proto);
                table.record(x, series + "_ms", toMs(o.run.ticks));
                table.record(x, series + "_dram",
                             static_cast<double>(o.run.dramAccesses));
                table.record(x, series + "_fills", o.values.at("fills"));
                table.record(x, series + "_dirinvs",
                             o.values.at("dirinvs"));
                table.record(x, series + "_bypass", o.values.at("bypass"));
            }
        }
    }
    return finish(table, out,
                  "Ablation A7: region-based coherence — region attribute "
                  "x synth pattern x protocol (runtime ms, DRAM "
                  "transactions, L2 fills, directory-initiated "
                  "invalidations incl. recalls, bypass ops; x = attribute "
                  "index: 0 coherent, 1 bypass, 2 override:mesi)",
                  "attr");
}
