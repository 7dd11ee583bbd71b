/**
 * @file
 * Ablation A5: synthetic coherence patterns x protocol x MTTOP core
 * count.
 *
 * The paper's applications exercise the protocol incidentally; the
 * synth patterns (src/workloads/synth) stress one sharing idiom each,
 * so this sweep is the table that actually separates MSI, MESI and
 * MOESI. The thread count scales with the core count (one SIMD chunk
 * of 8 per core) so every configuration spreads its sharers across
 * all MTTOP L1s; each row reports runtime, writebacks (off-chip plus
 * the dirty-read writebacks protocols without an O state pay) and L1
 * invalidations. Expected shape: migratory writebacks MSI > MESI >>
 * MOESI (~0); false-sharing invalidations >> padded; stream/ptrchase
 * indifferent to the protocol.
 */

#include "bench_common.hh"

#include "coherence/protocol.hh"
#include "system/ccsvm_machine.hh"
#include "system/coherence_stats.hh"
#include "workloads/synth/synth.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

namespace
{

using coherence::Protocol;
namespace synth = workloads::synth;

constexpr Protocol kProtocols[] = {Protocol::MSI, Protocol::MESI,
                                   Protocol::MOESI};
/** Threads dispatched per MTTOP core (the MIFD's SIMD chunk). */
constexpr unsigned kThreadsPerCore = 8;

/** One synth run on @p cores MTTOP cores under @p proto, with the
 * protocol-sensitive stats extracted before the machine dies. */
SweepOutcome
synthPoint(Protocol proto, synth::Pattern pat, unsigned cores)
{
    system::CcsvmConfig cfg;
    cfg.protocol = proto;
    cfg.numMttopCores = static_cast<int>(cores);
    system::CcsvmMachine m(cfg);
    synth::SynthParams p;
    p.pattern = pat;
    p.threads = kThreadsPerCore * cores;
    p.iters = 48;
    SweepOutcome o;
    o.run = synth::synthXthreads(m, p);
    o.values["wb"] = static_cast<double>(system::dirtyWritebacks(m));
    o.values["invs"] = static_cast<double>(system::l1Invalidations(m));
    return o;
}

} // namespace

int
main()
{
    std::vector<unsigned> core_counts = {2, 4};
    if (largeSweeps())
        core_counts.push_back(10);
    std::vector<Job> jobs;
    for (const Protocol proto : kProtocols)
        for (const synth::Pattern pat : synth::allPatterns)
            for (const unsigned cores : core_counts)
                jobs.push_back([proto, pat, cores] {
                    return synthPoint(proto, pat, cores);
                });
    const auto out = runSweep(jobs);

    FigureTable table;
    std::size_t job = 0;
    for (const Protocol proto : kProtocols) {
        for (const synth::Pattern pat : synth::allPatterns) {
            const std::string series =
                std::string(coherence::protocolName(proto)) + "_" +
                synth::patternName(pat);
            for (const unsigned cores : core_counts) {
                const SweepOutcome &o = out[job++];
                table.record(cores, series + "_ms", toMs(o.run.ticks));
                table.record(cores, series + "_wb", o.values.at("wb"));
                table.record(cores, series + "_invs", o.values.at("invs"));
            }
        }
    }
    return finish(table, out,
                  "Ablation A5: synthetic coherence patterns (runtime ms, "
                  "writebacks incl. dirty-read WBs, L1 invalidations; per "
                  "pattern, protocol and MTTOP core count)",
                  "mttop_cores");
}
