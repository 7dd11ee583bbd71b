/**
 * @file
 * Ablation A6: per-cluster heterogeneous coherence protocols.
 *
 * The paper's chip runs one protocol everywhere; this sweep crosses
 * every CPU-cluster protocol with every MTTOP-cluster protocol (9
 * pairs) over two paper workloads (dense and sparse matmul) and the
 * two synthetic patterns that discriminate the pairs hardest:
 * migratory (read-dirty-then-write hand-offs, the O state's reason to
 * exist) and false sharing (invalidation storms). Each row reports
 * runtime plus the pair-sensitive traffic: total writebacks (off-chip
 * plus dirty-read writebacks), the per-cluster split of the
 * dirty-read writebacks, and L1 invalidations. Expected shape: the
 * homogeneous diagonal reproduces abl_protocol; CPU-MOESI/MTTOP-MSI
 * moves the migratory writeback burden entirely onto the MTTOP
 * cluster; pairs whose MTTOP side has O but whose CPU side does not
 * charge the CPU cluster for reading MTTOP-dirty data.
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
using coherence::protocolName;
namespace synth = workloads::synth;

/** Pair index p = cpu * 3 + mttop over coherence::allProtocols. */
Protocol
cpuOf(std::int64_t pair)
{
    return coherence::allProtocols[static_cast<std::size_t>(pair / 3)];
}

Protocol
mttopOf(std::int64_t pair)
{
    return coherence::allProtocols[static_cast<std::size_t>(pair % 3)];
}

std::string
pairName(std::int64_t pair)
{
    return std::string(protocolName(cpuOf(pair))) + "_" +
           protocolName(mttopOf(pair));
}

system::CcsvmConfig
pairConfig(std::int64_t pair)
{
    system::CcsvmConfig cfg;
    cfg.cpuProtocol = cpuOf(pair);
    cfg.mttopProtocol = mttopOf(pair);
    return cfg;
}

/** Fold the pair-sensitive traffic stats into the outcome before the
 * machine is destroyed. */
void
extractStats(system::CcsvmMachine &m, SweepOutcome &o)
{
    o.values["wb"] =
        static_cast<double>(system::dirtyWritebacks(m));
    o.values["swb_cpu"] = static_cast<double>(
        system::clusterSharingWritebacks(m, "cpu"));
    o.values["swb_mttop"] = static_cast<double>(
        system::clusterSharingWritebacks(m, "mttop"));
    o.values["invs"] =
        static_cast<double>(system::l1Invalidations(m));
}

void
recordRow(FigureTable &table, const SweepOutcome &out,
          const char *workload, std::int64_t pair)
{
    const std::string series = pairName(pair) + "_" + workload;
    const auto x = static_cast<std::uint64_t>(pair);
    table.record(x, series + "_ms", toMs(out.run.ticks));
    table.record(x, series + "_wb", out.values.at("wb"));
    table.record(x, series + "_swb_cpu", out.values.at("swb_cpu"));
    table.record(x, series + "_swb_mttop",
                 out.values.at("swb_mttop"));
    table.record(x, series + "_invs", out.values.at("invs"));
}

/** A job running @p workload on a machine configured for @p pair. */
template <typename Fn>
Job
pairJob(std::int64_t pair, Fn workload)
{
    return [pair, workload] {
        system::CcsvmMachine m(pairConfig(pair));
        SweepOutcome o;
        o.run = workload(m);
        extractStats(m, o);
        return o;
    };
}

} // namespace

int
main()
{
    const unsigned matmul_n = largeSweeps() ? 32 : 16;
    constexpr unsigned kSpmmN = 32;
    constexpr synth::Pattern kPatterns[] = {synth::Pattern::Migratory,
                                            synth::Pattern::FalseShare};
    // Per pair: matmul, spmm, then each synth pattern.
    std::vector<Job> jobs;
    for (std::int64_t pair = 0; pair < 9; ++pair) {
        jobs.push_back(pairJob(pair, [matmul_n](system::CcsvmMachine &m) {
            return workloads::matmulXthreads(m, matmul_n);
        }));
        jobs.push_back(pairJob(pair, [](system::CcsvmMachine &m) {
            workloads::SpmmParams p;
            p.n = kSpmmN;
            return workloads::spmmXthreads(m, p);
        }));
        for (const synth::Pattern pat : kPatterns) {
            jobs.push_back(pairJob(pair, [pat](system::CcsvmMachine &m) {
                synth::SynthParams p;
                p.pattern = pat;
                p.iters = 24;
                return synth::synthXthreads(m, p);
            }));
        }
    }
    const auto out = runSweep(jobs);

    FigureTable table;
    std::size_t job = 0;
    for (std::int64_t pair = 0; pair < 9; ++pair) {
        recordRow(table, out[job++], "matmul", pair);
        recordRow(table, out[job++], "spmm", pair);
        for (const synth::Pattern pat : kPatterns)
            recordRow(table, out[job++], synth::patternName(pat), pair);
    }
    return finish(table, out,
                  "Ablation A6: per-cluster heterogeneous protocol pairs "
                  "(cpu_mttop; runtime ms, writebacks, per-cluster "
                  "dirty-read writeback split, L1 invalidations; x = pair "
                  "index)",
                  "pair");
}
