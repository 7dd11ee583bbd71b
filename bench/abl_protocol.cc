/**
 * @file
 * Ablation A4: coherence-protocol choice (MSI / MESI / MOESI).
 *
 * The paper fixes "a standard, unoptimized MOESI directory protocol"
 * (Sec. 3.2.2); this ablation treats the protocol as the design axis
 * it is for a heterogeneous chip. Each protocol runs the dense-matmul
 * and sparse-matmul workloads on an otherwise identical machine, and
 * the table reports runtime plus the protocol-sensitive traffic:
 * writebacks (off-chip plus the dirty-read writebacks that protocols
 * without an O state pay) and invalidations received at the L1s.
 * MOESI's O state should show the fewest writebacks; MSI, lacking E,
 * additionally pays an explicit upgrade for private read-then-write.
 */

#include "bench_common.hh"

#include "coherence/protocol.hh"
#include "system/ccsvm_machine.hh"
#include "system/coherence_stats.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

namespace
{

using coherence::Protocol;
using system::dirtyWritebacks;
using system::l1Invalidations;

constexpr Protocol kProtocols[] = {Protocol::MSI, Protocol::MESI,
                                   Protocol::MOESI};

void
recordRow(FigureTable &table, const SweepOutcome &out,
          const char *pname, const char *workload, std::uint64_t x)
{
    const std::string p = pname;
    table.record(x, p + "_" + workload + "_ms", toMs(out.run.ticks));
    table.record(x, p + "_" + workload + "_wb", out.values.at("wb"));
    table.record(x, p + "_" + workload + "_invs",
                 out.values.at("invs"));
}

/** Dense (matmul) or sparse (spmm) matmul of size @p n under
 * @p proto, with the protocol-sensitive stats extracted before the
 * machine dies. */
Job
protocolJob(Protocol proto, unsigned n, bool spmm)
{
    return [proto, n, spmm] {
        system::CcsvmConfig cfg;
        cfg.protocol = proto;
        system::CcsvmMachine m(cfg);
        SweepOutcome o;
        if (spmm) {
            workloads::SpmmParams p;
            p.n = n;
            o.run = workloads::spmmXthreads(m, p);
        } else {
            o.run = workloads::matmulXthreads(m, n);
        }
        o.values["wb"] = static_cast<double>(dirtyWritebacks(m));
        o.values["invs"] = static_cast<double>(l1Invalidations(m));
        return o;
    };
}

} // namespace

int
main()
{
    std::vector<unsigned> matmul_sizes = {16, 32};
    std::vector<unsigned> spmm_sizes = {32};
    if (largeSweeps()) {
        matmul_sizes.push_back(64);
        spmm_sizes.push_back(64);
    }
    std::vector<Job> jobs;
    for (const Protocol proto : kProtocols) {
        for (const unsigned n : matmul_sizes)
            jobs.push_back(protocolJob(proto, n, false));
        for (const unsigned n : spmm_sizes)
            jobs.push_back(protocolJob(proto, n, true));
    }
    const auto out = runSweep(jobs);

    FigureTable table;
    std::size_t job = 0;
    for (const Protocol proto : kProtocols) {
        const char *pname = coherence::protocolName(proto);
        for (const unsigned n : matmul_sizes)
            recordRow(table, out[job++], pname, "matmul", n);
        for (const unsigned n : spmm_sizes)
            recordRow(table, out[job++], pname, "spmm", n);
    }
    return finish(table, out,
                  "Ablation A4: coherence protocol sweep (runtime ms, "
                  "writebacks incl. dirty-read WBs, L1 invalidations; per "
                  "protocol and workload)",
                  "n");
}

