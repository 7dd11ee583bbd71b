/**
 * @file
 * Figure 9: "DRAM Accesses for Matrix Multiply. CCSVM/xthreads avoids
 * many off-chip accesses."
 *
 * Off-chip DRAM transactions for the dense matmul of Figure 5, per
 * system (log scale in the paper). The APU communicates CPU<->GPU
 * through DRAM (uncached pinned writes + GPU fetches), the CPU core's
 * strided B-column accesses cannot coalesce, while CCSVM keeps
 * communication on-chip in the shared L2.
 */

#include "bench_common.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

int
main()
{
    std::vector<unsigned> sizes{8, 16, 32, 64};
    if (largeSweeps())
        sizes.push_back(128);
    const auto out = runSweep(sizeSweepJobs(
        {[](unsigned n) { return workloads::matmulCpuSingle(n); },
         [](unsigned n) { return workloads::matmulXthreads(n); },
         [](unsigned n) { return workloads::matmulOpenCl(n); }},
        sizes));

    const char *series[] = {"cpu_dram", "ccsvm_dram", "apu_dram"};
    FigureTable table;
    for (std::size_t i = 0; i < sizes.size(); ++i)
        for (std::size_t sys = 0; sys < 3; ++sys)
            table.record(sizes[i], series[sys],
                         static_cast<double>(
                             out[sys * sizes.size() + i].run.dramAccesses));
    return finish(table, out,
                  "Figure 9: off-chip DRAM transactions for matmul "
                  "(paper is log-scale)",
                  "N");
}
