/**
 * @file
 * Figure 5: "Performance on Matrix Multiply. Results show how CCSVM
 * reduces overhead to launch MTTOP tasks."
 *
 * The paper plots log-scale runtime relative to the AMD CPU core as a
 * function of matrix size, with four series: APU full runtime, APU
 * without compilation/initialization, CCSVM/xthreads, and the CPU
 * core itself (=1). Sizes are scaled down from the paper's 16..1024
 * for simulator speed: the launch-overhead amortization trend —
 * CCSVM dominating at small sizes, the APU closing the gap as size
 * grows — is visible within the sweep.
 */

#include "bench_common.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

int
main()
{
    std::vector<unsigned> sizes{8, 16, 32, 64};
    if (largeSweeps()) {
        sizes.push_back(96);
        sizes.push_back(128);
    }
    const auto out = runSweep(sizeSweepJobs(
        {[](unsigned n) { return workloads::matmulCpuSingle(n); },
         [](unsigned n) { return workloads::matmulXthreads(n); },
         [](unsigned n) { return workloads::matmulOpenCl(n); }},
        sizes));

    const std::size_t ns = sizes.size();
    FigureTable table;
    for (std::size_t i = 0; i < ns; ++i) {
        table.record(sizes[i], "cpu_rel", 1.0);
        table.record(sizes[i], "cpu_ms", toMs(out[i].run.ticks));
    }
    for (std::size_t i = 0; i < ns; ++i) {
        const double cpu_ms = toMs(out[i].run.ticks);
        const workloads::RunResult &apu = out[2 * ns + i].run;
        table.record(sizes[i], "ccsvm_rel",
                     toMs(out[ns + i].run.ticks) / cpu_ms);
        table.record(sizes[i], "apu_full_rel", toMs(apu.ticks) / cpu_ms);
        table.record(sizes[i], "apu_noinit_rel",
                     toMs(apu.ticksNoInit) / cpu_ms);
    }
    return finish(table, out,
                  "Figure 5: matmul runtime relative to the AMD CPU core "
                  "(lower = faster; paper is log-scale)",
                  "N");
}
