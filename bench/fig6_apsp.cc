/**
 * @file
 * Figure 6: "Performance on All-Pairs Shortest Path. Results show how
 * CCSVM improves performance by avoiding multiple MTTOP task launches
 * for each parallel phase."
 *
 * Floyd-Warshall with a barrier per outer iteration. The paper's two
 * findings to reproduce: the APU never beats the plain CPU core (its
 * per-iteration kernel relaunch is too slow), and CCSVM outperforms
 * the APU by ~2 orders of magnitude even after discounting OpenCL
 * init/compilation.
 */

#include "bench_common.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

int
main()
{
    std::vector<unsigned> sizes{8, 16, 32, 48};
    if (largeSweeps()) {
        sizes.push_back(64);
        sizes.push_back(96);
    }
    const auto out = runSweep(sizeSweepJobs(
        {[](unsigned n) { return workloads::apspCpuSingle(n); },
         [](unsigned n) { return workloads::apspXthreads(n); },
         [](unsigned n) { return workloads::apspOpenCl(n); }},
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
                  "Figure 6: all-pairs shortest path runtime relative to "
                  "the AMD CPU core (lower = faster; paper is log-scale)",
                  "N");
}
