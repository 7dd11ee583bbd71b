/**
 * @file
 * Figure 7: "Barnes-Hut performance. CCSVM/xthreads enables pointer
 * chasing code."
 *
 * Runtime of the pointer-based, recursive Barnes-Hut n-body benchmark:
 * CCSVM/xthreads vs a single AMD CPU core vs pthreads with 4 threads
 * on the APU's 4 CPU cores. No OpenCL series exists (the paper:
 * "We could not find or develop an OpenCL version").
 */

#include "bench_common.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

namespace
{

workloads::BarnesHutParams
params(unsigned bodies)
{
    workloads::BarnesHutParams p;
    p.bodies = bodies;
    p.steps = 2;
    return p;
}

} // namespace

int
main()
{
    std::vector<unsigned> sizes{32, 64, 128};
    if (largeSweeps()) {
        sizes.push_back(256);
        sizes.push_back(512);
    }
    const auto out = runSweep(sizeSweepJobs(
        {[](unsigned b) { return workloads::barnesHutCpuSingle(params(b)); },
         [](unsigned b) { return workloads::barnesHutXthreads(params(b)); },
         [](unsigned b) {
             return workloads::barnesHutPthreads(params(b));
         }},
        sizes));

    const std::size_t ns = sizes.size();
    FigureTable table;
    for (std::size_t i = 0; i < ns; ++i) {
        table.record(sizes[i], "cpu_rel", 1.0);
        table.record(sizes[i], "cpu_ms", toMs(out[i].run.ticks));
    }
    for (std::size_t i = 0; i < ns; ++i) {
        const double cpu_ms = toMs(out[i].run.ticks);
        table.record(sizes[i], "ccsvm_rel",
                     toMs(out[ns + i].run.ticks) / cpu_ms);
        table.record(sizes[i], "pthreads4_rel",
                     toMs(out[2 * ns + i].run.ticks) / cpu_ms);
    }
    return finish(table, out,
                  "Figure 7: Barnes-Hut runtime relative to the AMD CPU "
                  "core (lower = faster)",
                  "bodies");
}
