/**
 * @file
 * Figure 8: "Performance of Sparse Matrix Multiplication."
 *
 * Speedup of CCSVM/xthreads over the AMD CPU core for linked-list
 * sparse matmul with mttop_malloc. Left panel: fixed 1% density,
 * varying matrix size. Right panel: fixed size, varying density —
 * "speedups until the matrix density increases to the point at which
 * the mttop_malloc() calls constrain the performance". No OpenCL
 * series exists.
 */

#include "bench_common.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

namespace
{

workloads::SpmmParams
sizeParams(unsigned n)
{
    workloads::SpmmParams p;
    p.n = n;
    p.density = 0.01;
    return p;
}

workloads::SpmmParams
densityParams(unsigned density_permille)
{
    workloads::SpmmParams p;
    p.n = largeSweeps() ? 128 : 96;
    p.density = density_permille / 1000.0;
    return p;
}

/** The CPU-core job and the CCSVM job for one point, in that order. */
void
addPair(std::vector<Job> &jobs, const workloads::SpmmParams &p)
{
    jobs.push_back(workloadJob([p] { return workloads::spmmCpuSingle(p); }));
    jobs.push_back(workloadJob([p] {
        system::CcsvmMachine m;
        return workloads::spmmXthreads(m, p);
    }));
}

} // namespace

int
main()
{
    // Left panel: size sweep at 1% density.
    std::vector<unsigned> sizes{48, 64, 96};
    if (largeSweeps()) {
        sizes.push_back(128);
        sizes.push_back(192);
    }
    // Right panel: density sweep at fixed size (permille units; rows
    // appear in the table as 1000+permille).
    const std::vector<unsigned> densities{5, 10, 20, 40, 80};

    std::vector<Job> jobs;
    for (const unsigned n : sizes)
        addPair(jobs, sizeParams(n));
    for (const unsigned d : densities)
        addPair(jobs, densityParams(d));
    const auto out = runSweep(jobs);

    // Speedup = CPU time over CCSVM time of the same point.
    auto speedup = [&out](std::size_t point) {
        return toMs(out[2 * point].run.ticks) /
               toMs(out[2 * point + 1].run.ticks);
    };
    FigureTable table;
    for (std::size_t i = 0; i < sizes.size(); ++i)
        table.record(sizes[i], "speedup_vs_cpu(size,1%)", speedup(i));
    for (std::size_t i = 0; i < densities.size(); ++i)
        table.record(1000 + densities[i], "speedup_vs_cpu(density@fixedN)",
                     speedup(sizes.size() + i));
    return finish(table, out,
                  "Figure 8: sparse matmul speedup of CCSVM/xthreads over "
                  "the AMD CPU core (rows <1000: size sweep at 1% density; "
                  "rows 1000+d: density sweep, d = permille)",
                  "N|1000+d");
}
