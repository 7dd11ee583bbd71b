/**
 * @file
 * Ablation A3: TLB reach and shootdown (paper Sec. 3.2.1).
 *
 * Left: sweep the per-core TLB size under the dense-matmul footprint
 * and report runtime plus page walks — the cost of the paper's choice
 * to give every MTTOP core its own TLB + hardware walker. Right:
 * measure the conservative TLB-shootdown policy (CPU invalidates
 * precisely; all MTTOP TLBs flush wholesale) by unmapping pages while
 * MTTOP threads are actively touching a working set.
 */

#include "bench_common.hh"

#include "runtime/xthreads.hh"
#include "system/ccsvm_machine.hh"

using namespace ccsvm;
using namespace ccsvm::bench;

namespace
{

using core::ThreadContext;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

/** The shootdown-interference experiment: MTTOP threads loop over a
 * working set while the CPU unmaps/remaps a scratch page; returns the
 * run's ticks. */
Tick
shootdownExperiment(unsigned remaps)
{
    system::CcsvmMachine m;
    auto &proc = m.createProcess();
    constexpr unsigned threads = 32;
    constexpr unsigned pages = 8;
    const VAddr data = proc.gmalloc(pages * mem::pageBytes);
    const VAddr done = proc.gmalloc(threads * 4);
    const VAddr stop = proc.gmalloc(4);
    const VAddr args = proc.gmalloc(32);
    for (unsigned t = 0; t < threads; ++t)
        proc.poke<std::uint32_t>(done + t * 4, 0);
    proc.poke<std::uint32_t>(stop, 0);
    proc.poke<std::uint64_t>(args, data);
    proc.poke<std::uint64_t>(args + 8, done);
    proc.poke<std::uint64_t>(args + 16, stop);
    // Pre-touch so every page is mapped before the shootdowns start.
    for (unsigned pg = 0; pg < pages; ++pg)
        proc.poke<std::uint64_t>(data + pg * mem::pageBytes, 1);

    Tick t = 0;
    {
        t = m.runMain(
            proc,
            [remaps](ThreadContext &ctx, VAddr a) -> GuestTask {
                const VAddr data_va =
                    co_await ctx.load<std::uint64_t>(a);
                (void)data_va; // workers read it from args themselves
                const VAddr done_va =
                    co_await ctx.load<std::uint64_t>(a + 8);
                const VAddr stop_va =
                    co_await ctx.load<std::uint64_t>(a + 16);
                // MTTOP threads loop over the working set until told
                // to stop; every shootdown flushes their TLBs.
                co_await xt::createMthread(
                    ctx,
                    [](ThreadContext &mt, VAddr aa) -> GuestTask {
                        const VAddr d =
                            co_await mt.load<std::uint64_t>(aa);
                        const VAddr dn =
                            co_await mt.load<std::uint64_t>(aa + 8);
                        const VAddr sp =
                            co_await mt.load<std::uint64_t>(aa + 16);
                        while (true) {
                            for (unsigned pg = 0; pg < pages; ++pg) {
                                (void)co_await
                                    mt.load<std::uint64_t>(
                                        d + pg * mem::pageBytes +
                                        (mt.tid() % 64) * 8);
                            }
                            const auto s =
                                co_await mt.load<std::uint32_t>(sp);
                            if (s != 0)
                                break;
                        }
                        co_await xt::mttopSignal(mt, dn);
                    },
                    a, 0, threads - 1);

                // The CPU unmaps and remaps a scratch page repeatedly;
                // each unmap runs the full shootdown.
                runtime::Process &proc2 = *ctx.process();
                const VAddr scratch = proc2.gmalloc(mem::pageBytes);
                for (unsigned i = 0; i < remaps; ++i) {
                    co_await ctx.store<std::uint64_t>(scratch, i);
                    bool done_flag = false;
                    proc2.kernel().unmapAndShootdown(
                        proc2.addressSpace(), scratch,
                        [&done_flag] { done_flag = true; });
                    co_await ctx.hostWait(
                        [&done_flag] { return done_flag; });
                }
                co_await ctx.store<std::uint32_t>(stop_va, 1);
                co_await xt::cpuWaitAll(ctx, done_va, 0,
                                        threads - 1);
            },
            args);
    }
    return t;
}

} // namespace

int
main()
{
    const unsigned tlb_entries[] = {4, 8, 16, 64};
    const unsigned remap_counts[] = {0, 4, 16};
    std::vector<Job> jobs;
    for (const unsigned entries : tlb_entries) {
        jobs.push_back(workloadJob([entries] {
            system::CcsvmConfig cfg;
            cfg.cpu.tlbEntries = entries;
            cfg.mttop.tlbEntries = entries;
            return workloads::matmulXthreads(64, cfg);
        }));
    }
    for (const unsigned remaps : remap_counts)
        jobs.push_back(
            ticksJob([remaps] { return shootdownExperiment(remaps); }));
    const auto out = runSweep(jobs);

    FigureTable table;
    std::size_t job = 0;
    for (const unsigned entries : tlb_entries)
        table.record(entries, "matmul64_ms", toMs(out[job++].run.ticks));
    // Rows keyed 1000+remaps to keep them apart from the TLB sweep.
    for (const unsigned remaps : remap_counts)
        table.record(1000 + remaps, "shootdown_run_us",
                     static_cast<double>(out[job++].run.ticks) / tickUs);
    return finish(table, out,
                  "Ablation A3: TLB size sweep (matmul N=64 runtime, ms) "
                  "and TLB-shootdown interference (runtime, us, rows keyed "
                  "1000+remaps)",
                  "entries|1000+r");
}
