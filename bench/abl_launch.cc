/**
 * @file
 * Ablation A1: task-launch latency — the MIFD write-syscall path vs
 * the OpenCL driver path (paper Secs. 3.1, 5.2).
 *
 * Measures the end-to-end time to launch a no-op task of T threads
 * and observe its completion, on both machines, sweeping T. This
 * isolates the mechanism behind Figure 5's small-size gap: a ~2 us
 * syscall+MIFD dispatch versus ~60 us of driver work per enqueue.
 * Also sweeps the MIFD's own dispatch cost to show the launch path
 * is dominated by the syscall, not the device.
 */

#include "bench_common.hh"

#include "apu/ocl.hh"
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

Tick
ccsvmLaunch(unsigned threads, dev::MifdConfig mifd_cfg)
{
    system::CcsvmConfig cfg;
    cfg.mifd = mifd_cfg;
    system::CcsvmMachine m(cfg);
    auto &proc = m.createProcess();
    const VAddr done = proc.gmalloc(threads * 4);
    for (unsigned t = 0; t < threads; ++t)
        proc.poke<std::uint32_t>(done + t * 4, 0);

    return m.runMain(
        proc,
        [threads](ThreadContext &ctx, VAddr d) -> GuestTask {
            co_await xt::createMthread(
                ctx,
                [](ThreadContext &mt, VAddr dd) -> GuestTask {
                    co_await xt::mttopSignal(mt, dd);
                },
                d, 0, threads - 1);
            co_await xt::cpuWaitAll(ctx, d, 0, threads - 1);
        },
        done);
}

Tick
apuLaunch(unsigned threads)
{
    apu::ApuMachine m;
    auto &proc = m.createProcess();
    apu::ocl::Context cl(m, proc);
    apu::ocl::Buffer buf = cl.createBuffer(threads * 4 + 64);
    const Addr args = cl.writeArgs({buf.pa});

    return m.runMain(
        proc, [&, threads](ThreadContext &ctx, VAddr) -> GuestTask {
            // Init/JIT excluded: steady-state launch cost only.
            apu::ocl::Event ev;
            co_await cl.enqueueNDRange(
                ctx,
                [](ThreadContext &tc, VAddr a) -> GuestTask {
                    const Addr p = co_await tc.load<std::uint64_t>(a);
                    co_await tc.store<std::uint32_t>(
                        p + tc.tid() * 4, 1);
                },
                threads, args, ev);
            co_await cl.finish(ctx, ev);
        }) - m.config().threadSpawnLatency;
}

} // namespace

int
main()
{
    const unsigned thread_counts[] = {8, 64, 256, 1024};
    const char *series[] = {"ccsvm_launch_us", "ccsvm_slow_mifd_us",
                            "apu_launch_us"};
    std::vector<Job> jobs;
    for (const unsigned threads : thread_counts) {
        jobs.push_back(ticksJob(
            [threads] { return ccsvmLaunch(threads, dev::MifdConfig{}); }));
        jobs.push_back(ticksJob([threads] {
            // Ablation within the ablation: a 10x slower MIFD barely
            // moves the needle — the syscall dominates the CCSVM
            // launch path.
            dev::MifdConfig mifd;
            mifd.taskAcceptLatency *= 10;
            mifd.chunkDispatchLatency *= 10;
            return ccsvmLaunch(threads, mifd);
        }));
        jobs.push_back(ticksJob([threads] { return apuLaunch(threads); }));
    }
    const auto out = runSweep(jobs);

    FigureTable table;
    std::size_t job = 0;
    for (const unsigned threads : thread_counts)
        for (const char *s : series)
            table.record(threads, s,
                         static_cast<double>(out[job++].run.ticks) /
                             tickUs);
    return finish(table, out,
                  "Ablation A1: no-op task launch latency (us) vs thread "
                  "count",
                  "threads");
}
