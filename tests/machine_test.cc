/**
 * @file
 * End-to-end CCSVM machine tests: guest threads on CPU cores, task
 * launch through the MIFD onto MTTOP cores, xthreads synchronization,
 * page-fault paths, and the paper's vector-add example (Fig. 4).
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "runtime/xthreads.hh"
#include "system/ccsvm_machine.hh"
#include "system/coherence_stats.hh"

namespace ccsvm::system
{
namespace
{

using core::ThreadContext;
using runtime::Process;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

GuestTask
storeLoop(ThreadContext &ctx, VAddr base)
{
    for (int i = 0; i < 16; ++i)
        co_await ctx.store<std::uint64_t>(base + i * 8, 100 + i);
    for (int i = 0; i < 16; ++i) {
        const auto v = co_await ctx.load<std::uint64_t>(base + i * 8);
        ccsvm_assert(v == 100u + i, "readback mismatch");
    }
}

TEST(Machine, StatsDumpListsCoreHierarchy)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const VAddr buf = proc.gmalloc(64);
    m.runMain(proc, [](ThreadContext &ctx, VAddr b) -> GuestTask {
        co_await ctx.store<std::uint64_t>(b, 1);
    }, buf);
    std::ostringstream os;
    m.dumpStats(os);
    const std::string text = os.str();
    // Every major component reports under its hierarchical name.
    for (const char *key :
         {"cpu0.instructions", "cpu0.l1.hits", "dram.reads",
          "noc.packets", "mifd.tasks", "kernel.pageFaults",
          "mttop0.tlb.misses", "dir0.getS"}) {
        EXPECT_NE(text.find(key), std::string::npos)
            << "missing stat " << key;
    }
}

TEST(Machine, RejectsMoreL1sThanTheSharerMask)
{
    CcsvmConfig cfg;
    cfg.numMttopCores = coherence::maxL1s - cfg.numCpuCores + 1;
    EXPECT_THROW(CcsvmMachine m(cfg), std::invalid_argument);
    // Exactly 64 L1s is the largest legal chip.
    cfg.numMttopCores -= 1;
    EXPECT_NO_THROW(CcsvmMachine m(cfg));
}

TEST(Machine, RejectsFewerContextsThanOneSimdChunk)
{
    // A core that cannot hold one MIFD chunk would never be handed
    // work, so the first launch would wait forever.
    CcsvmConfig cfg;
    cfg.mttop.numContexts = cfg.mifd.simdWidth - 1;
    EXPECT_THROW(CcsvmMachine m(cfg), std::invalid_argument);
    cfg.mttop.numContexts = cfg.mifd.simdWidth;
    EXPECT_NO_THROW(CcsvmMachine m(cfg));
}

TEST(Machine, CpuThreadRunsAndExits)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const VAddr buf = proc.gmalloc(256);
    const Tick elapsed = m.runMain(proc, storeLoop, buf);
    EXPECT_GT(elapsed, 0u);
    EXPECT_EQ(proc.peek<std::uint64_t>(buf), 100u);
    EXPECT_EQ(proc.peek<std::uint64_t>(buf + 15 * 8), 115u);
}

TEST(Machine, LazyPagesFaultOnFirstTouch)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const VAddr buf = proc.gmalloc(4 * mem::pageBytes);
    const auto faults_before = m.kernel().pageFaults();
    m.runMain(proc, [](ThreadContext &ctx, VAddr base) -> GuestTask {
        // Touch 3 distinct fresh pages.
        co_await ctx.store<std::uint64_t>(base, 1);
        co_await ctx.store<std::uint64_t>(base + mem::pageBytes, 2);
        co_await ctx.store<std::uint64_t>(base + 3 * mem::pageBytes,
                                          3);
    }, buf);
    EXPECT_EQ(m.kernel().pageFaults() - faults_before, 3u);
}

TEST(Machine, ComputeTimingMatchesIpcHalf)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    // 1000 instructions at IPC 0.5 and 2.9 GHz: ~690 ns, plus thread
    // start overhead.
    const Tick elapsed = m.runMain(
        proc, [](ThreadContext &ctx, VAddr) -> GuestTask {
            co_await ctx.compute(1000);
        });
    EXPECT_GE(elapsed, 1000 * 2 * 345ull);
    EXPECT_LT(elapsed, 1000 * 2 * 345ull + 100 * tickNs);
}

struct VecAddArgs
{
    VAddr v1, v2, sum, done;
    std::uint32_t n;
};

/** The paper's Figure 4 MTTOP kernel: sum[tid] = v1[tid] + v2[tid]. */
GuestTask
vecAddKernel(ThreadContext &ctx, VAddr args_va)
{
    const VAddr v1 = co_await ctx.load<std::uint64_t>(args_va + 0);
    const VAddr v2 = co_await ctx.load<std::uint64_t>(args_va + 8);
    const VAddr sum = co_await ctx.load<std::uint64_t>(args_va + 16);
    const VAddr done = co_await ctx.load<std::uint64_t>(args_va + 24);
    const ThreadId tid = ctx.tid();

    const auto a =
        co_await ctx.load<std::int32_t>(v1 + tid * 4);
    const auto b =
        co_await ctx.load<std::int32_t>(v2 + tid * 4);
    co_await ctx.compute(1);
    co_await ctx.store<std::int32_t>(
        sum + tid * 4, static_cast<std::int32_t>(a + b));
    co_await xt::mttopSignal(ctx, done);
}

/** The paper's Figure 4 CPU main. */
GuestTask
vecAddMain(ThreadContext &ctx, VAddr args_va)
{
    const VAddr done = co_await ctx.load<std::uint64_t>(args_va + 24);
    const auto n = co_await ctx.load<std::uint32_t>(args_va + 32);
    co_await xt::createMthread(ctx, vecAddKernel, args_va, 0,
                               static_cast<ThreadId>(n - 1));
    co_await xt::cpuWaitAll(ctx, done, 0,
                            static_cast<ThreadId>(n - 1));
}

TEST(Machine, XthreadsVectorAddEndToEnd)
{
    constexpr std::uint32_t n = 256;
    CcsvmMachine m;
    Process &proc = m.createProcess();

    const VAddr v1 = proc.gmalloc(n * 4);
    const VAddr v2 = proc.gmalloc(n * 4);
    const VAddr sum = proc.gmalloc(n * 4);
    const VAddr done = proc.gmalloc(n * 4);
    const VAddr args = proc.gmalloc(64);
    for (std::uint32_t i = 0; i < n; ++i) {
        proc.poke<std::int32_t>(v1 + i * 4,
                                static_cast<std::int32_t>(i));
        proc.poke<std::int32_t>(v2 + i * 4,
                                static_cast<std::int32_t>(1000 + i));
        proc.poke<std::uint32_t>(done + i * 4, 0);
    }
    proc.poke<std::uint64_t>(args + 0, v1);
    proc.poke<std::uint64_t>(args + 8, v2);
    proc.poke<std::uint64_t>(args + 16, sum);
    proc.poke<std::uint64_t>(args + 24, done);
    proc.poke<std::uint32_t>(args + 32, n);

    const Tick elapsed = m.runMain(proc, vecAddMain, args);
    for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(proc.peek<std::int32_t>(sum + i * 4),
                  static_cast<std::int32_t>(1000 + 2 * i))
            << "element " << i;
    }
    // 256 threads = 32 chunks over 10 MTTOP cores; whole thing should
    // finish in well under a millisecond of simulated time.
    EXPECT_LT(elapsed, 1 * tickMs);
    EXPECT_EQ(m.stats().get("mifd.tasks"), 1u);
    EXPECT_EQ(m.stats().get("mifd.chunks"), 32u);
    EXPECT_EQ(m.mifd().errorRegister(), 0u);
}

TEST(Machine, TaskLaunchIsMicrosecondScale)
{
    // The headline mechanism: launching MTTOP work costs ~a syscall,
    // not an OpenCL driver stack. Measure an 8-thread no-op task.
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const VAddr done = proc.gmalloc(8 * 4);
    for (int i = 0; i < 8; ++i)
        proc.poke<std::uint32_t>(done + i * 4, 0);

    const Tick elapsed = m.runMain(
        proc, [](ThreadContext &ctx, VAddr done_va) -> GuestTask {
            co_await xt::createMthread(
                ctx,
                [](ThreadContext &mt, VAddr d) -> GuestTask {
                    co_await xt::mttopSignal(mt, d);
                },
                done_va, 0, 7);
            co_await xt::cpuWaitAll(ctx, done_va, 0, 7);
        },
        done);
    // End-to-end launch+signal+join: single-digit microseconds.
    EXPECT_LT(elapsed, 10 * tickUs);
    EXPECT_GT(elapsed, 500 * tickNs);
}

TEST(Machine, MttopPageFaultsRelayThroughMifd)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    // Fresh pages, never touched by the CPU: the MTTOP threads fault.
    const VAddr buf = proc.gmalloc(8 * mem::pageBytes);
    const VAddr done = proc.gmalloc(8 * 4);
    const VAddr args = proc.gmalloc(32);
    proc.poke<std::uint64_t>(args, buf);
    proc.poke<std::uint64_t>(args + 8, done);
    for (int i = 0; i < 8; ++i)
        proc.poke<std::uint32_t>(done + i * 4, 0);

    m.runMain(proc, [](ThreadContext &ctx, VAddr a) -> GuestTask {
        const VAddr buf_va = co_await ctx.load<std::uint64_t>(a);
        (void)buf_va; // kernel threads read it from args themselves
        const VAddr done_va =
            co_await ctx.load<std::uint64_t>(a + 8);
        co_await xt::createMthread(
            ctx,
            [](ThreadContext &mt, VAddr args2) -> GuestTask {
                const VAddr b =
                    co_await mt.load<std::uint64_t>(args2);
                const VAddr d =
                    co_await mt.load<std::uint64_t>(args2 + 8);
                // Each thread touches its own fresh page.
                co_await mt.store<std::uint64_t>(
                    b + mt.tid() * mem::pageBytes, mt.tid() + 1);
                co_await xt::mttopSignal(mt, d);
            },
            a, 0, 7);
        co_await xt::cpuWaitAll(ctx, done_va, 0, 7);
    }, args);

    EXPECT_GE(m.stats().get("mifd.faultRelays"), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(proc.peek<std::uint64_t>(buf +
                                           i * mem::pageBytes),
                  static_cast<std::uint64_t>(i + 1));
    }
}

TEST(Machine, BarrierSynchronizesCpuAndMttop)
{
    constexpr int n = 16;
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const VAddr barrier = proc.gmalloc(n * 4);
    const VAddr sense = proc.gmalloc(4);
    const VAddr data = proc.gmalloc(n * 8);
    const VAddr out = proc.gmalloc(n * 8);
    const VAddr done = proc.gmalloc(n * 4);
    const VAddr args = proc.gmalloc(64);
    proc.poke<std::uint64_t>(args + 0, barrier);
    proc.poke<std::uint64_t>(args + 8, sense);
    proc.poke<std::uint64_t>(args + 16, data);
    proc.poke<std::uint64_t>(args + 24, done);
    proc.poke<std::uint64_t>(args + 32, out);
    for (int i = 0; i < n; ++i) {
        proc.poke<std::uint32_t>(barrier + i * 4, 0);
        proc.poke<std::uint32_t>(done + i * 4, 0);
        proc.poke<std::uint64_t>(data + i * 8, 0);
        proc.poke<std::uint64_t>(out + i * 8, 0);
    }
    proc.poke<std::uint32_t>(sense, 0);

    // Phase 1: each MTTOP thread writes tid+1 to data; barrier;
    // phase 2: each thread reads its neighbour's phase-1 value and
    // writes the result to a separate array. Any barrier bug surfaces
    // as a zero (unwritten) neighbour value.
    auto kernel = [](ThreadContext &mt, VAddr a) -> GuestTask {
        const VAddr barrier_va = co_await mt.load<std::uint64_t>(a);
        const VAddr sense_va = co_await mt.load<std::uint64_t>(a + 8);
        const VAddr data_va = co_await mt.load<std::uint64_t>(a + 16);
        const VAddr done_va = co_await mt.load<std::uint64_t>(a + 24);
        const VAddr out_va = co_await mt.load<std::uint64_t>(a + 32);
        const ThreadId tid = mt.tid();

        co_await mt.store<std::uint64_t>(data_va + tid * 8, tid + 1);
        co_await xt::mttopBarrier(mt, barrier_va, sense_va, 1);
        const ThreadId next = (tid + 1) % n;
        const auto neighbour =
            co_await mt.load<std::uint64_t>(data_va + next * 8);
        co_await mt.store<std::uint64_t>(out_va + tid * 8,
                                         1000 + neighbour);
        co_await xt::mttopSignal(mt, done_va);
    };

    m.runMain(proc, [kernel](ThreadContext &ctx,
                             VAddr a) -> GuestTask {
        const VAddr barrier_va = co_await ctx.load<std::uint64_t>(a);
        const VAddr sense_va = co_await ctx.load<std::uint64_t>(a + 8);
        const VAddr done_va = co_await ctx.load<std::uint64_t>(a + 24);
        co_await xt::createMthread(ctx, kernel, a, 0, n - 1);
        co_await xt::cpuBarrier(ctx, barrier_va, sense_va, 0, n - 1,
                                1);
        co_await xt::cpuWaitAll(ctx, done_va, 0, n - 1);
    }, args);

    for (int i = 0; i < n; ++i) {
        const auto expect =
            1000ull + static_cast<std::uint64_t>((i + 1) % n) + 1;
        EXPECT_EQ(proc.peek<std::uint64_t>(out + i * 8), expect)
            << "thread " << i << " raced through the barrier";
    }
}

TEST(Machine, MttopMallocServesPointers)
{
    constexpr int n = 8;
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const VAddr boxes = proc.gmalloc(n * 16);
    const VAddr out = proc.gmalloc(n * 8);
    const VAddr done = proc.gmalloc(n * 4);
    const VAddr stop = proc.gmalloc(4);
    const VAddr args = proc.gmalloc(64);
    proc.poke<std::uint64_t>(args + 0, boxes);
    proc.poke<std::uint64_t>(args + 8, out);
    proc.poke<std::uint64_t>(args + 16, done);
    for (int i = 0; i < n; ++i) {
        proc.poke<std::uint32_t>(done + i * 4, 0);
        proc.poke<std::uint64_t>(boxes + i * 16, 0);
        proc.poke<std::uint32_t>(boxes + i * 16 + 8, 0);
    }
    proc.poke<std::uint32_t>(stop, 0);

    auto kernel = [](ThreadContext &mt, VAddr a) -> GuestTask {
        const VAddr boxes_va = co_await mt.load<std::uint64_t>(a);
        const VAddr out_va = co_await mt.load<std::uint64_t>(a + 8);
        const VAddr done_va = co_await mt.load<std::uint64_t>(a + 16);
        VAddr ptr = 0;
        co_await xt::mttopMalloc(mt, boxes_va,
                                 64 * (mt.tid() + 1), ptr);
        // Use the allocation: write a marker into it.
        co_await mt.store<std::uint64_t>(ptr, 0xabc0 + mt.tid());
        co_await mt.store<std::uint64_t>(out_va + mt.tid() * 8, ptr);
        co_await xt::mttopSignal(mt, done_va);
    };

    m.runMain(proc, [kernel](ThreadContext &ctx,
                             VAddr a) -> GuestTask {
        const VAddr boxes_va = co_await ctx.load<std::uint64_t>(a);
        const VAddr done_va = co_await ctx.load<std::uint64_t>(a + 16);
        co_await xt::createMthread(ctx, kernel, a, 0, n - 1);
        // This CPU thread doubles as the malloc server; it returns
        // once all workers signalled done.
        co_await xt::cpuMallocServerUntilDone(ctx, boxes_va, 0, n - 1,
                                              done_va);
    }, args);

    // Every thread got a distinct, usable pointer.
    std::set<std::uint64_t> ptrs;
    for (int i = 0; i < n; ++i) {
        const auto ptr = proc.peek<std::uint64_t>(out + i * 8);
        ASSERT_NE(ptr, 0u);
        EXPECT_TRUE(ptrs.insert(ptr).second) << "duplicate pointer";
        EXPECT_EQ(proc.peek<std::uint64_t>(ptr),
                  0xabc0ull + static_cast<unsigned>(i));
    }
}

TEST(Machine, ErrorRegisterOnContextExhaustion)
{
    CcsvmConfig cfg;
    cfg.numMttopCores = 1;
    cfg.mttop.numContexts = 16;
    CcsvmMachine m(cfg);
    Process &proc = m.createProcess();
    const VAddr done = proc.gmalloc(64 * 4);
    for (int i = 0; i < 64; ++i)
        proc.poke<std::uint32_t>(done + i * 4, 0);

    // 64 threads > 16 contexts: the MIFD must flag the shortfall but
    // still run the task to completion in waves (it does not require
    // global synchronization here, so that is safe).
    m.runMain(proc, [](ThreadContext &ctx, VAddr d) -> GuestTask {
        co_await xt::createMthread(
            ctx,
            [](ThreadContext &mt, VAddr dd) -> GuestTask {
                co_await xt::mttopSignal(mt, dd);
            },
            d, 0, 63, /*require_all=*/true);
        co_await xt::cpuWaitAll(ctx, d, 0, 63);
    }, done);

    EXPECT_EQ(m.mifd().errorRegister(), 1u);
    EXPECT_EQ(m.stats().get("mifd.errors"), 1u);
}

TEST(Machine, PthreadsStyleMulticoreCpu)
{
    // 4 CPU threads on 4 cores incrementing disjoint counters, like a
    // pthreads program on the CCSVM chip.
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const VAddr counters = proc.gmalloc(4 * 64); // one block each

    int remaining = 4;
    for (int c = 0; c < 4; ++c) {
        m.spawnCpuThread(
            c, proc,
            [](ThreadContext &ctx, VAddr base) -> GuestTask {
                for (int i = 0; i < 50; ++i)
                    co_await ctx.amo(base, coherence::AmoOp::Inc);
            },
            counters + c * 64, [&remaining] { --remaining; });
    }
    m.run();
    EXPECT_EQ(remaining, 0);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(proc.peek<std::uint64_t>(counters + c * 64), 50u);
}

TEST(Machine, SharedCounterAcrossCpuAndMttop)
{
    // CPU threads and MTTOP threads atomically increment one shared
    // counter: the tight-coupling headline in one assertion.
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const VAddr counter = proc.gmalloc(8);
    const VAddr done = proc.gmalloc(32 * 4);
    const VAddr args = proc.gmalloc(32);
    proc.poke<std::uint64_t>(counter, 0);
    proc.poke<std::uint64_t>(args, counter);
    proc.poke<std::uint64_t>(args + 8, done);
    for (int i = 0; i < 32; ++i)
        proc.poke<std::uint32_t>(done + i * 4, 0);

    m.runMain(proc, [](ThreadContext &ctx, VAddr a) -> GuestTask {
        const VAddr counter_va = co_await ctx.load<std::uint64_t>(a);
        const VAddr done_va = co_await ctx.load<std::uint64_t>(a + 8);
        co_await xt::createMthread(
            ctx,
            [](ThreadContext &mt, VAddr aa) -> GuestTask {
                const VAddr c = co_await mt.load<std::uint64_t>(aa);
                const VAddr d =
                    co_await mt.load<std::uint64_t>(aa + 8);
                for (int i = 0; i < 10; ++i)
                    co_await mt.amo(c, coherence::AmoOp::Inc);
                co_await xt::mttopSignal(mt, d);
            },
            a, 0, 31);
        // The CPU hammers the same counter concurrently.
        for (int i = 0; i < 80; ++i)
            co_await ctx.amo(counter_va, coherence::AmoOp::Inc);
        co_await xt::cpuWaitAll(ctx, done_va, 0, 31);
    }, args);

    EXPECT_EQ(proc.peek<std::uint64_t>(counter), 32u * 10 + 80);
}

TEST(Machine, PerClusterProtocolsResolveFromChipDefault)
{
    // Unset per-cluster protocols follow the chip-wide one...
    CcsvmConfig cfg;
    cfg.protocol = coherence::Protocol::MESI;
    CcsvmMachine m(cfg);
    EXPECT_EQ(m.cpuProtocol(), coherence::Protocol::MESI);
    EXPECT_EQ(m.mttopProtocol(), coherence::Protocol::MESI);

    // ...and explicit ones override it per cluster.
    CcsvmConfig mixed;
    mixed.cpuProtocol = coherence::Protocol::MOESI;
    mixed.mttopProtocol = coherence::Protocol::MSI;
    CcsvmMachine hm(mixed);
    EXPECT_EQ(hm.cpuProtocol(), coherence::Protocol::MOESI);
    EXPECT_EQ(hm.mttopProtocol(), coherence::Protocol::MSI);
}

TEST(Machine, HeterogeneousPairSharesOneCounterCorrectly)
{
    // The cross-cluster shared-counter workload under the headline
    // mixed pair (MOESI CPUs, MSI MTTOP): correctness must be
    // protocol-pair independent, every MTTOP read of a CPU-dirty
    // line pays a writeback home, and the split counters tile the
    // sharingWb total.
    CcsvmConfig cfg;
    cfg.cpuProtocol = coherence::Protocol::MOESI;
    cfg.mttopProtocol = coherence::Protocol::MSI;
    CcsvmMachine m(cfg);
    Process &proc = m.createProcess();
    const VAddr counter = proc.gmalloc(8);
    const VAddr done = proc.gmalloc(16 * 4);
    const VAddr args = proc.gmalloc(32);
    proc.poke<std::uint64_t>(counter, 0);
    proc.poke<std::uint64_t>(args, counter);
    proc.poke<std::uint64_t>(args + 8, done);
    for (int i = 0; i < 16; ++i)
        proc.poke<std::uint32_t>(done + i * 4, 0);

    m.runMain(proc, [](ThreadContext &ctx, VAddr a) -> GuestTask {
        const VAddr counter_va = co_await ctx.load<std::uint64_t>(a);
        const VAddr done_va = co_await ctx.load<std::uint64_t>(a + 8);
        co_await xt::createMthread(
            ctx,
            [](ThreadContext &mt, VAddr aa) -> GuestTask {
                const VAddr c = co_await mt.load<std::uint64_t>(aa);
                const VAddr d =
                    co_await mt.load<std::uint64_t>(aa + 8);
                for (int i = 0; i < 8; ++i)
                    co_await mt.amo(c, coherence::AmoOp::Inc);
                co_await xt::mttopSignal(mt, d);
            },
            a, 0, 15);
        for (int i = 0; i < 40; ++i)
            co_await ctx.amo(counter_va, coherence::AmoOp::Inc);
        co_await xt::cpuWaitAll(ctx, done_va, 0, 15);
    }, args);

    EXPECT_EQ(proc.peek<std::uint64_t>(counter), 16u * 8 + 40);

    std::uint64_t wb = 0;
    for (int b = 0;; ++b) {
        const std::string bank = "dir" + std::to_string(b);
        if (!m.stats().hasCounter(bank + ".sharingWb"))
            break;
        wb += m.stats().get(bank + ".sharingWb");
    }
    EXPECT_EQ(wb, clusterSharingWritebacks(m, "cpu") +
                      clusterSharingWritebacks(m, "mttop"));
}

} // namespace
} // namespace ccsvm::system
