#include "system/ccsvm_machine.hh"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "base/logging.hh"
#include "workloads/replay/capture.hh"
#include "workloads/replay/replayer.hh"

namespace ccsvm::system
{

CcsvmMachine::CcsvmMachine(CcsvmConfig cfg)
    : cfg_(std::move(cfg)), phys_(cfg_.physMemBytes)
{
    if (cfg_.numCpuCores + cfg_.numMttopCores > coherence::maxL1s) {
        throw std::invalid_argument(
            std::to_string(cfg_.numCpuCores) + " CPU + " +
            std::to_string(cfg_.numMttopCores) +
            " MTTOP cores exceed the directory's " +
            std::to_string(coherence::maxL1s) + "-L1 sharer mask");
    }
    // The MIFD dispatches whole SIMD chunks; a core with fewer
    // contexts than one chunk could never accept work.
    if (cfg_.mttop.numContexts < cfg_.mifd.simdWidth) {
        throw std::invalid_argument(
            std::to_string(cfg_.mttop.numContexts) +
            " MTTOP contexts per core cannot hold one " +
            std::to_string(cfg_.mifd.simdWidth) + "-thread chunk");
    }

    // Bind each cluster's protocol (defaulting to the chip-wide one)
    // to its L1s, and teach the directory banks the cluster split so
    // they can mediate mixed-protocol transactions.
    const coherence::Protocol cpu_p =
        cfg_.cpuProtocol.value_or(cfg_.protocol);
    const coherence::Protocol mttop_p =
        cfg_.mttopProtocol.value_or(cfg_.protocol);
    cfg_.cpuProtocol = cpu_p;
    cfg_.mttopProtocol = mttop_p;
    cfg_.cpuL1.protocol = cpu_p;
    cfg_.mttopL1.protocol = mttop_p;
    // DirConfig::protocol is ignored once the cluster split below is
    // configured; only the per-cluster pair matters.
    cfg_.l2.cpuProtocol = cpu_p;
    cfg_.l2.mttopProtocol = mttop_p;
    cfg_.l2.firstMttopL1 = cfg_.numCpuCores;

    // Home-slice hash and L2 replacement policy: every
    // address-to-bank site (L1 bankFor, bank asserts, functional
    // accessors) and every bank's victim selection resolve from the
    // one chip-wide setting.
    cfg_.cpuL1.sliceHash = cfg_.sliceHash;
    cfg_.mttopL1.sliceHash = cfg_.sliceHash;
    cfg_.l2.sliceHash = cfg_.sliceHash;
    cfg_.l2.replace = cfg_.l2Replace;

    dram_ = std::make_unique<mem::DramCtrl>(eq_, stats_, "dram",
                                            cfg_.dram);

    // Auto-size the torus to hold all endpoints if the configured grid
    // is too small: CPUs + MTTOPs + L2 banks + MIFD.
    const int endpoints = cfg_.numCpuCores + cfg_.numMttopCores +
                          cfg_.numL2Banks + 1;
    if (cfg_.noc.width * cfg_.noc.height < endpoints) {
        cfg_.noc.width = static_cast<int>(
            std::ceil(std::sqrt(static_cast<double>(endpoints))));
        cfg_.noc.height =
            (endpoints + cfg_.noc.width - 1) / cfg_.noc.width;
    }
    net_ = std::make_unique<noc::TorusNetwork>(eq_, stats_, "noc",
                                               cfg_.noc);

    if (cfg_.swmrChecks)
        monitor_ = std::make_unique<coherence::SwmrMonitor>();

    // Observability: arm the tracer before components intern their
    // lanes in buildNodes(). An unparseable category list is a
    // config error.
    if (!cfg_.traceCategories.empty()) {
        unsigned mask = 0;
        if (!sim::Tracer::parseCategories(cfg_.traceCategories, mask))
            throw std::invalid_argument(
                "bad trace categories: " + cfg_.traceCategories);
        stats_.tracer().setMask(mask);
    }

    kernel_ = std::make_unique<vm::Kernel>(
        eq_, stats_, phys_, cfg_.kernel, cfg_.framePoolBase,
        cfg_.physMemBytes - cfg_.framePoolBase);

    buildNodes();

    if (cfg_.sampleInterval > 0)
        nextSample_ = cfg_.sampleInterval;
}

void
CcsvmMachine::step()
{
    const Tick next = eq_.peekWhen();
    if (next >= nextSample_)
        takeSample(next);
    eq_.runOne();
}

void
CcsvmMachine::takeSample(Tick next)
{
    // No event ran in [now, next), so the counters hold the same
    // totals at every boundary up to @p next. One sample stands for
    // all of them, stamped with the last one.
    const Tick t =
        next - (next - nextSample_) % cfg_.sampleInterval;
    Sample s;
    s.t = t;
    s.dram = stats_.sumMatching("dram.");
    s.l1Hits = stats_.sumMatchingSuffix(".hits");
    s.l1Misses = stats_.sumMatchingSuffix(".misses");
    s.nocPackets = stats_.get("noc.packets");
    s.nocBytes = stats_.get("noc.bytes");
    s.pageFaults = stats_.get("kernel.pageFaults");
    samples_.push_back(s);
    nextSample_ = t + cfg_.sampleInterval;
}

CcsvmMachine::~CcsvmMachine() = default;

void
CcsvmMachine::buildNodes()
{
    const int num_l1s = cfg_.numCpuCores + cfg_.numMttopCores;
    const noc::NodeId first_bank_node = num_l1s;
    const noc::NodeId mifd_node = num_l1s + cfg_.numL2Banks;

    // L1 controllers: CPUs first, then MTTOPs; L1Id == node id.
    for (int i = 0; i < cfg_.numCpuCores; ++i) {
        l1s_.push_back(std::make_unique<coherence::L1Controller>(
            eq_, stats_, "cpu" + std::to_string(i) + ".l1",
            cfg_.cpuL1, i, *net_, i, monitor_.get()));
    }
    for (int j = 0; j < cfg_.numMttopCores; ++j) {
        const int id = cfg_.numCpuCores + j;
        l1s_.push_back(std::make_unique<coherence::L1Controller>(
            eq_, stats_, "mttop" + std::to_string(j) + ".l1",
            cfg_.mttopL1, id, *net_, id, monitor_.get()));
    }

    for (int b = 0; b < cfg_.numL2Banks; ++b) {
        banks_.push_back(std::make_unique<coherence::Directory>(
            eq_, stats_, "dir" + std::to_string(b), cfg_.l2, b,
            cfg_.numL2Banks, *net_, first_bank_node + b, *dram_,
            phys_));
    }

    // Wire the protocol.
    std::vector<coherence::L1Ref> l1refs;
    for (int i = 0; i < num_l1s; ++i)
        l1refs.push_back({l1s_[i].get(), i});
    std::vector<coherence::DirRef> dirrefs;
    for (int b = 0; b < cfg_.numL2Banks; ++b)
        dirrefs.push_back({banks_[b].get(), first_bank_node + b});
    for (auto &l1 : l1s_) {
        l1->connectDirectories(dirrefs);
        l1->connectPeers(l1refs);
    }
    for (auto &bank : banks_)
        bank->connectL1s(l1refs);

    // Per-core walkers (sharing the PTE-lines-in-L2 model) and cores.
    pteFilter_ = std::make_unique<vm::PteLineFilter>();
    for (int i = 0; i < cfg_.numCpuCores; ++i) {
        walkers_.push_back(std::make_unique<vm::Walker>(
            eq_, stats_, "cpu" + std::to_string(i) + ".walker",
            cfg_.walker, *dram_, pteFilter_.get()));
        cpuCores_.push_back(std::make_unique<core::CpuCore>(
            eq_, stats_, "cpu" + std::to_string(i), cfg_.cpu,
            *l1s_[i], *walkers_.back(), *kernel_, *net_, i));
    }
    for (int j = 0; j < cfg_.numMttopCores; ++j) {
        walkers_.push_back(std::make_unique<vm::Walker>(
            eq_, stats_, "mttop" + std::to_string(j) + ".walker",
            cfg_.walker, *dram_, pteFilter_.get()));
        mttopCores_.push_back(std::make_unique<core::MttopCore>(
            eq_, stats_, "mttop" + std::to_string(j), cfg_.mttop,
            *l1s_[cfg_.numCpuCores + j], *walkers_.back(), *kernel_));
    }

    // The MIFD.
    mifd_ = std::make_unique<dev::Mifd>(eq_, stats_, cfg_.mifd,
                                        *kernel_, *net_, mifd_node);
    std::vector<dev::MttopPort> mttop_ports;
    for (int j = 0; j < cfg_.numMttopCores; ++j) {
        mttop_ports.push_back(
            {mttopCores_[j].get(),
             static_cast<noc::NodeId>(cfg_.numCpuCores + j)});
    }
    mifd_->connectMttops(std::move(mttop_ports));
    for (auto &cpu : cpuCores_)
        cpu->connectMifd({mifd_.get(), mifd_node});
}

runtime::Process &
CcsvmMachine::createProcess()
{
    processes_.push_back(std::make_unique<runtime::Process>(
        static_cast<int>(processes_.size()), *kernel_, *this));
    runtime::Process &proc = *processes_.back();
    // Machine-level region table (driver --region flags): every
    // process sees the same attribute map.
    for (const vm::MemRegion &r : cfg_.regions)
        proc.addressSpace().addRegion(r);
    return proc;
}

void
CcsvmMachine::spawnCpuThread(int cpu_idx, runtime::Process &proc,
                             core::KernelFn fn, vm::VAddr args,
                             std::function<void()> on_done)
{
    ccsvm_assert(cpu_idx >= 0 && cpu_idx < cfg_.numCpuCores,
                 "bad CPU index %d", cpu_idx);
    auto thread = std::make_unique<CpuThread>();
    thread->fn = std::move(fn);
    core::ThreadContext &ref = thread->tc;
    const core::KernelFn &stored_fn = thread->fn;
    cpuThreads_.push_back(std::move(thread));
    ref.bind(proc.allocTid(), &proc, cpuCores_[cpu_idx].get());
    // Set the sink unconditionally so threads spawned outside the
    // captured runMain never inherit one.
    ref.setSink(capture_ && capture_->armed()
                    ? capture_->cpuStream(
                          static_cast<unsigned>(cpu_idx))
                    : nullptr);
    cpuCores_[cpu_idx]->runThread(ref, stored_fn(ref, args),
                                  std::move(on_done));
}

Tick
CcsvmMachine::runMain(runtime::Process &proc, core::KernelFn fn,
                      vm::VAddr args)
{
    const Tick start = eq_.now();
    if (!cfg_.captureOut.empty()) {
        // Arm at the start of the (single) captured run: the premap
        // snapshot must see exactly the host-side init mappings, and
        // a second captured runMain would corrupt the stream keys.
        ccsvm_assert(!capture_,
                     "trace capture supports a single runMain per "
                     "machine");
        ccsvm_assert(processes_.size() == 1 &&
                         processes_.front().get() == &proc,
                     "trace capture requires the traced process to "
                     "be the machine's only process");
        capture_ = std::make_unique<workloads::replay::TraceCapture>(
            workloads::replay::shapeOf(cfg_), cfg_.captureOut,
            static_cast<unsigned>(cfg_.numCpuCores));
        capture_->arm(proc, phys_);
        for (auto &mc : mttopCores_) {
            mc->setCaptureHook(
                [this](const core::TaskDescriptor &desc,
                       ThreadId tid) {
                    return capture_->mttopStream(desc, tid);
                });
        }
    }
    bool done = false;
    spawnCpuThread(0, proc, std::move(fn), args, [&] { done = true; });
    while (!done) {
        ccsvm_assert(!eq_.empty(), "guest main never exited (deadlock?)");
        step();
    }
    const Tick ticks = eq_.now() - start;
    // Quiesce before returning: under protocols without an Owned
    // state the newest copy of a line can be in flight between a
    // downgraded owner and the home (the dirty Unblock of the read
    // that observed main's exit condition) at the instant main exits.
    // funcRead trusts only owner-state L1 copies and the home, so an
    // immediate functional peek — every workload's host validation —
    // would read stale data. Guest threads main did not join simply
    // run to completion here; the measured region still ends at
    // main's exit. The drain is bounded so an unsatisfiable straggler
    // (a thread spinning on a condition only main could have set)
    // degrades to a warning instead of hanging the host forever.
    constexpr Tick quiesceLimit = 100 * tickMs;
    run(eq_.now() + quiesceLimit);
    if (!eq_.empty()) {
        ccsvm_warn("runMain: events still pending after the "
                   "post-main quiesce window; functional reads may "
                   "see stale data");
    }
    if (capture_ && capture_->armed()) {
        for (auto &mc : mttopCores_)
            mc->setCaptureHook({});
        capture_->finalize();
    }
    return ticks;
}

void
CcsvmMachine::run(Tick limit)
{
    while (!eq_.empty() && eq_.peekWhen() <= limit)
        step();
}

std::uint64_t
CcsvmMachine::dramAccesses() const
{
    return dram_->reads() + dram_->writes();
}

void
CcsvmMachine::funcRead(Addr pa, void *dst, unsigned len)
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const Addr block = mem::blockAlign(pa);
        const unsigned off = static_cast<unsigned>(pa - block);
        const unsigned chunk =
            std::min<unsigned>(len, mem::blockBytes - off);

        std::uint8_t buf[mem::blockBytes];
        bool found = false;
        // A dirty owner (E/M/O at some L1) is authoritative...
        for (auto &l1 : l1s_) {
            if (l1->funcReadBlock(block, buf)) {
                found = true;
                break;
            }
        }
        // ...then the L2 copy...
        if (!found) {
            auto &bank = banks_[coherence::sliceHash(cfg_.sliceHash)
                                    .bankOf(block,
                                            static_cast<int>(
                                                banks_.size()))];
            found = bank->funcReadBlock(block, buf);
        }
        // ...then physical memory.
        if (!found)
            phys_.readBlock(block, buf);

        std::memcpy(out, buf + off, chunk);
        pa += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
CcsvmMachine::funcWrite(Addr pa, const void *src, unsigned len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const Addr block = mem::blockAlign(pa);
        const unsigned off = static_cast<unsigned>(pa - block);
        const unsigned chunk =
            std::min<unsigned>(len, mem::blockBytes - off);

        // Write through every copy so no cache holds stale data.
        phys_.write(pa, in, chunk);
        for (auto &l1 : l1s_)
            l1->funcWriteBlock(block, off, in, chunk);
        banks_[coherence::sliceHash(cfg_.sliceHash)
                   .bankOf(block, static_cast<int>(banks_.size()))]
            ->funcWriteBlock(block, off, in, chunk);

        pa += chunk;
        in += chunk;
        len -= chunk;
    }
}

} // namespace ccsvm::system
