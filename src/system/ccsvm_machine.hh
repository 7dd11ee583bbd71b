/**
 * @file
 * The CCSVM heterogeneous multicore chip: the paper's Figure 1 system,
 * assembled from Table 2's parameters.
 *
 * 4 in-order CPU cores (2.9 GHz, IPC 0.5) + 10 MTTOP cores (600 MHz,
 * 128 threads each, 8 ops/cycle) + 4 banked inclusive-L2/directory
 * slices + the MIFD, all on a 2D torus with 12 GB/s links; one
 * coherence protocol (MOESI by default; MSI/MESI selectable via
 * CcsvmConfig::protocol, per cluster via cpuProtocol/mttopProtocol)
 * spans every core, one virtual address space per process spans CPU
 * and MTTOP threads, and the whole chip is sequentially consistent
 * (no write buffers, one memory op per thread).
 */

#ifndef CCSVM_SYSTEM_CCSVM_MACHINE_HH
#define CCSVM_SYSTEM_CCSVM_MACHINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/l1_cache.hh"
#include "coherence/monitor.hh"
#include "core/cpu_core.hh"
#include "core/mttop_core.hh"
#include "dev/mifd.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "noc/torus.hh"
#include "runtime/functional_mem.hh"
#include "runtime/process.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"
#include "vm/kernel.hh"
#include "vm/walker.hh"

namespace ccsvm::workloads::replay
{
class TraceCapture;
} // namespace ccsvm::workloads::replay

namespace ccsvm::system
{

/** Full chip configuration (defaults = paper Table 2). */
struct CcsvmConfig
{
    int numCpuCores = 4;
    int numMttopCores = 10;
    int numL2Banks = 4;

    /** Chip-wide coherence protocol; overrides the per-cache
     * settings in cpuL1/mttopL1/l2 (paper default: MOESI). */
    coherence::Protocol protocol = coherence::Protocol::MOESI;

    /**
     * Per-cluster heterogeneous protocols: the CPU cluster's L1s and
     * the MTTOP cluster's L1s may run different protocols against the
     * shared directory, which mediates mixed pairs (requestor-policy
     * sole-copy fills; dirty sharing only when both clusters have O).
     * Unset fields default to `protocol`, so every existing config
     * behaves exactly as before.
     */
    std::optional<coherence::Protocol> cpuProtocol;
    std::optional<coherence::Protocol> mttopProtocol;

    /**
     * Home-slice hash mapping block addresses to L2/directory banks
     * (driver flag --slice-hash). Propagated into every L1's bankFor,
     * each bank's wrong-bank assert and the machine's functional
     * accessors, so every site resolves the same policy. The default
     * (mod) is byte-identical to the pre-seam tree; xorfold/skew
     * spread power-of-two strides that hot-spot one bank under mod.
     */
    coherence::SliceHashKind sliceHash = coherence::SliceHashKind::Mod;

    /**
     * L2/directory-entry replacement policy (driver flag
     * --l2-replace). The default (lru) is byte-identical to the
     * pre-seam tree; see cache/replacer.hh for fifo/rand/region.
     */
    cache::ReplacerKind l2Replace = cache::ReplacerKind::Lru;

    core::CpuCoreConfig cpu;
    core::MttopCoreConfig mttop;

    coherence::L1Config cpuL1{64 * 1024, 4, 690, 8};
    coherence::L1Config mttopL1{16 * 1024, 4, 1667, 16};
    coherence::DirConfig l2; ///< 4 x 1 MB banks

    mem::DramConfig dram;    ///< 100 ns
    noc::TorusConfig noc;    ///< computed from core counts if 0x0
    vm::WalkerConfig walker;
    vm::KernelConfig kernel;
    dev::MifdConfig mifd;

    Addr physMemBytes = 2ull * 1024 * 1024 * 1024;
    /** Frames below this are reserved (device/kernel image). */
    Addr framePoolBase = 16 * 1024 * 1024;

    /**
     * Region-based coherence: page-aligned virtual regions with a
     * coherence attribute (coherent / bypass / protocol-override),
     * installed into every process this machine creates (driver flag
     * --region name:base:size:attr). Workloads may add their own
     * per-buffer regions on top (driver flag --region-hints). Empty
     * by default, which leaves every access on the default coherent
     * path — bit-identical to a region-unaware machine.
     */
    std::vector<vm::MemRegion> regions;

    /** Enable the SWMR monitor (tests; small host-time cost). */
    bool swmrChecks = true;

    /**
     * Transaction-trace categories ("coh,noc,vm,kernel" or "all";
     * driver flag --trace-categories). Empty (the default) disables
     * tracing entirely: every record site reduces to one load + mask
     * test, so default runs are unperturbed. Export with
     * stats().tracer().writeJson().
     */
    std::string traceCategories;

    /**
     * Time-series sampling interval in ticks (driver flag
     * --sample-interval); 0 = off. The run loop takes a sample before
     * the first event at or past each interval boundary, so sampling
     * schedules no events of its own.
     */
    Tick sampleInterval = 0;

    /**
     * Record the guest-side op stream of runMain into this `.ccsvmt`
     * trace file (driver flag --capture-out; docs/TRACE_FORMAT.md);
     * empty = off. Capture is a pure host-side observer: the run's
     * stats are byte-identical to an uncaptured run. Replay it with
     * the `replay` workload.
     */
    std::string captureOut;
};

/** The simulated CCSVM chip. */
class CcsvmMachine : public runtime::FunctionalMem
{
  public:
    /** @throws std::invalid_argument for more than coherence::maxL1s
     * cores, fewer MTTOP contexts than the MIFD's SIMD width, or an
     * unparseable trace-category list. */
    explicit CcsvmMachine(CcsvmConfig cfg = {});
    ~CcsvmMachine() override;

    // --- public API for workloads and examples ----------------------

    /** Create a guest process (address space + heap). */
    runtime::Process &createProcess();

    /**
     * Start a guest thread on CPU core @p cpu_idx.
     * @param on_done host callback at thread exit
     */
    void spawnCpuThread(int cpu_idx, runtime::Process &proc,
                        core::KernelFn fn, vm::VAddr args,
                        std::function<void()> on_done = {});

    /**
     * Convenience: run @p fn as the process's main thread on CPU 0
     * and simulate until it exits.
     * @return simulated ticks consumed
     */
    Tick runMain(runtime::Process &proc, core::KernelFn fn,
                 vm::VAddr args = 0);

    /** Run the event loop until fully idle (or @p limit). */
    void run(Tick limit = sim::EventQueue::maxTick);

    /**
     * Run until the host-side predicate @p done is true (checked
     * after every event) or the machine drains.
     * @return true iff the predicate fired
     */
    template <typename Done>
    bool
    runUntil(Done &&done, Tick limit = sim::EventQueue::maxTick)
    {
        while (!done()) {
            if (eq_.empty() || eq_.peekWhen() > limit)
                return false;
            step();
        }
        return true;
    }

    /** Current simulated time. */
    Tick now() const { return eq_.now(); }
    /** The configuration this machine was built with. */
    const CcsvmConfig &config() const { return cfg_; }
    /** The machine's event queue (bench/diagnostic access). */
    sim::EventQueue &engine() { return eq_; }
    sim::StatRegistry &stats() { return stats_; }
    mem::PhysMem &physMem() { return phys_; }
    vm::Kernel &kernel() { return *kernel_; }
    dev::Mifd &mifd() { return *mifd_; }

    int numCpuCores() const { return cfg_.numCpuCores; }
    int numMttopCores() const { return cfg_.numMttopCores; }
    coherence::Protocol protocol() const { return cfg_.protocol; }
    /** Resolved per-cluster protocols (fall back to protocol()). */
    coherence::Protocol
    cpuProtocol() const
    {
        return cfg_.cpuL1.protocol;
    }
    coherence::Protocol
    mttopProtocol() const
    {
        return cfg_.mttopL1.protocol;
    }
    core::CpuCore &cpuCore(int i) { return *cpuCores_[i]; }
    core::MttopCore &mttopCore(int i) { return *mttopCores_[i]; }

    /** Off-chip DRAM transactions so far (Figure 9's metric). */
    std::uint64_t dramAccesses() const;

    /** One time-series sample: cumulative counter totals of every
     * event before tick t (an interval boundary). */
    struct Sample
    {
        Tick t = 0;
        std::uint64_t dram = 0;       ///< sum of "dram.*"
        std::uint64_t l1Hits = 0;     ///< sum of "*.hits"
        std::uint64_t l1Misses = 0;   ///< sum of "*.misses"
        std::uint64_t nocPackets = 0;
        std::uint64_t nocBytes = 0;
        std::uint64_t pageFaults = 0;
    };

    /** Samples collected so far (empty unless sampleInterval > 0). */
    const std::vector<Sample> &samples() const { return samples_; }

    /** Text dump of every statistic (gem5 stats.txt style). */
    void dumpStats(std::ostream &os) const { stats_.dump(os); }

    // FunctionalMem.
    void funcRead(Addr pa, void *dst, unsigned len) override;
    void funcWrite(Addr pa, const void *src, unsigned len) override;

  private:
    void buildNodes();
    /** Run the next event, sampling first if it crosses an interval
     * boundary. @pre the queue is not empty. */
    void step();
    /** Sample the counters before an event at @p next. */
    void takeSample(Tick next);

    CcsvmConfig cfg_;
    sim::EventQueue eq_;
    sim::StatRegistry stats_;
    mem::PhysMem phys_;

    std::unique_ptr<mem::DramCtrl> dram_;
    std::unique_ptr<noc::TorusNetwork> net_;
    std::unique_ptr<coherence::SwmrMonitor> monitor_;
    std::unique_ptr<vm::Kernel> kernel_;

    std::vector<std::unique_ptr<coherence::L1Controller>> l1s_;
    std::vector<std::unique_ptr<coherence::Directory>> banks_;
    std::unique_ptr<vm::PteLineFilter> pteFilter_;
    std::vector<std::unique_ptr<vm::Walker>> walkers_;
    std::vector<std::unique_ptr<core::CpuCore>> cpuCores_;
    std::vector<std::unique_ptr<core::MttopCore>> mttopCores_;
    std::unique_ptr<dev::Mifd> mifd_;

    /** A CPU thread: context plus its kernel function. The function
     * object must outlive the coroutine — coroutine frames reference
     * the lambda's captures rather than copying them. */
    struct CpuThread
    {
        core::ThreadContext tc;
        core::KernelFn fn;
    };

    std::vector<std::unique_ptr<runtime::Process>> processes_;
    std::vector<std::unique_ptr<CpuThread>> cpuThreads_;

    std::vector<Sample> samples_;
    /** Next interval boundary to sample at; maxTick when off. */
    Tick nextSample_ = sim::EventQueue::maxTick;

    /** Trace capture (cfg_.captureOut); armed by the first runMain. */
    std::unique_ptr<workloads::replay::TraceCapture> capture_;
};

} // namespace ccsvm::system

#endif // CCSVM_SYSTEM_CCSVM_MACHINE_HH
