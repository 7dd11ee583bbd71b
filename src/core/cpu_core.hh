/**
 * @file
 * In-order CPU core model.
 *
 * Table 2: "4 in-order x86 cores, 2.9 GHz, max IPC=0.5" — one
 * instruction every two cycles, deliberately weak so any CCSVM win is
 * attributable to the memory system, not the cores. Each core has a
 * private L1, a 64-entry TLB and a hardware page-table walker; page
 * faults trap into the kernel model. The write syscall to the MIFD
 * (task launch) costs a fixed kernel-entry latency plus a NoC message
 * to the MIFD node.
 */

#ifndef CCSVM_CORE_CPU_CORE_HH
#define CCSVM_CORE_CPU_CORE_HH

#include <functional>
#include <string>

#include "base/types.hh"
#include "core/mem_path.hh"
#include "noc/network.hh"
#include "runtime/process.hh"
#include "sim/clock.hh"

namespace ccsvm::core
{

/** CPU core timing parameters. */
struct CpuCoreConfig
{
    Tick clockPeriod = 345;  ///< 2.9 GHz
    /** Ticks per retired instruction. CCSVM CPU: 690 (IPC 0.5,
     * Table 2); APU CPU: 86 (max IPC 4). */
    Tick issuePeriod = 690;
    Tick syscallLatency = 690 * tickNs; ///< write-syscall kernel path
    Tick hostWaitPollPeriod = 1 * tickUs; ///< HostWait poll interval
    unsigned tlbEntries = 64;
};

/** Wiring record for the MIFD device. */
struct MifdPort
{
    MifdIface *dev = nullptr;
    noc::NodeId node = -1;
};

/** One in-order CPU core. */
class CpuCore : public CoreModel
{
  public:
    CpuCore(sim::EventQueue &eq, sim::StatRegistry &stats,
            const std::string &name, const CpuCoreConfig &cfg,
            coherence::L1Controller &l1, vm::Walker &walker,
            vm::Kernel &kernel, noc::Network &net, noc::NodeId my_node);

    /** Wire up the MIFD (optional: baseline CPUs have none). */
    void connectMifd(MifdPort port) { mifd_ = port; }

    /** Enable the uncacheable pinned window (APU machines). */
    void setUncachedWindow(UncachedWindow w) { mem_.setUncachedWindow(w); }

    /**
     * Start a guest thread on this core. One thread runs at a time
     * (the kernel model pins one software thread per core).
     * @param on_done host callback at thread exit
     */
    void runThread(ThreadContext &tc, sim::GuestTask task,
                   std::function<void()> on_done = {});

    bool busy() const { return running_; }

    // CoreModel interface.
    void onOpDeclared(ThreadContext &tc) override;
    void onThreadDone(ThreadContext &tc) override;

  private:
    void issue(ThreadContext &tc);
    void doSyscall(ThreadContext &tc);
    void pollHostWait(ThreadContext &tc);

    sim::EventQueue *eq_;
    CpuCoreConfig cfg_;
    sim::ClockDomain clock_;
    MemPath mem_;
    noc::Network *net_;
    noc::NodeId node_;
    MifdPort mifd_;

    bool running_ = false;
    std::function<void()> onDone_;
    Tick nextIssue_ = 0;

    sim::Counter &instructions_;
    sim::Counter &memOps_;
    sim::Counter &syscalls_;

    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::core

#endif // CCSVM_CORE_CPU_CORE_HH
