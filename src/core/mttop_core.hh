/**
 * @file
 * MTTOP (massively-threaded throughput-oriented) core model.
 *
 * Table 2: "10 MTTOP cores with Alpha-like ISA, 600 MHz. Each MTTOP
 * core supports 128 threads and can simultaneously execute 8 threads"
 * for a combined max of 80 operations per cycle. The model is SIMT at
 * the throughput level: up to issueWidth ready threads advance one
 * operation per core cycle; a compute batch occupies its thread for
 * its instruction count in cycles. Atomics go through the core's L1
 * after acquiring exclusive coherence permission (Sec. 3.2.4). The
 * TLB is per-core; a page fault interrupts a CPU core through the
 * MIFD (Sec. 3.2.1). A CR3 switch (task from a different process)
 * flushes the TLB.
 */

#ifndef CCSVM_CORE_MTTOP_CORE_HH
#define CCSVM_CORE_MTTOP_CORE_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "coherence/l1_cache.hh"
#include "core/thread_context.hh"
#include "runtime/process.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace ccsvm::core
{

/** MTTOP core timing parameters. */
struct MttopCoreConfig
{
    Tick clockPeriod = 1667;   ///< 600 MHz
    unsigned issueWidth = 8;   ///< thread-ops per cycle
    unsigned numContexts = 128;
    unsigned tlbEntries = 64;
};

/** One MTTOP core. */
class MttopCore : public CoreModel
{
  public:
    MttopCore(sim::EventQueue &eq, sim::StatRegistry &stats,
              const std::string &name, const MttopCoreConfig &cfg,
              coherence::L1Controller &l1, vm::Walker &walker,
              vm::Kernel &kernel);

    /** Wire up the MIFD for fault relay and context accounting;
     * @p port is this core's index at the device. */
    void
    connectMifd(MifdIface *mifd, unsigned port = 0)
    {
        mifd_ = mifd;
        mifdPort_ = port;
    }

    unsigned freeContexts() const { return freeSlots_; }
    unsigned totalContexts() const { return cfg_.numContexts; }

    /**
     * Trace-capture hook: resolves the op sink for a freshly assigned
     * thread (keyed by its task's captureId and tid). While set, every
     * assignChunk consults it; a null hook (or a null result) leaves
     * the context sink-free.
     */
    using CaptureHook =
        std::function<OpSink *(const TaskDescriptor &, ThreadId)>;
    void setCaptureHook(CaptureHook hook)
    {
        captureHook_ = std::move(hook);
    }

    /**
     * Accept a SIMD-width chunk of threads [first, first+count) of a
     * task; called by the MIFD after dispatch.
     */
    void assignChunk(std::shared_ptr<TaskDescriptor> desc,
                     ThreadId first, unsigned count,
                     std::shared_ptr<TaskState> state);

    // CoreModel interface.
    void onOpDeclared(ThreadContext &tc) override;
    void onThreadDone(ThreadContext &tc) override;

  private:
    struct Slot
    {
        ThreadContext tc;
        bool inUse = false;
        std::shared_ptr<TaskDescriptor> desc;
        std::shared_ptr<TaskState> state;
    };

    void scheduleCycle();
    void cycle();
    void processOp(ThreadContext &tc);
    void translateAndAccess(ThreadContext &tc);
    void accessMemory(ThreadContext &tc, Addr paddr,
                      const vm::TlbEntry &te);

    sim::EventQueue *eq_;
    MttopCoreConfig cfg_;
    sim::ClockDomain clock_;
    coherence::L1Controller *l1_;
    vm::Walker *walker_;
    vm::Tlb tlb_;
    MifdIface *mifd_ = nullptr;
    unsigned mifdPort_ = 0;
    CaptureHook captureHook_;

    std::vector<std::unique_ptr<Slot>> slots_;
    unsigned freeSlots_;
    std::deque<ThreadContext *> ready_;
    bool cycleScheduled_ = false;
    runtime::Process *currentProcess_ = nullptr;

    sim::Counter &instructions_;
    sim::Counter &memOps_;
    sim::Counter &threadsRun_;
    sim::Counter &faults_;
    sim::Counter &cr3Switches_;
};

} // namespace ccsvm::core

#endif // CCSVM_CORE_MTTOP_CORE_HH
