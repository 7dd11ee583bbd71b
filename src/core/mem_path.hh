/**
 * @file
 * The translate-and-issue path of every load, store and atomic. Each
 * CPU and MTTOP core has its own TLB and page walker (Sec. 3.2.1), so
 * both core models own one MemPath: TLB lookup, a timed walk on a
 * miss, the page's region attribute stamped into the new entry, and a
 * MemRequest to the core's L1. The only per-core input is where a true
 * page fault goes: a CPU core traps to the kernel, an MTTOP core
 * relays it to a CPU through the MIFD. The op then retries.
 */

#ifndef CCSVM_CORE_MEM_PATH_HH
#define CCSVM_CORE_MEM_PATH_HH

#include <functional>
#include <string>

#include "coherence/l1_cache.hh"
#include "core/thread_context.hh"
#include "mem/dram.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace ccsvm::core
{

/**
 * An uncacheable physical window (the APU's pinned zero-copy region):
 * accesses bypass the cache hierarchy and go straight to DRAM with
 * 64-byte write-combining / read-buffering, as on Llano's
 * high-bandwidth uncacheable path (paper Sec. 2.3).
 */
struct UncachedWindow
{
    Addr base = 0;
    Addr size = 0; ///< zero disables the window
    mem::PhysMem *phys = nullptr;
    mem::DramCtrl *dram = nullptr;
    Tick writePostLatency = 8 * tickNs; ///< posted WC store
    Tick readHitLatency = 5 * tickNs;   ///< same-block buffered read

    bool
    contains(Addr pa) const
    {
        return size != 0 && pa >= base && pa < base + size;
    }
};

/** One core's TLB, walker and L1 port. */
class MemPath
{
  public:
    /** Services a true page fault at @p va in @p proc and calls
     * @p retry once the page is mapped. */
    using FaultHandler =
        std::function<void(runtime::Process &proc, vm::VAddr va,
                           std::function<void()> retry)>;

    /**
     * @param name       the owning core's stats prefix
     * @param fault_desc description of the core's pageFaults counter
     */
    MemPath(sim::EventQueue &eq, sim::StatRegistry &stats,
            const std::string &name, unsigned tlb_entries,
            coherence::L1Controller &l1, vm::Walker &walker,
            const char *fault_desc, FaultHandler on_fault);

    vm::Tlb &tlb() { return tlb_; }

    /** Enable the uncacheable pinned window (APU CPU cores). */
    void setUncachedWindow(UncachedWindow w) { uncached_ = w; }

    /** Translate @p tc's pending load, store or atomic and issue it;
     * the op completes through tc.completeOp. */
    void translateAndAccess(ThreadContext &tc);

  private:
    void accessMemory(ThreadContext &tc, const vm::TlbEntry &te);
    void accessUncached(ThreadContext &tc, Addr paddr);

    sim::EventQueue *eq_;
    vm::Tlb tlb_;
    vm::Walker *walker_;
    coherence::L1Controller *l1_;
    sim::Counter &faults_;
    FaultHandler onFault_;

    UncachedWindow uncached_;
    Addr wcBlock_ = invalidAddr; ///< write-combining buffer tag
    Addr rdBlock_ = invalidAddr; ///< uncached read-buffer tag
};

} // namespace ccsvm::core

#endif // CCSVM_CORE_MEM_PATH_HH
