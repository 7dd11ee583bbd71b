/**
 * @file
 * Minimal operating-system model.
 *
 * The paper runs "unmodified Linux 2.6 with the addition of our simple
 * MIFD driver (~30 lines of C code)". We model the slice of the OS the
 * evaluation actually exercises: physical frame allocation, per-process
 * address spaces with lazy page allocation, the page-fault service path
 * (with a kernel-entry cost and a single kernel lock serializing
 * faults), virtual-region management for the guest heap/stacks, and
 * TLB shootdown (CPU IPIs; MTTOP TLBs are flushed wholesale via the
 * MIFD, Sec. 3.2.1).
 */

#ifndef CCSVM_VM_KERNEL_HH
#define CCSVM_VM_KERNEL_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/intmath.hh"
#include "base/types.hh"
#include "mem/phys_mem.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace ccsvm::vm
{

/** Kernel cost model. */
struct KernelConfig
{
    /** Trap + handler + return for a minor (lazy-alloc) fault. */
    Tick pageFaultLatency = 1500 * tickNs;
    /** Cost of one shootdown IPI round to the CPU cores. */
    Tick shootdownLatency = 4000 * tickNs;
};

/** Virtual address space layout constants for guest processes. */
struct AddressLayout
{
    static constexpr VAddr globalsBase = 0x0000'1000'0000ull;
    static constexpr VAddr heapBase = 0x0000'2000'0000ull;
    static constexpr VAddr heapLimit = 0x0000'6000'0000ull;
    static constexpr VAddr stacksBase = 0x0000'7000'0000ull;
    static constexpr VAddr stackSize = 64 * 1024;
};

class Kernel;

/** One process's virtual address space. */
class AddressSpace
{
  public:
    AddressSpace(mem::PhysMem &phys, FrameAllocator &frames)
        : pageTable_(phys, frames)
    {}

    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }

    /** CR3 for this process. */
    Addr cr3() const { return pageTable_.root(); }

    /**
     * Reserve a virtual region (no frames yet: lazy allocation).
     * @throws std::length_error when the guest heap cannot hold
     * @p bytes more; the heap is left unchanged.
     */
    VAddr
    reserve(Addr bytes)
    {
        // The room left is page-aligned, so comparing before rounding
        // is exact, and a huge request cannot wrap the rounding.
        if (bytes > AddressLayout::heapLimit - heapBrk_) {
            throw std::length_error(
                "guest heap exhausted: " + std::to_string(bytes) +
                " bytes requested, " +
                std::to_string(AddressLayout::heapLimit - heapBrk_) +
                " left");
        }
        const Addr aligned = roundUp(bytes, mem::pageBytes);
        const VAddr va = heapBrk_;
        heapBrk_ += aligned;
        return va;
    }

    VAddr heapBrk() const { return heapBrk_; }

    // --- region-based coherence (attrs ride in the TLB) -------------

    /** Declare a page-aligned region with a coherence attribute. */
    void addRegion(MemRegion r) { regions_.add(std::move(r)); }

    /** The region covering @p va, or nullptr (default coherent). */
    const MemRegion *
    regionFor(VAddr va) const
    {
        return regions_.find(va);
    }

    const RegionMap &regions() const { return regions_; }

  private:
    PageTable pageTable_;
    RegionMap regions_;
    VAddr heapBrk_ = AddressLayout::heapBase;
};

/** The OS kernel model: one instance per machine. */
class Kernel
{
  public:
    Kernel(sim::EventQueue &eq, sim::StatRegistry &stats,
           mem::PhysMem &phys, const KernelConfig &cfg,
           Addr frame_pool_base, Addr frame_pool_size)
        : eq_(&eq), cfg_(cfg), phys_(&phys),
          frames_(frame_pool_base, frame_pool_size),
          faults_(stats.counter("kernel.pageFaults",
                                "page faults serviced")),
          shootdowns_(stats.counter("kernel.shootdowns",
                                    "TLB shootdowns issued")),
          trc_(stats.tracer()), lane_(stats.tracer().lane("kernel"))
    {}

    FrameAllocator &frames() { return frames_; }

    std::unique_ptr<AddressSpace>
    createAddressSpace()
    {
        return std::make_unique<AddressSpace>(*phys_, frames_);
    }

    /** Register a CPU TLB (receives precise invalidations). */
    void registerCpuTlb(Tlb *tlb) { cpuTlbs_.push_back(tlb); }

    /** Register an MTTOP TLB (flushed wholesale on shootdown). */
    void registerMttopTlb(Tlb *tlb) { mttopTlbs_.push_back(tlb); }

    /**
     * Service a page fault at @p va: allocate a zeroed frame and map
     * it. Faults are serialized by the kernel lock; @p on_done runs
     * once the handler completes.
     *
     * The fault may be raised by a CPU core directly or relayed from
     * an MTTOP core through the MIFD interrupt (the MIFD adds its own
     * relay latency before calling this).
     */
    void
    handlePageFault(AddressSpace &as, VAddr va,
                    std::function<void()> on_done)
    {
        // Coalesce concurrent faulters on the same page: only the
        // first pays the full handler; the rest block on the page-
        // table lock and retry together once the mapping exists —
        // without this, a fresh page touched by hundreds of MTTOP
        // threads at once serializes into a fault storm no real OS
        // exhibits.
        const VAddr page = va >> mem::pageShift;
        const auto key = std::make_pair(&as, page);
        auto it = waiting_.find(key);
        if (it != waiting_.end()) {
            it->second.push_back(std::move(on_done));
            return;
        }
        waiting_[key].push_back(std::move(on_done));
        faultQueue_.push_back(Fault{&as, va});
        if (!faultInService_)
            serviceNextFault();
    }

    /**
     * Unmap @p va's page and run a TLB shootdown: precise invalidation
     * at CPU TLBs, full flush of all MTTOP TLBs (the paper's
     * conservative policy). Frees the frame.
     */
    void
    unmapAndShootdown(AddressSpace &as, VAddr va,
                      std::function<void()> on_done)
    {
        ++shootdowns_;
        if (trc_.enabled(sim::traceVm))
            trc_.complete(sim::traceVm, lane_, "shootdown",
                          eq_->now(),
                          eq_->now() + cfg_.shootdownLatency, va);
        WalkResult r = as.pageTable().walk(va);
        if (r.present) {
            as.pageTable().unmap(va);
            frames_.free(r.frame);
        }
        for (Tlb *tlb : cpuTlbs_)
            tlb->invalidate(va);
        for (Tlb *tlb : mttopTlbs_)
            tlb->flushAll();
        eq_->scheduleIn(cfg_.shootdownLatency, std::move(on_done));
    }

    std::uint64_t pageFaults() const { return faults_.value(); }

  private:
    struct Fault
    {
        AddressSpace *as;
        VAddr va;
    };

    void
    serviceNextFault()
    {
        if (faultQueue_.empty()) {
            faultInService_ = false;
            return;
        }
        faultInService_ = true;
        Fault f = faultQueue_.front();
        faultQueue_.pop_front();

        const Tick t0 = eq_->now();
        eq_->scheduleIn(cfg_.pageFaultLatency, [this, f, t0] {
            if (trc_.enabled(sim::traceKernel))
                trc_.complete(sim::traceKernel, lane_, "pageFault",
                              t0, eq_->now(), f.va);
            // Lazy allocation: a fresh zeroed frame, writable.
            WalkResult r = f.as->pageTable().walk(f.va);
            if (!r.present) {
                ++faults_;
                const Addr frame = frames_.alloc();
                f.as->pageTable().map(f.va, frame, true);
            }
            // Wake every thread that faulted on this page.
            const VAddr page = f.va >> mem::pageShift;
            auto it = waiting_.find(std::make_pair(f.as, page));
            ccsvm_assert(it != waiting_.end(),
                         "fault service lost its waiters");
            auto callbacks = std::move(it->second);
            waiting_.erase(it);
            for (auto &cb : callbacks)
                cb();
            serviceNextFault();
        });
    }

    sim::EventQueue *eq_;
    KernelConfig cfg_;
    mem::PhysMem *phys_;
    FrameAllocator frames_;
    std::vector<Tlb *> cpuTlbs_;
    std::vector<Tlb *> mttopTlbs_;

    std::deque<Fault> faultQueue_;
    /** Faulters blocked per (address space, page). */
    std::map<std::pair<AddressSpace *, VAddr>,
             std::vector<std::function<void()>>>
        waiting_;
    bool faultInService_ = false;

    sim::Counter &faults_;
    sim::Counter &shootdowns_;
    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::vm

#endif // CCSVM_VM_KERNEL_HH
