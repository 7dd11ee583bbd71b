/**
 * @file
 * Translation lookaside buffer: 64-entry, fully associative, true LRU
 * (Table 2, for both CPU and MTTOP cores). The entries live in one
 * flat array of at most `entries` slots; every hit or insert stamps its
 * slot from a strictly increasing clock, so the oldest stamp is exactly
 * the true-LRU victim. At 64 entries a scan of the array costs about
 * what a hash lookup does, with no per-entry allocation and no second
 * structure to keep in step.
 *
 * Each entry carries the page's region attribute alongside the
 * translation (region-based coherence: the core stamps every memory
 * request with the attribute so the L1 can bypass or override the
 * cluster protocol per region).
 *
 * TLB coherence follows the paper's conservative choice (Sec. 3.2.1):
 * CPU-initiated shootdowns flush MTTOP TLBs entirely; CPU TLBs
 * invalidate the affected translation.
 */

#ifndef CCSVM_VM_TLB_HH
#define CCSVM_VM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "coherence/types.hh"
#include "mem/phys_mem.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"

namespace ccsvm::vm
{

/** One TLB translation as handed to the core. */
struct TlbEntry
{
    Addr frame = 0;
    bool writable = false;
    coherence::RegionAttr attr = coherence::RegionAttr::Coherent;
    coherence::Protocol prot{}; ///< valid when attr == ProtocolOverride
};

/** One core-private TLB. */
class Tlb
{
  public:
    Tlb(sim::StatRegistry &stats, const std::string &name,
        unsigned entries = 64)
        : entries_(entries),
          hits_(stats.counter(name + ".hits", "TLB hits")),
          misses_(stats.counter(name + ".misses", "TLB misses")),
          flushes_(stats.counter(name + ".flushes",
                                 "whole-TLB flushes"))
    {
        slots_.reserve(entries);
    }

    /**
     * Look up the translation for @p va.
     * @return true and fill @p out on a hit.
     */
    bool
    lookup(VAddr va, TlbEntry &out)
    {
        Slot *s = find(va >> mem::pageShift);
        if (!s) {
            ++misses_;
            return false;
        }
        ++hits_;
        s->lastUse = ++clock_;
        out = s->entry;
        return true;
    }

    /** Install a translation, evicting true-LRU if full. */
    void
    insert(VAddr va, const TlbEntry &entry)
    {
        const VAddr vpn = va >> mem::pageShift;
        Slot *s = find(vpn);
        if (!s && slots_.size() < entries_) {
            s = &slots_.emplace_back();
        } else if (!s) {
            // Evict the least recently used entry: the oldest stamp.
            s = &slots_.front();
            for (Slot &c : slots_) {
                if (c.lastUse < s->lastUse)
                    s = &c;
            }
        }
        *s = Slot{vpn, entry, ++clock_};
    }

    /** Invalidate one translation (x86 invlpg). */
    void
    invalidate(VAddr va)
    {
        if (Slot *s = find(va >> mem::pageShift)) {
            *s = slots_.back();
            slots_.pop_back();
        }
    }

    /** Flush everything (MTTOP shootdown policy; CR3 switch). */
    void
    flushAll()
    {
        ++flushes_;
        slots_.clear();
    }

    std::size_t size() const { return slots_.size(); }

    std::uint64_t flushes() const { return flushes_.value(); }

  private:
    struct Slot
    {
        VAddr vpn = 0;
        TlbEntry entry;
        std::uint64_t lastUse = 0; ///< recency stamp, unique per slot
    };

    Slot *
    find(VAddr vpn)
    {
        for (Slot &s : slots_) {
            if (s.vpn == vpn)
                return &s;
        }
        return nullptr;
    }

    unsigned entries_;
    /** The live translations, in no particular order. */
    std::vector<Slot> slots_;
    /** Source of the strictly increasing recency stamps. */
    std::uint64_t clock_ = 0;

    sim::Counter &hits_;
    sim::Counter &misses_;
    sim::Counter &flushes_;
};

} // namespace ccsvm::vm

#endif // CCSVM_VM_TLB_HH
