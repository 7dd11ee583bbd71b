/**
 * @file
 * Hardware page-table walker with a small page-walk cache.
 *
 * On a TLB miss the walker performs the four dependent PTE reads of
 * the x86-style table. Timing: each PTE read hits the page-walk cache
 * (charged at shared-L2 latency) or goes off-chip (charged and counted
 * at the DRAM controller). PTE data itself is read functionally from
 * simulated physical memory; page tables are kernel-managed and are
 * never cached dirty in L1s, so PhysMem is authoritative for them
 * (design decision documented in DESIGN.md).
 */

#ifndef CCSVM_VM_WALKER_HH
#define CCSVM_VM_WALKER_HH

#include <functional>
#include <string>
#include <unordered_map>

#include "base/types.hh"
#include "mem/dram.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"

namespace ccsvm::vm
{

/** Walker timing parameters. */
struct WalkerConfig
{
    Tick pwcHitLatency = 3450;   ///< page-walk-cache hit ~ L2 latency
    unsigned pwcEntries = 16;    ///< cached PTE lines
    Tick sharedHitLatency = 3450; ///< PTE line resident in shared L2
};

/**
 * Machine-wide model of PTE lines resident in the shared cache
 * hierarchy: after any core's walker fetches a PTE line, other cores
 * find it on-chip instead of re-reading DRAM (in the paper's chip the
 * walkers' fills land in the inclusive shared L2). Bounded LRU.
 */
class PteLineFilter
{
  public:
    explicit PteLineFilter(unsigned entries = 512)
        : entries_(entries)
    {}

    bool
    lookup(Addr line)
    {
        auto it = map_.find(line);
        if (it == map_.end())
            return false;
        it->second = ++useClock_;
        return true;
    }

    void
    insert(Addr line)
    {
        if (map_.size() >= entries_ &&
            map_.find(line) == map_.end()) {
            auto lru = map_.begin();
            for (auto it = map_.begin(); it != map_.end(); ++it) {
                if (it->second < lru->second)
                    lru = it;
            }
            map_.erase(lru);
        }
        map_[line] = ++useClock_;
    }

  private:
    unsigned entries_;
    std::unordered_map<Addr, std::uint64_t> map_;
    std::uint64_t useClock_ = 0;
};

/** Per-core hardware page table walker. */
class Walker
{
  public:
    Walker(sim::EventQueue &eq, sim::StatRegistry &stats,
           const std::string &name, const WalkerConfig &cfg,
           mem::DramCtrl &dram, PteLineFilter *shared = nullptr)
        : eq_(&eq), cfg_(cfg), dram_(&dram), shared_(shared),
          walks_(stats.counter(name + ".walks", "page walks started")),
          pwcHits_(stats.counter(name + ".pwcHits",
                                 "PTE reads served by walk cache")),
          sharedHits_(stats.counter(name + ".sharedHits",
                                    "PTE reads served by the shared "
                                    "cache")),
          pwcMisses_(stats.counter(name + ".pwcMisses",
                                   "PTE reads fetched off-chip")),
          trc_(stats.tracer()), lane_(stats.tracer().lane(name))
    {}

    /**
     * Perform a timed walk of @p va in @p pt.
     * @param on_done receives the functional walk result once the
     *        dependent PTE reads have been charged.
     */
    void
    walk(const PageTable &pt, VAddr va,
         std::function<void(WalkResult)> on_done)
    {
        ++walks_;
        WalkResult r = pt.walk(va);
        stepWalk(r, 0, std::move(on_done));
    }

  private:
    void
    stepWalk(WalkResult r, unsigned lvl,
             std::function<void(WalkResult)> on_done)
    {
        if (lvl >= r.levelsTouched) {
            on_done(r);
            return;
        }
        const Addr line = mem::blockAlign(r.pteAddrs[lvl]);
        if (pwcLookup(line)) {
            ++pwcHits_;
            eq_->scheduleIn(cfg_.pwcHitLatency,
                            [this, r, lvl,
                             on_done = std::move(on_done)]() mutable {
                                stepWalk(r, lvl + 1,
                                         std::move(on_done));
                            });
        } else if (shared_ && shared_->lookup(line)) {
            // Another core's walk left this PTE line in the shared
            // cache hierarchy: on-chip hit.
            ++sharedHits_;
            pwcInsert(line);
            eq_->scheduleIn(cfg_.sharedHitLatency,
                            [this, r, lvl,
                             on_done = std::move(on_done)]() mutable {
                                stepWalk(r, lvl + 1,
                                         std::move(on_done));
                            });
        } else {
            ++pwcMisses_;
            dram_->access(false, mem::blockBytes,
                          [this, r, lvl, line,
                           on_done = std::move(on_done)]() mutable {
                              pwcInsert(line);
                              if (shared_)
                                  shared_->insert(line);
                              stepWalk(r, lvl + 1,
                                       std::move(on_done));
                          });
        }
    }

    bool
    pwcLookup(Addr line)
    {
        auto it = pwc_.find(line);
        if (it == pwc_.end())
            return false;
        it->second = ++useClock_;
        return true;
    }

    void
    pwcInsert(Addr line)
    {
        if (pwc_.size() >= cfg_.pwcEntries &&
            pwc_.find(line) == pwc_.end()) {
            auto lru = pwc_.begin();
            for (auto it = pwc_.begin(); it != pwc_.end(); ++it) {
                if (it->second < lru->second)
                    lru = it;
            }
            pwc_.erase(lru);
        }
        pwc_[line] = ++useClock_;
    }

    sim::EventQueue *eq_;
    WalkerConfig cfg_;
    mem::DramCtrl *dram_;
    PteLineFilter *shared_;
    std::unordered_map<Addr, std::uint64_t> pwc_;
    std::uint64_t useClock_ = 0;

    sim::Counter &walks_;
    sim::Counter &pwcHits_;
    sim::Counter &sharedHits_;
    sim::Counter &pwcMisses_;
    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::vm

#endif // CCSVM_VM_WALKER_HH
