/**
 * @file
 * Single-Writer / Multiple-Reader invariant monitor.
 *
 * "Protocols commonly enforce the 'single writer or multiple readers'
 * (SWMR) invariant" (paper Sec. 3.2.2, citing Sorin/Hill/Wood). The
 * monitor shadows every L1's permission for every block and panics the
 * moment two caches could disagree — it is the protocol's executable
 * specification, enabled in tests and debug builds.
 */

#ifndef CCSVM_COHERENCE_MONITOR_HH
#define CCSVM_COHERENCE_MONITOR_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "base/types.hh"
#include "coherence/types.hh"

namespace ccsvm::coherence
{

/** Tracks which L1s hold which blocks in which states. */
class SwmrMonitor
{
  public:
    /** Record that L1 @p id now holds @p block_addr in @p s. */
    void onSetState(L1Id id, Addr block_addr, CohState s);

    /** Record that L1 @p id dropped @p block_addr. */
    void onDrop(L1Id id, Addr block_addr);

    /** Number of L1s currently holding @p block_addr (any state). */
    unsigned holders(Addr block_addr) const;

    /** Verify the global invariant for one block (also done on every
     * update); exposed for tests. */
    void check(Addr block_addr) const;

    /** Blocks held by at least one L1. A block no L1 holds is
     * forgotten, so this returns to 0 once every copy is dropped. */
    std::size_t trackedBlocks() const { return blocks_.size(); }

  private:
    struct BlockInfo
    {
        std::uint64_t readers = 0; ///< bit i = L1 i holds S or O
        L1Id writer = noL1;        ///< E or M holder
        L1Id owner = noL1;         ///< O holder (also in readers)
    };

    static void check(Addr block_addr, const BlockInfo &info);

    std::unordered_map<Addr, BlockInfo> blocks_;
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_MONITOR_HH
