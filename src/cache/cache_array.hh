/**
 * @file
 * Generic set-associative cache array with pluggable replacement
 * (true LRU by default; see cache/replacer.hh).
 *
 * The array stores protocol-specific line types (L1 lines carry MOESI
 * state, L2 lines carry directory state); it owns only geometry,
 * lookup, allocation and victim selection. Lines carry real 64-byte
 * data blocks — the coherence protocol is functionally load-bearing.
 *
 * Storage comes in chunks of a few sets, allocated when a line is
 * first placed in one of their sets. A machine then pays host memory
 * and construction time only for the sets its workload touches, and
 * every chunk of an array has one small size, so machines built one
 * after another in a process reuse each other's freed chunks instead
 * of fragmenting the heap with megabyte-sized arrays.
 */

#ifndef CCSVM_CACHE_CACHE_ARRAY_HH
#define CCSVM_CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "cache/replacer.hh"
#include "mem/phys_mem.hh"

namespace ccsvm::cache
{

/**
 * Set-associative array of LineT.
 *
 * LineT must provide members: `Addr addr`, `bool valid`. The array
 * addresses lines by aligned block address.
 */
template <typename LineT>
class CacheArray
{
  public:
    CacheArray(Addr size_bytes, unsigned assoc,
               ReplacerKind replacer = ReplacerKind::Lru,
               std::uint64_t replace_seed = 0)
        : assoc_(assoc),
          numSets_(static_cast<unsigned>(
              size_bytes / mem::blockBytes / assoc)),
          replacer_(replacer, replace_seed)
    {
        ccsvm_assert(assoc >= 1, "associativity must be >= 1");
        ccsvm_assert(isPowerOf2(numSets_),
                     "cache must have a power-of-two set count "
                     "(size=%llu assoc=%u)",
                     (unsigned long long)size_bytes, assoc);
        chunkSets_ = std::min(numSets_, kChunkSets);
        chunks_.resize(numSets_ / chunkSets_);
        metas_.resize(assoc_);
    }

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    unsigned
    setIndex(Addr block_addr) const
    {
        return static_cast<unsigned>(
            (block_addr >> mem::blockShift) & (numSets_ - 1));
    }

    /** Find the line holding @p block_addr, or nullptr. */
    LineT *
    lookup(Addr block_addr)
    {
        Way *set = setWays(setIndex(block_addr));
        if (!set)
            return nullptr;
        for (unsigned i = 0; i < assoc_; ++i) {
            if (set[i].line.valid && set[i].line.addr == block_addr)
                return &set[i].line;
        }
        return nullptr;
    }

    /** Mark @p line most-recently used. */
    void
    touch(LineT *line)
    {
        wayOf(line).lastUse = ++useClock_;
    }

    /**
     * Claim an invalid way in @p block_addr's set and initialize its
     * tag. Returns nullptr if the set has no invalid way (the caller
     * must make room by evicting a victim first).
     */
    LineT *
    allocate(Addr block_addr)
    {
        const unsigned set_idx = setIndex(block_addr);
        std::unique_ptr<Way[]> &chunk = chunks_[set_idx / chunkSets_];
        if (!chunk)
            chunk = std::make_unique<Way[]>(chunkWays());
        Way *set = setWays(set_idx);
        for (unsigned i = 0; i < assoc_; ++i) {
            if (!set[i].line.valid) {
                set[i].line = LineT{};
                set[i].line.valid = true;
                set[i].line.addr = block_addr;
                set[i].lastUse = ++useClock_;
                set[i].allocSeq = ++allocClock_;
                return &set[i].line;
            }
        }
        return nullptr;
    }

    /**
     * Replacement-policy victim in @p block_addr's set among the
     * valid lines for which @p evictable returns true; nullptr if
     * none qualifies. The default lru policy picks the
     * least-recently-used such line, byte-identical to the pre-seam
     * array (strict < scan in way order over the same use clock).
     */
    template <typename Pred>
    LineT *
    findVictim(Addr block_addr, Pred &&evictable)
    {
        Way *set = setWays(setIndex(block_addr));
        if (!set)
            return nullptr; // no line was ever placed in this set
        for (unsigned i = 0; i < assoc_; ++i) {
            const Way &w = set[i];
            WayMeta &m = metas_[i];
            m.candidate = w.line.valid && evictable(w.line);
            m.preferEvict = false;
            // Lines opt into the region policy's preference by
            // exposing evictPreferred(); other line types never
            // volunteer, so region degrades to lru for them.
            if constexpr (requires { w.line.evictPreferred(); })
                m.preferEvict = m.candidate && w.line.evictPreferred();
            m.lastUse = w.lastUse;
            m.allocSeq = w.allocSeq;
        }
        const int way = replacer_.victimWay(metas_.data(), assoc_,
                                            setIndex(block_addr));
        return way < 0 ? nullptr : &set[way].line;
    }

    /** Drop @p line from the array. */
    void
    invalidate(LineT *line)
    {
        line->valid = false;
    }

    /** Visit every valid line. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &chunk : chunks_) {
            for (std::size_t i = 0; chunk && i < chunkWays(); ++i) {
                if (chunk[i].line.valid)
                    fn(chunk[i].line);
            }
        }
    }

    /** Number of currently valid lines (for tests). */
    unsigned
    countValid() const
    {
        unsigned n = 0;
        for (const auto &chunk : chunks_) {
            for (std::size_t i = 0; chunk && i < chunkWays(); ++i)
                n += chunk[i].line.valid;
        }
        return n;
    }

  private:
    struct Way
    {
        LineT line{};
        std::uint64_t lastUse = 0;
        std::uint64_t allocSeq = 0;
    };

    /** Sets per storage chunk (fewer when the array is smaller). */
    static constexpr unsigned kChunkSets = 16;

    std::size_t
    chunkWays() const
    {
        return static_cast<std::size_t>(chunkSets_) * assoc_;
    }

    /** The ways of set @p set, or nullptr while its chunk is
     * unallocated (every line in it invalid). */
    Way *
    setWays(unsigned set) const
    {
        Way *chunk = chunks_[set / chunkSets_].get();
        return chunk ? chunk + static_cast<std::size_t>(
                                   set % chunkSets_) * assoc_
                     : nullptr;
    }

    Way &
    wayOf(LineT *line)
    {
        // Lines live inside a chunk's Ways; recover the Way via
        // offset math.
        auto *way = reinterpret_cast<Way *>(
            reinterpret_cast<char *>(line) - offsetof(Way, line));
        return *way;
    }

    unsigned assoc_;
    unsigned numSets_;
    unsigned chunkSets_;
    std::uint64_t useClock_ = 0;
    std::uint64_t allocClock_ = 0;
    Replacer replacer_;
    std::vector<std::unique_ptr<Way[]>> chunks_;
    std::vector<WayMeta> metas_; ///< per-set scratch for findVictim
};

} // namespace ccsvm::cache

#endif // CCSVM_CACHE_CACHE_ARRAY_HH
