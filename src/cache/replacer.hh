/**
 * @file
 * Pluggable replacement policy for the set-associative cache arrays.
 *
 * CacheArray baked in true LRU; this file factors victim selection
 * into a Replacer policy the array consults via findVictim, with one
 * policy per kind:
 *
 *   lru     least-recently-used (default; byte-identical to the
 *           pre-seam array: strict < scan in way order over the same
 *           use clock)
 *   fifo    oldest allocation wins, touches don't refresh
 *   rand    uniform among candidates from a deterministic per-set
 *           LCG seeded from config — the same victim sequence
 *           across runs
 *   region  prefer evicting lines a workload marked as belonging to
 *           a non-default VM region class (bypass-adjacent or
 *           protocol-override/read-mostly data), falling back to LRU
 *           among them and, when the set holds only default-class
 *           lines, to plain LRU — keeping hard-earned coherent lines
 *           resident at the expense of hinted ones
 *
 * The policy sees only per-way metadata (WayMeta), not line types, so
 * it is unit-testable without a cache and shared by every LineT
 * instantiation. Lines opt into region preference by exposing
 * `bool evictPreferred() const`; arrays of lines without it simply
 * never set the flag (region degrades to lru).
 */

#ifndef CCSVM_CACHE_REPLACER_HH
#define CCSVM_CACHE_REPLACER_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ccsvm::cache
{

/** Selectable replacement policies. */
enum class ReplacerKind : std::uint8_t
{
    Lru,
    Fifo,
    Rand,
    Region,
};

/** Every selectable replacer, in enum order. The driver's
 * --list-replacers, its usage/error text and CI's replacer loops all
 * derive from this table, so adding a policy extends them all. */
inline constexpr std::array<ReplacerKind, 4> allReplacers = {
    ReplacerKind::Lru, ReplacerKind::Fifo, ReplacerKind::Rand,
    ReplacerKind::Region};

/** Lower-case policy name ("lru", "fifo", "rand", "region"). */
const char *replacerName(ReplacerKind k);

/** Every policy name joined with @p sep (usage and error text). */
std::string replacerNameList(std::string_view sep = ", ");

/** Parse a policy name (case-insensitive); false on unknown. */
bool replacerFromName(std::string_view name, ReplacerKind &out);

/** What a replacement policy may know about one way of a set. */
struct WayMeta
{
    bool candidate = false;   ///< valid and evictable right now
    bool preferEvict = false; ///< line volunteers itself (region class)
    std::uint64_t lastUse = 0;  ///< array use clock at last touch
    std::uint64_t allocSeq = 0; ///< array alloc clock at allocation
};

/**
 * Victim selection over one set's way metadata. Owned per CacheArray,
 * so the rand policy's per-set LCG state is private to the array and
 * the sequence is deterministic.
 */
class Replacer
{
  public:
    explicit Replacer(ReplacerKind kind = ReplacerKind::Lru,
                      std::uint64_t seed = 0)
        : kind_(kind), seed_(seed)
    {}

    ReplacerKind kindOf() const { return kind_; }
    const char *name() const { return replacerName(kind_); }

    /**
     * Way index to evict among @p metas[0..assoc), or -1 when no way
     * is a candidate. @p set identifies the set for stateful policies.
     */
    int victimWay(const WayMeta *metas, unsigned assoc, unsigned set);

  private:
    ReplacerKind kind_;
    std::uint64_t seed_;
    std::vector<std::uint64_t> rng_; ///< per-set LCG state (rand)
};

} // namespace ccsvm::cache

#endif // CCSVM_CACHE_REPLACER_HH
