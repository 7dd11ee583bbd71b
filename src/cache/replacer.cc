#include "cache/replacer.hh"

#include <cctype>

namespace ccsvm::cache
{

namespace
{

/** LRU scan restricted to ways passing @p want; strict < in way
 * order, the exact tie-break of the pre-seam array. */
int
lruScan(const WayMeta *metas, unsigned assoc,
        bool (*want)(const WayMeta &))
{
    int victim = -1;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (unsigned i = 0; i < assoc; ++i) {
        if (want(metas[i]) && metas[i].lastUse < oldest) {
            oldest = metas[i].lastUse;
            victim = static_cast<int>(i);
        }
    }
    return victim;
}

} // namespace

const char *
replacerName(ReplacerKind k)
{
    switch (k) {
      case ReplacerKind::Lru: return "lru";
      case ReplacerKind::Fifo: return "fifo";
      case ReplacerKind::Rand: return "rand";
      case ReplacerKind::Region: return "region";
    }
    return "?";
}

std::string
replacerNameList(std::string_view sep)
{
    std::string out;
    for (const ReplacerKind k : allReplacers) {
        if (!out.empty())
            out += sep;
        out += replacerName(k);
    }
    return out;
}

bool
replacerFromName(std::string_view name, ReplacerKind &out)
{
    std::string lower;
    lower.reserve(name.size());
    for (const char ch : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch))));
    for (const ReplacerKind k : allReplacers) {
        if (lower == replacerName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

int
Replacer::victimWay(const WayMeta *metas, unsigned assoc, unsigned set)
{
    switch (kind_) {
      case ReplacerKind::Lru:
        return lruScan(metas, assoc,
                       [](const WayMeta &m) { return m.candidate; });

      case ReplacerKind::Fifo: {
        // Oldest allocation among the candidates; touches don't move
        // a line back in the queue.
        int victim = -1;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (unsigned i = 0; i < assoc; ++i) {
            if (metas[i].candidate && metas[i].allocSeq < oldest) {
                oldest = metas[i].allocSeq;
                victim = static_cast<int>(i);
            }
        }
        return victim;
      }

      case ReplacerKind::Rand: {
        unsigned n = 0;
        std::array<unsigned, 64> cand;
        for (unsigned i = 0; i < assoc && n < cand.size(); ++i) {
            if (metas[i].candidate)
                cand[n++] = i;
        }
        if (n == 0)
            return -1;
        // Deterministic per-set LCG (Knuth MMIX constants), seeded
        // from the config seed and the set index. Each array owns its
        // replacer, so the stream is private to the array.
        if (rng_.size() <= set)
            rng_.resize(set + 1, 0);
        if (rng_[set] == 0)
            rng_[set] = seed_ ^ (std::uint64_t(set) * 0x9E3779B97F4A7C15ull)
                        ^ 0x5DEECE66Dull;
        rng_[set] = rng_[set] * 6364136223846793005ull
                    + 1442695040888963407ull;
        return static_cast<int>(cand[(rng_[set] >> 33) % n]);
      }

      case ReplacerKind::Region: {
        const int preferred = lruScan(metas, assoc, [](const WayMeta &m) {
            return m.candidate && m.preferEvict;
        });
        if (preferred >= 0)
            return preferred;
        return lruScan(metas, assoc,
                       [](const WayMeta &m) { return m.candidate; });
      }
    }
    return -1;
}

} // namespace ccsvm::cache
