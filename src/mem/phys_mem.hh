/**
 * @file
 * Functional physical memory: the authoritative backing store.
 *
 * Storage is allocated lazily at 4 KiB frame granularity so a 2 GiB
 * simulated DRAM costs host memory only for frames actually touched.
 * The coherence protocol moves real 64-byte blocks of this data between
 * caches; PhysMem holds the values of blocks not currently owned dirty
 * by any cache.
 */

#ifndef CCSVM_MEM_PHYS_MEM_HH
#define CCSVM_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "base/logging.hh"
#include "base/types.hh"

namespace ccsvm::mem
{

inline constexpr unsigned pageShift = 12;
inline constexpr Addr pageBytes = Addr(1) << pageShift;
inline constexpr Addr pageOffsetMask = pageBytes - 1;

inline constexpr unsigned blockShift = 6;
inline constexpr Addr blockBytes = Addr(1) << blockShift;
inline constexpr Addr blockOffsetMask = blockBytes - 1;

/** The physical page (frame) number containing @p pa. */
constexpr Addr frameNumber(Addr pa) { return pa >> pageShift; }

/** The 64-byte block address (aligned) containing @p pa. */
constexpr Addr blockAlign(Addr pa) { return pa & ~blockOffsetMask; }

/** Sparse, lazily-allocated physical memory image. */
class PhysMem
{
  public:
    explicit PhysMem(Addr size_bytes) : size_(size_bytes)
    {
        ccsvm_assert(size_bytes % pageBytes == 0,
                     "physical memory size must be page aligned");
    }

    Addr size() const { return size_; }

    /** Read @p len bytes at @p pa into @p dst. */
    void
    read(Addr pa, void *dst, unsigned len) const
    {
        checkRange(pa, len);
        auto *out = static_cast<std::uint8_t *>(dst);
        while (len > 0) {
            const Addr off = pa & pageOffsetMask;
            const unsigned chunk =
                static_cast<unsigned>(
                    std::min<Addr>(len, pageBytes - off));
            const Frame *f = findFrame(frameNumber(pa));
            if (f)
                std::memcpy(out, f->data() + off, chunk);
            else
                std::memset(out, 0, chunk);
            pa += chunk;
            out += chunk;
            len -= chunk;
        }
    }

    /** Write @p len bytes from @p src at @p pa. */
    void
    write(Addr pa, const void *src, unsigned len)
    {
        checkRange(pa, len);
        auto *in = static_cast<const std::uint8_t *>(src);
        while (len > 0) {
            const Addr off = pa & pageOffsetMask;
            const unsigned chunk =
                static_cast<unsigned>(
                    std::min<Addr>(len, pageBytes - off));
            Frame &f = frame(frameNumber(pa));
            std::memcpy(f.data() + off, in, chunk);
            pa += chunk;
            in += chunk;
            len -= chunk;
        }
    }

    /** Read one naturally-aligned scalar (1/2/4/8 bytes). */
    std::uint64_t
    readScalar(Addr pa, unsigned size) const
    {
        std::uint64_t v = 0;
        read(pa, &v, size);
        return v;
    }

    /** Write one naturally-aligned scalar (1/2/4/8 bytes). */
    void
    writeScalar(Addr pa, std::uint64_t v, unsigned size)
    {
        write(pa, &v, size);
    }

    /** Copy one aligned 64-byte block out of memory. */
    void
    readBlock(Addr pa, std::uint8_t *dst) const
    {
        ccsvm_assert((pa & blockOffsetMask) == 0,
                     "readBlock of unaligned address");
        read(pa, dst, blockBytes);
    }

    /** Copy one aligned 64-byte block into memory. */
    void
    writeBlock(Addr pa, const std::uint8_t *src)
    {
        ccsvm_assert((pa & blockOffsetMask) == 0,
                     "writeBlock of unaligned address");
        write(pa, src, blockBytes);
    }

  private:
    using Frame = std::array<std::uint8_t, pageBytes>;

    void
    checkRange(Addr pa, unsigned len) const
    {
        ccsvm_assert(pa + len <= size_,
                     "physical access [0x%llx, +%u) out of range",
                     (unsigned long long)pa, len);
    }

    const Frame *
    findFrame(Addr fn) const
    {
        auto it = frames_.find(fn);
        return it == frames_.end() ? nullptr : it->second.get();
    }

    Frame &
    frame(Addr fn)
    {
        auto &slot = frames_[fn];
        if (!slot) {
            slot = std::make_unique<Frame>();
            slot->fill(0);
        }
        return *slot;
    }

    Addr size_;
    std::unordered_map<Addr, std::unique_ptr<Frame>> frames_;
};

} // namespace ccsvm::mem

#endif // CCSVM_MEM_PHYS_MEM_HH
