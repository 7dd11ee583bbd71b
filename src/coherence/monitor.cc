#include "coherence/monitor.hh"

#include <bit>

#include "base/logging.hh"

namespace ccsvm::coherence
{

void
SwmrMonitor::onSetState(L1Id id, Addr block_addr, CohState s)
{
    ccsvm_assert(id >= 0 && id < maxL1s,
                 "SWMR monitor: L1 %d outside the %d-bit reader mask",
                 id, maxL1s);
    auto it = blocks_.find(block_addr);
    if (it == blocks_.end()) {
        if (s == CohState::I)
            return;
        it = blocks_.emplace(block_addr, BlockInfo{}).first;
    }
    BlockInfo &info = it->second;
    const std::uint64_t me = std::uint64_t(1) << id;

    // Remove any previous record for this L1 on this block.
    info.readers &= ~me;
    if (info.writer == id)
        info.writer = noL1;
    if (info.owner == id)
        info.owner = noL1;

    switch (s) {
      case CohState::I:
        break;
      case CohState::S:
        info.readers |= me;
        break;
      case CohState::O:
        info.readers |= me;
        ccsvm_assert(info.owner == noL1,
                     "two owners for block 0x%llx: L1 %d and L1 %d",
                     (unsigned long long)block_addr, info.owner, id);
        info.owner = id;
        break;
      case CohState::E:
      case CohState::M:
        // The previous record for this L1 was erased above, so any
        // surviving writer is a *different* L1 — two simultaneous
        // writers, which check() alone cannot see (it has one writer
        // slot, and silently overwriting it would hide the second).
        ccsvm_assert(info.writer == noL1,
                     "SWMR violated: block 0x%llx has two writers, "
                     "L1 %d and L1 %d",
                     (unsigned long long)block_addr, info.writer, id);
        info.writer = id;
        break;
    }
    check(block_addr, info);
    if (info.readers == 0 && info.writer == noL1)
        blocks_.erase(it);
}

void
SwmrMonitor::onDrop(L1Id id, Addr block_addr)
{
    onSetState(id, block_addr, CohState::I);
}

unsigned
SwmrMonitor::holders(Addr block_addr) const
{
    auto it = blocks_.find(block_addr);
    if (it == blocks_.end())
        return 0;
    const auto &info = it->second;
    return static_cast<unsigned>(std::popcount(info.readers)) +
           (info.writer != noL1 ? 1u : 0u);
}

void
SwmrMonitor::check(Addr block_addr) const
{
    auto it = blocks_.find(block_addr);
    if (it != blocks_.end())
        check(block_addr, it->second);
}

void
SwmrMonitor::check(Addr block_addr, const BlockInfo &info)
{
    if (info.writer == noL1)
        return;
    // A writer (E or M) must be the sole holder.
    ccsvm_assert(info.readers == 0,
                 "SWMR violated: block 0x%llx has writer L1 %d and "
                 "%d readers",
                 (unsigned long long)block_addr, info.writer,
                 std::popcount(info.readers));
    ccsvm_assert(info.owner == noL1,
                 "SWMR violated: block 0x%llx has writer L1 %d and "
                 "owner L1 %d",
                 (unsigned long long)block_addr, info.writer,
                 info.owner);
}

} // namespace ccsvm::coherence
