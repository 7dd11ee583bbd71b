#include "sim/eventq.hh"

#include <algorithm>
#include <bit>

namespace ccsvm::sim
{

void
EventQueue::enqueue(std::uint32_t slot, Tick when, int priority)
{
    const std::uint64_t seq = seq_++;
    keys_[slot] = Key{when, seq, priority, noSlot};
    if (when < last_)
        rebucket(when);
    if (when == last_)
        insertDue(Due{priority, slot, seq});
    else
        bucket(slot);
}

void
EventQueue::fileChain(std::uint32_t s) const
{
    while (s != noSlot) {
        const Key &k = keys_[s];
        const std::uint32_t next = k.next;
        if (k.when == last_)
            due_.push_back(Due{k.priority, s, k.seq});
        else
            bucket(s);
        s = next;
    }
    std::sort(due_.begin(), due_.end(), before);
}

void
EventQueue::refill() const
{
    const int b = std::countr_zero(mask_);
    mask_ &= mask_ - 1;
    const std::uint32_t s = heads_[b];
    heads_[b] = noSlot;
    last_ = mins_[b];
    mins_[b] = maxTick;
    fileChain(s);
}

void
EventQueue::rebucket(Tick when)
{
    // No event has run at last_ yet (now() < last_), so all of due_
    // is pending.
    std::uint32_t all = noSlot;
    for (const Due &d : due_) {
        keys_[d.slot].next = all;
        all = d.slot;
    }
    due_.clear();
    for (; mask_ != 0; mask_ &= mask_ - 1) {
        const int b = std::countr_zero(mask_);
        for (std::uint32_t s = heads_[b]; s != noSlot;) {
            const std::uint32_t next = keys_[s].next;
            keys_[s].next = all;
            all = s;
            s = next;
        }
        heads_[b] = noSlot;
        mins_[b] = maxTick;
    }
    last_ = when;
    fileChain(all);
}

} // namespace ccsvm::sim
