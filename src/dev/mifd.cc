#include "dev/mifd.hh"

namespace ccsvm::dev
{

Mifd::Mifd(sim::EventQueue &eq, sim::StatRegistry &stats,
           const MifdConfig &cfg, vm::Kernel &kernel,
           noc::Network &net, noc::NodeId my_node)
    : eq_(&eq), cfg_(cfg), kernel_(&kernel), net_(&net),
      node_(my_node),
      tasks_(stats.counter("mifd.tasks", "tasks accepted")),
      chunks_(stats.counter("mifd.chunks",
                            "SIMD-width chunks dispatched")),
      faultRelays_(stats.counter("mifd.faultRelays",
                                 "MTTOP page faults relayed to CPU")),
      errors_(stats.counter("mifd.errors",
                            "error-register writes")),
      trc_(stats.tracer()), lane_(stats.tracer().lane("mifd"))
{}

void
Mifd::connectMttops(std::vector<MttopPort> cores)
{
    mttops_ = std::move(cores);
    ccsvm_assert(!mttops_.empty(), "MIFD needs MTTOP cores");
    ctxFree_.reserve(mttops_.size());
    ctxFree_.clear();
    for (std::size_t i = 0; i < mttops_.size(); ++i) {
        ctxFree_.push_back(mttops_[i].core->freeContexts());
        mttops_[i].core->connectMifd(this,
                                     static_cast<unsigned>(i));
    }
}

unsigned
Mifd::totalFreeContexts() const
{
    unsigned total = 0;
    for (unsigned free : ctxFree_)
        total += free;
    return total;
}

void
Mifd::submitTask(core::TaskDescriptor desc)
{
    // The device itself serializes descriptor handling.
    const Tick start = std::max(eq_->now(), deviceFree_);
    deviceFree_ = start + cfg_.taskAcceptLatency;
    eq_->schedule(deviceFree_, [this, desc = std::move(desc)]() mutable {
        acceptTask(std::move(desc));
    });
}

void
Mifd::acceptTask(core::TaskDescriptor desc)
{
    ++tasks_;
    const unsigned threads = desc.numThreads();
    if (trc_.enabled(sim::traceKernel))
        trc_.instant(sim::traceKernel, lane_, "task", eq_->now(),
                     threads);

    if (desc.requireAll && threads > totalFreeContexts()) {
        // The paper's semantics: the MIFD does not guarantee that a
        // task requiring global synchronization is entirely
        // scheduled; it flags the shortfall in an error register.
        ++errors_;
        errorReg_ = 1;
    }

    auto shared_desc =
        std::make_shared<core::TaskDescriptor>(std::move(desc));
    auto state = std::make_shared<core::TaskState>();
    state->remaining = static_cast<int>(threads);
    state->onComplete = shared_desc->onComplete;

    for (ThreadId first = shared_desc->firstTid;
         first <= shared_desc->lastTid;
         first += cfg_.simdWidth) {
        Chunk c;
        c.desc = shared_desc;
        c.state = state;
        c.first = first;
        c.count = std::min<unsigned>(
            cfg_.simdWidth, shared_desc->lastTid - first + 1);
        pending_.push_back(std::move(c));
    }
    dispatch();
}

void
Mifd::dispatch()
{
    while (!pending_.empty()) {
        Chunk &c = pending_.front();

        // Round-robin over cores until the device's mirror shows one
        // with room for the chunk. The mirror is decremented here (at
        // the dispatch decision) and refilled by notifyContextsFreed,
        // so dispatched-but-unassigned chunks are never double-counted.
        std::size_t tried = 0;
        std::size_t chosen = mttops_.size();
        while (tried < mttops_.size()) {
            const std::size_t idx =
                (rrNext_ + tried) % mttops_.size();
            if (ctxFree_[idx] >= c.count) {
                chosen = idx;
                break;
            }
            ++tried;
        }
        if (chosen == mttops_.size())
            return; // no contexts free; retried on notifyContextsFreed
        rrNext_ = (chosen + 1) % mttops_.size();

        Chunk chunk = std::move(pending_.front());
        pending_.pop_front();
        ++chunks_;
        ctxFree_[chosen] -= chunk.count;

        // Device occupancy per dispatch, then the descriptor write
        // travels to the MTTOP core over the interconnect.
        const Tick start = std::max(eq_->now(), deviceFree_);
        deviceFree_ = start + cfg_.chunkDispatchLatency;
        if (trc_.enabled(sim::traceKernel))
            trc_.complete(sim::traceKernel, lane_, "chunk", start,
                          deviceFree_, chunk.first);
        core::MttopCore *core = mttops_[chosen].core;
        const noc::NodeId dst = mttops_[chosen].node;
        eq_->schedule(
            deviceFree_,
            [this, core, dst, chunk = std::move(chunk)]() mutable {
                net_->send(node_, dst, noc::VNet::Request, 32,
                           [core, chunk = std::move(chunk)]() mutable {
                               core->assignChunk(chunk.desc,
                                                 chunk.first,
                                                 chunk.count,
                                                 chunk.state);
                           });
            });
    }
}

void
Mifd::notifyContextsFreed(unsigned port)
{
    ccsvm_assert(port < ctxFree_.size(), "freed on unknown port %u",
                 port);
    ++ctxFree_[port];
    ccsvm_assert(ctxFree_[port] <= mttops_[port].core->totalContexts(),
                 "context mirror overflowed on port %u", port);
    if (pending_.empty() || dispatchScheduled_)
        return;
    // Batch re-dispatch onto a fresh event (contexts free during
    // other processing).
    dispatchScheduled_ = true;
    eq_->scheduleIn(cfg_.chunkDispatchLatency, [this] {
        dispatchScheduled_ = false;
        dispatch();
    });
}

void
Mifd::relayPageFault(runtime::Process &proc, vm::VAddr va,
                     std::function<void()> retry)
{
    ++faultRelays_;
    if (trc_.enabled(sim::traceVm))
        trc_.complete(sim::traceVm, lane_, "faultRelay", eq_->now(),
                      eq_->now() + cfg_.faultRelayLatency, va);
    // Interrupt a CPU core with {cause=page fault, CR3}; the CPU-side
    // handler cost is the kernel model's fault latency.
    eq_->scheduleIn(cfg_.faultRelayLatency,
                    [this, &proc, va, retry = std::move(retry)] {
                        kernel_->handlePageFault(proc.addressSpace(),
                                                 va, std::move(retry));
                    });
}

} // namespace ccsvm::dev
