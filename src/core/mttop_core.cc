#include "core/mttop_core.hh"

namespace ccsvm::core
{

MttopCore::MttopCore(sim::EventQueue &eq, sim::StatRegistry &stats,
                     const std::string &name,
                     const MttopCoreConfig &cfg,
                     coherence::L1Controller &l1, vm::Walker &walker,
                     vm::Kernel &kernel)
    : eq_(&eq), cfg_(cfg), clock_(eq, cfg.clockPeriod), l1_(&l1),
      walker_(&walker), tlb_(stats, name + ".tlb", cfg.tlbEntries),
      freeSlots_(cfg.numContexts),
      instructions_(stats.counter(name + ".instructions",
                                  "guest instructions retired")),
      memOps_(stats.counter(name + ".memOps",
                            "loads/stores/atomics issued")),
      threadsRun_(stats.counter(name + ".threads",
                                "MTTOP threads executed")),
      faults_(stats.counter(name + ".pageFaults",
                            "page faults relayed via MIFD")),
      cr3Switches_(stats.counter(name + ".cr3Switches",
                                 "address-space switches (TLB flush)"))
{
    slots_.reserve(cfg.numContexts);
    for (unsigned i = 0; i < cfg.numContexts; ++i)
        slots_.push_back(std::make_unique<Slot>());
    kernel.registerMttopTlb(&tlb_);
}

void
MttopCore::assignChunk(std::shared_ptr<TaskDescriptor> desc,
                       ThreadId first, unsigned count,
                       std::shared_ptr<TaskState> state)
{
    ccsvm_assert(count <= freeSlots_,
                 "chunk of %u threads assigned with %u free contexts",
                 count, freeSlots_);

    // Setting CR3 for a different process flushes the per-core TLB.
    if (currentProcess_ != desc->process) {
        if (currentProcess_ != nullptr) {
            ++cr3Switches_;
            tlb_.flushAll();
        }
        currentProcess_ = desc->process;
    }

    unsigned assigned = 0;
    for (auto &slot : slots_) {
        if (assigned == count)
            break;
        if (slot->inUse)
            continue;
        slot->inUse = true;
        slot->desc = desc;
        slot->state = state;
        --freeSlots_;
        ++threadsRun_;

        const ThreadId tid = first + assigned;
        ++assigned;
        slot->tc.bind(tid, desc->process, this);
        // Always (re)set the sink: slots are reused, and a stale sink
        // from a captured launch must never leak into later work.
        slot->tc.setSink(captureHook_ ? captureHook_(*desc, tid)
                                      : nullptr);
        slot->tc.start(desc->fn(slot->tc, desc->args));
        ThreadContext *tc = &slot->tc;
        eq_->schedule(clock_.clockEdge(1),
                      [tc] { tc->resumeFromEvent(); });
    }
    ccsvm_assert(assigned == count, "lost context slots");
}

void
MttopCore::onThreadDone(ThreadContext &tc)
{
    for (auto &slot : slots_) {
        if (&slot->tc != &tc)
            continue;
        slot->inUse = false;
        ++freeSlots_;
        auto state = std::move(slot->state);
        slot->desc.reset();
        if (state && --state->remaining == 0 && state->onComplete)
            state->onComplete();
        if (mifd_)
            mifd_->notifyContextsFreed(mifdPort_);
        return;
    }
    ccsvm_panic("onThreadDone for unknown context");
}

void
MttopCore::onOpDeclared(ThreadContext &tc)
{
    ready_.push_back(&tc);
    scheduleCycle();
}

void
MttopCore::scheduleCycle()
{
    if (cycleScheduled_)
        return;
    cycleScheduled_ = true;
    eq_->schedule(clock_.clockEdge(1), [this] { cycle(); });
}

void
MttopCore::cycle()
{
    cycleScheduled_ = false;
    for (unsigned issued = 0;
         issued < cfg_.issueWidth && !ready_.empty(); ++issued) {
        ThreadContext *tc = ready_.front();
        ready_.pop_front();
        processOp(*tc);
    }
    if (!ready_.empty())
        scheduleCycle();
}

void
MttopCore::processOp(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    // processOp() runs exactly once per declared op: the single
    // capture point for this thread's guest op stream.
    if (OpSink *sink = tc.sink())
        sink->record(op, eq_->now());
    switch (op.kind) {
      case OpKind::Compute: {
        const std::uint64_t n = std::max<std::uint64_t>(
            op.computeCount, 1);
        instructions_ += n;
        // The batch occupies this thread for n core cycles; other
        // threads keep issuing meanwhile (SIMT throughput model).
        eq_->schedule(clock_.clockEdge(n),
                      [&tc] { tc.completeOp(0); });
        return;
      }
      case OpKind::Load:
      case OpKind::Store:
      case OpKind::Amo:
        ++instructions_;
        ++memOps_;
        translateAndAccess(tc);
        return;
      case OpKind::Stall:
        eq_->scheduleIn(op.stallTicks, [&tc] { tc.completeOp(0); });
        return;
      case OpKind::MifdWrite:
      case OpKind::HostWait:
        ccsvm_panic("MTTOP threads cannot issue %s ops (tid %u)",
                    op.kind == OpKind::MifdWrite ? "MIFD-write"
                                                 : "host-wait",
                    tc.tid());
    }
    ccsvm_panic("unknown op kind");
}

void
MttopCore::translateAndAccess(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    vm::TlbEntry te;
    if (tlb_.lookup(op.va, te)) {
        accessMemory(tc, te.frame | (op.va & mem::pageOffsetMask), te);
        return;
    }
    runtime::Process &proc = *tc.process();
    walker_->walk(
        proc.addressSpace().pageTable(), op.va,
        [this, &tc, &proc](vm::WalkResult r) {
            GuestOp &o = tc.pendingOp();
            if (r.present) {
                vm::TlbEntry te{r.frame, r.writable};
                if (const vm::MemRegion *mr =
                        proc.addressSpace().regionFor(o.va)) {
                    te.attr = mr->attr;
                    te.prot = mr->protocol;
                }
                tlb_.insert(o.va, te.frame, te.writable, te.attr,
                            te.prot);
                accessMemory(
                    tc, te.frame | (o.va & mem::pageOffsetMask), te);
                return;
            }
            // MTTOP cores do not run the OS: raise the fault to a CPU
            // core through the MIFD (paper Sec. 3.2.1).
            ++faults_;
            ccsvm_assert(mifd_, "MTTOP page fault without a MIFD");
            mifd_->relayPageFault(
                proc, o.va, [this, &tc] { translateAndAccess(tc); });
        });
}

void
MttopCore::accessMemory(ThreadContext &tc, Addr paddr,
                        const vm::TlbEntry &te)
{
    GuestOp &op = tc.pendingOp();
    auto req = std::make_unique<coherence::MemRequest>();
    req->paddr = paddr;
    req->size = op.size;
    req->region = te.attr;
    req->regionProt = te.prot;
    switch (op.kind) {
      case OpKind::Load:
        req->kind = coherence::MemRequest::Kind::Read;
        break;
      case OpKind::Store:
        req->kind = coherence::MemRequest::Kind::Write;
        req->wdata = op.wdata;
        break;
      case OpKind::Amo:
        req->kind = coherence::MemRequest::Kind::Amo;
        req->amoOp = op.amoOp;
        req->operand = op.operand;
        req->operand2 = op.operand2;
        break;
      default:
        ccsvm_panic("non-memory op in accessMemory");
    }
    req->onDone = [&tc](std::uint64_t v) { tc.completeOp(v); };
    l1_->access(std::move(req));
}

} // namespace ccsvm::core
