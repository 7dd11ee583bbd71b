#include "core/cpu_core.hh"

namespace ccsvm::core
{

CpuCore::CpuCore(sim::EventQueue &eq, sim::StatRegistry &stats,
                 const std::string &name, const CpuCoreConfig &cfg,
                 coherence::L1Controller &l1, vm::Walker &walker,
                 vm::Kernel &kernel, noc::Network &net,
                 noc::NodeId my_node)
    : eq_(&eq), cfg_(cfg), clock_(eq, cfg.clockPeriod), l1_(&l1),
      walker_(&walker), kernel_(&kernel),
      tlb_(stats, name + ".tlb", cfg.tlbEntries), net_(&net),
      node_(my_node),
      instructions_(stats.counter(name + ".instructions",
                                  "guest instructions retired")),
      memOps_(stats.counter(name + ".memOps",
                            "loads/stores/atomics issued")),
      syscalls_(stats.counter(name + ".syscalls",
                              "MIFD write syscalls")),
      faults_(stats.counter(name + ".pageFaults",
                            "page faults taken")),
      trc_(stats.tracer()), lane_(stats.tracer().lane(name))
{
    kernel.registerCpuTlb(&tlb_);
}

void
CpuCore::runThread(ThreadContext &tc, sim::GuestTask task,
                   std::function<void()> on_done)
{
    ccsvm_assert(!running_, "CPU core already running a thread");
    running_ = true;
    onDone_ = std::move(on_done);
    tc.bind(tc.tid(), tc.process(), this);
    tc.start(std::move(task));
    // First resume from a fresh event at the next clock edge.
    eq_->schedule(clock_.clockEdge(1), [&tc] { tc.resumeFromEvent(); },
                  sim::prioCpu);
}

void
CpuCore::onThreadDone(ThreadContext &)
{
    running_ = false;
    if (onDone_) {
        auto cb = std::move(onDone_);
        onDone_ = {};
        cb();
    }
}

void
CpuCore::onOpDeclared(ThreadContext &tc)
{
    // Consume an issue slot: at most one instruction per issuePeriod.
    const Tick slot = std::max(clock_.clockEdge(), nextIssue_);
    nextIssue_ = slot + cfg_.issuePeriod;
    eq_->schedule(slot, [this, &tc] { issue(tc); }, sim::prioCpu);
}

void
CpuCore::issue(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    // issue() runs exactly once per declared op (fault retries
    // re-enter translateAndAccess, not issue), so this is the one
    // capture point for the CPU-side guest op stream.
    if (OpSink *sink = tc.sink())
        sink->record(op, eq_->now());
    switch (op.kind) {
      case OpKind::Compute: {
        const std::uint64_t n = std::max<std::uint64_t>(
            op.computeCount, 1);
        instructions_ += n;
        const Tick done = eq_->now() + n * cfg_.issuePeriod;
        nextIssue_ = done;
        eq_->schedule(done, [&tc] { tc.completeOp(0); },
                      sim::prioCpu);
        return;
      }
      case OpKind::Load:
      case OpKind::Store:
      case OpKind::Amo:
        ++instructions_;
        ++memOps_;
        translateAndAccess(tc);
        return;
      case OpKind::MifdWrite:
        ++instructions_;
        ++syscalls_;
        doSyscall(tc);
        return;
      case OpKind::Stall: {
        const Tick done = eq_->now() + op.stallTicks;
        nextIssue_ = done;
        eq_->schedule(done, [&tc] { tc.completeOp(0); },
                      sim::prioCpu);
        return;
      }
      case OpKind::HostWait:
        pollHostWait(tc);
        return;
    }
    ccsvm_panic("unknown op kind");
}

void
CpuCore::pollHostWait(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    if (op.hostPred()) {
        eq_->schedule(clock_.clockEdge(1), [&tc] { tc.completeOp(0); },
                      sim::prioCpu);
        return;
    }
    eq_->scheduleIn(cfg_.hostWaitPollPeriod,
                    [this, &tc] { pollHostWait(tc); }, sim::prioCpu);
}

void
CpuCore::translateAndAccess(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    vm::TlbEntry te;
    if (tlb_.lookup(op.va, te)) {
        accessMemory(tc, te.frame | (op.va & mem::pageOffsetMask), te);
        return;
    }
    // Hardware page walk; on a true fault, trap to the kernel and
    // retry the translation afterwards.
    runtime::Process &proc = *tc.process();
    walker_->walk(proc.addressSpace().pageTable(), op.va,
                  [this, &tc, &proc](vm::WalkResult r) {
                      GuestOp &o = tc.pendingOp();
                      if (r.present) {
                          vm::TlbEntry te{r.frame, r.writable};
                          if (const vm::MemRegion *mr =
                                  proc.addressSpace().regionFor(o.va)) {
                              te.attr = mr->attr;
                              te.prot = mr->protocol;
                          }
                          tlb_.insert(o.va, te.frame, te.writable,
                                      te.attr, te.prot);
                          accessMemory(
                              tc,
                              te.frame | (o.va & mem::pageOffsetMask),
                              te);
                          return;
                      }
                      ++faults_;
                      kernel_->handlePageFault(
                          proc.addressSpace(), o.va,
                          [this, &tc] { translateAndAccess(tc); });
                  });
}

void
CpuCore::accessUncached(ThreadContext &tc, Addr paddr)
{
    // Pinned zero-copy region: bypass the cache hierarchy entirely.
    // Writes are posted through a one-block write-combining buffer;
    // reads buffer one block. Every block transition is an off-chip
    // transaction — this is the APU's CPU<->GPU communication path.
    GuestOp &op = tc.pendingOp();
    const Addr block = mem::blockAlign(paddr);
    const unsigned off =
        static_cast<unsigned>(paddr & mem::blockOffsetMask);

    if (op.kind == OpKind::Store) {
        uncached_.phys->writeScalar(paddr, op.wdata, op.size);
        if (block != wcBlock_) {
            wcBlock_ = block;
            uncached_.dram->access(true, mem::blockBytes, [] {});
        }
        eq_->scheduleIn(uncached_.writePostLatency,
                        [&tc] { tc.completeOp(0); }, sim::prioCpu);
        return;
    }
    if (op.kind == OpKind::Load) {
        const Tick lat = (block == rdBlock_)
                             ? uncached_.readHitLatency
                             : Tick(0);
        if (block != rdBlock_) {
            rdBlock_ = block;
            const Addr pa = paddr;
            const unsigned size = op.size;
            uncached_.dram->access(
                false, mem::blockBytes, [this, &tc, pa, size] {
                    tc.completeOp(
                        uncached_.phys->readScalar(pa, size));
                });
            return;
        }
        eq_->scheduleIn(lat, [this, &tc, paddr, off] {
            (void)off;
            GuestOp &o = tc.pendingOp();
            tc.completeOp(uncached_.phys->readScalar(paddr, o.size));
        }, sim::prioCpu);
        return;
    }
    // Atomics to uncached space: read-modify-write at memory.
    const Addr pa = paddr;
    uncached_.dram->access(false, mem::blockBytes, [this, &tc, pa] {
        GuestOp &o = tc.pendingOp();
        const std::uint64_t old_val =
            uncached_.phys->readScalar(pa, o.size);
        const std::uint64_t new_val = coherence::amoApply(
            o.amoOp, old_val, o.operand, o.operand2);
        uncached_.phys->writeScalar(pa, new_val, o.size);
        uncached_.dram->access(true, mem::blockBytes,
                               [&tc, old_val] {
                                   tc.completeOp(old_val);
                               });
    });
}

void
CpuCore::accessMemory(ThreadContext &tc, Addr paddr,
                      const vm::TlbEntry &te)
{
    if (uncached_.contains(paddr)) {
        accessUncached(tc, paddr);
        return;
    }
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

void
CpuCore::doSyscall(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    ccsvm_assert(mifd_.dev, "MIFD write syscall without a MIFD");
    auto task = op.task;
    if (trc_.enabled(sim::traceKernel))
        trc_.instant(sim::traceKernel, lane_, "launch", eq_->now(),
                     task ? task->numThreads() : 0);

    // After the kernel syscall path, the driver's descriptor write
    // travels to the MIFD over the interconnect.
    eq_->scheduleIn(cfg_.syscallLatency, [this, task, &tc] {
        MifdIface *dev = mifd_.dev;
        net_->send(node_, mifd_.node, noc::VNet::Request, 64,
                   [dev, task] { dev->submitTask(*task); });
        // The syscall returns to the guest once the write is posted.
        tc.completeOp(0);
    });
    nextIssue_ = eq_->now() + cfg_.syscallLatency;
}

} // namespace ccsvm::core
