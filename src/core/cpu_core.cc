#include "core/cpu_core.hh"

namespace ccsvm::core
{

CpuCore::CpuCore(sim::EventQueue &eq, sim::StatRegistry &stats,
                 const std::string &name, const CpuCoreConfig &cfg,
                 coherence::L1Controller &l1, vm::Walker &walker,
                 vm::Kernel &kernel, noc::Network &net,
                 noc::NodeId my_node)
    : eq_(&eq), cfg_(cfg), clock_(eq, cfg.clockPeriod),
      mem_(eq, stats, name, cfg.tlbEntries, l1, walker,
           "page faults taken",
           [&kernel](runtime::Process &proc, vm::VAddr va,
                     std::function<void()> retry) {
               kernel.handlePageFault(proc.addressSpace(), va,
                                      std::move(retry));
           }),
      net_(&net), node_(my_node),
      instructions_(stats.counter(name + ".instructions",
                                  "guest instructions retired")),
      memOps_(stats.counter(name + ".memOps",
                            "loads/stores/atomics issued")),
      syscalls_(stats.counter(name + ".syscalls",
                              "MIFD write syscalls")),
      trc_(stats.tracer()), lane_(stats.tracer().lane(name))
{
    kernel.registerCpuTlb(&mem_.tlb());
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
        mem_.translateAndAccess(tc);
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
