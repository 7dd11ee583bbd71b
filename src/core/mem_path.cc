#include "core/mem_path.hh"

#include "runtime/process.hh"

namespace ccsvm::core
{

MemPath::MemPath(sim::EventQueue &eq, sim::StatRegistry &stats,
                 const std::string &name, unsigned tlb_entries,
                 coherence::L1Controller &l1, vm::Walker &walker,
                 const char *fault_desc, FaultHandler on_fault)
    : eq_(&eq), tlb_(stats, name + ".tlb", tlb_entries),
      walker_(&walker), l1_(&l1),
      faults_(stats.counter(name + ".pageFaults", fault_desc)),
      onFault_(std::move(on_fault))
{}

void
MemPath::translateAndAccess(ThreadContext &tc)
{
    const vm::VAddr va = tc.pendingOp().va;
    vm::TlbEntry te;
    if (tlb_.lookup(va, te)) {
        accessMemory(tc, te);
        return;
    }
    // Hardware page walk; on a true fault, hand it to the core's
    // fault handler and retry the translation afterwards.
    runtime::Process &proc = *tc.process();
    walker_->walk(proc.addressSpace().pageTable(), va,
                  [this, &tc, &proc, va](vm::WalkResult r) {
                      if (!r.present) {
                          ++faults_;
                          onFault_(proc, va, [this, &tc] {
                              translateAndAccess(tc);
                          });
                          return;
                      }
                      vm::TlbEntry te{r.frame, r.writable};
                      if (const vm::MemRegion *mr =
                              proc.addressSpace().regionFor(va)) {
                          te.attr = mr->attr;
                          te.prot = mr->protocol;
                      }
                      tlb_.insert(va, te);
                      accessMemory(tc, te);
                  });
}

void
MemPath::accessUncached(ThreadContext &tc, Addr paddr)
{
    // Pinned zero-copy region: bypass the cache hierarchy entirely.
    // Writes are posted through a one-block write-combining buffer;
    // reads buffer one block. Every block transition is an off-chip
    // transaction — this is the APU's CPU<->GPU communication path.
    GuestOp &op = tc.pendingOp();
    const Addr block = mem::blockAlign(paddr);

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
        const unsigned size = op.size;
        auto read = [this, &tc, paddr, size] {
            tc.completeOp(uncached_.phys->readScalar(paddr, size));
        };
        if (block != rdBlock_) {
            rdBlock_ = block;
            uncached_.dram->access(false, mem::blockBytes, read);
        } else {
            eq_->scheduleIn(uncached_.readHitLatency, read, sim::prioCpu);
        }
        return;
    }
    // Atomics to uncached space: read-modify-write at memory.
    uncached_.dram->access(false, mem::blockBytes, [this, &tc, paddr] {
        GuestOp &o = tc.pendingOp();
        const std::uint64_t old_val =
            uncached_.phys->readScalar(paddr, o.size);
        const std::uint64_t new_val = coherence::amoApply(
            o.amoOp, old_val, o.operand, o.operand2);
        uncached_.phys->writeScalar(paddr, new_val, o.size);
        uncached_.dram->access(true, mem::blockBytes,
                               [&tc, old_val] {
                                   tc.completeOp(old_val);
                               });
    });
}

void
MemPath::accessMemory(ThreadContext &tc, const vm::TlbEntry &te)
{
    GuestOp &op = tc.pendingOp();
    const Addr paddr = te.frame | (op.va & mem::pageOffsetMask);
    if (uncached_.contains(paddr)) {
        accessUncached(tc, paddr);
        return;
    }
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
