#include "coherence/directory.hh"

#include <bit>
#include <cstring>

#include "base/logging.hh"

namespace ccsvm::coherence
{

void
directoryDeliver(Directory *dir, CohMsg msg)
{
    dir->handleMessage(std::move(msg));
}

Directory::Directory(sim::EventQueue &eq, sim::StatRegistry &stats,
                     const std::string &name, const DirConfig &cfg,
                     int bank_id, int num_banks, noc::Network &net,
                     noc::NodeId my_node, mem::DramCtrl &dram,
                     mem::PhysMem &phys)
    : eq_(&eq), cfg_(cfg),
      cpuPolicy_(&protocolPolicy(cfg.firstMttopL1 >= 0
                                     ? cfg.cpuProtocol
                                     : cfg.protocol)),
      mttopPolicy_(&protocolPolicy(cfg.firstMttopL1 >= 0
                                       ? cfg.mttopProtocol
                                       : cfg.protocol)),
      bankId_(bank_id), numBanks_(num_banks),
      net_(&net), node_(my_node), dram_(&dram), phys_(&phys),
      array_(cfg.bankSizeBytes, cfg.assoc, cfg.replace,
             cfg.replaceSeed + static_cast<std::uint64_t>(bank_id)),
      getS_(stats.counter(name + ".getS", "GetS requests processed")),
      getM_(stats.counter(name + ".getM", "GetM requests processed")),
      fetches_(stats.counter(name + ".fetches",
                             "off-chip fills into the L2")),
      fetchesCoherent_(stats.counter(name + ".fetches.coherent",
                                     "off-chip fills for default-"
                                     "coherent blocks")),
      fetchesOverride_(stats.counter(name + ".fetches.override",
                                     "off-chip fills for protocol-"
                                     "override blocks")),
      writebacks_(stats.counter(name + ".writebacks",
                                "dirty L2 evictions written off-chip")),
      bypassReads_(stats.counter(name + ".bypassReads",
                                 "uncacheable bypass-region reads "
                                 "served at the home")),
      bypassWrites_(stats.counter(name + ".bypassWrites",
                                  "uncacheable bypass-region writes/"
                                  "atomics served at the home")),
      sharingWb_(stats.counter(name + ".sharingWb",
                               "dirty blocks made clean at the home "
                               "on a read (protocols without O)")),
      sharingWbCpu_(stats.counter(name + ".sharingWb.cpu",
                                  "sharingWb carried home by "
                                  "CPU-cluster requestors")),
      sharingWbMttop_(stats.counter(name + ".sharingWb.mttop",
                                    "sharingWb carried home by "
                                    "MTTOP-cluster requestors")),
      invsSentCpu_(stats.counter(name + ".invsSent.cpu",
                                 "invalidations sent to CPU-cluster "
                                 "L1s")),
      invsSentMttop_(stats.counter(name + ".invsSent.mttop",
                                   "invalidations sent to "
                                   "MTTOP-cluster L1s")),
      invsSentCoherent_(stats.counter(name + ".invsSent.coherent",
                                      "invalidations for default-"
                                      "coherent blocks")),
      invsSentOverride_(stats.counter(name + ".invsSent.override",
                                      "invalidations for protocol-"
                                      "override blocks")),
      recallsStat_(stats.counter(name + ".recalls",
                                 "inclusive-eviction recalls")),
      stalls_(stats.counter(name + ".stalls",
                            "requests stalled on busy blocks")),
      requests_(stats.counter(name + ".requests",
                              "coherence requests accepted at this "
                              "bank (incl. retries after recalls)")),
      occupancy_(stats.counter(name + ".occupancy",
                               "peak valid L2 lines (home-bank "
                               "occupancy high-water mark)")),
      conflictEvictions_(stats.counter(name + ".conflictEvictions",
                                       "recalls started to free a "
                                       "frame for an allocation")),
      conflictEvictionsCoherent_(
          stats.counter(name + ".conflictEvictions.coherent",
                        "conflict evictions whose victim was a "
                        "default-coherent line")),
      dirLat_(stats.histogram("latency.dir.bank" +
                                  std::to_string(bank_id),
                              "home-bank transaction latency, "
                              "request accepted to Unblock")),
      trc_(stats.tracer()), lane_(stats.tracer().lane(name))
{}

void
Directory::connectL1s(std::vector<L1Ref> l1s)
{
    ccsvm_assert(l1s.size() <= static_cast<std::size_t>(maxL1s),
                 "%zu L1s exceed the %d-bit sharer mask", l1s.size(),
                 maxL1s);
    l1s_ = std::move(l1s);
}

std::size_t
Directory::pendingWork() const
{
    std::size_t n = txns_.size() + recalls_.size() +
                    stalledAllocs_.size();
    for (const auto &[addr, q] : stalled_)
        n += q.size();
    return n;
}

std::string
Directory::describePending() const
{
    std::string out;
    char buf[128];
    for (const auto &[addr, txn] : txns_) {
        std::snprintf(buf, sizeof(buf), "txn %s addr=0x%llx req=%d; ",
                      msgTypeName(txn.req), (unsigned long long)addr,
                      txn.requestor);
        out += buf;
    }
    for (const auto &[addr, rec] : recalls_) {
        std::snprintf(buf, sizeof(buf),
                      "recall addr=0x%llx acksLeft=%d; ",
                      (unsigned long long)addr, rec.acksLeft);
        out += buf;
    }
    for (const auto &[addr, q] : stalled_) {
        for (const auto &m : q) {
            std::snprintf(buf, sizeof(buf),
                          "stalled %s addr=0x%llx from=%d; ",
                          msgTypeName(m.type),
                          (unsigned long long)addr, m.sender);
            out += buf;
        }
    }
    for (const auto &m : stalledAllocs_) {
        std::snprintf(buf, sizeof(buf),
                      "stalledAlloc %s addr=0x%llx from=%d; ",
                      msgTypeName(m.type),
                      (unsigned long long)m.blockAddr, m.sender);
        out += buf;
    }
    return out;
}

bool
Directory::probe(Addr block_addr, DirState &st, L1Id &owner,
                 unsigned &num_sharers)
{
    L2Line *line = array_.lookup(mem::blockAlign(block_addr));
    if (!line)
        return false;
    st = line->st;
    owner = line->owner;
    num_sharers = popcount(line->sharers);
    return true;
}

bool
Directory::funcReadBlock(Addr block_addr, std::uint8_t *out)
{
    L2Line *line = array_.lookup(mem::blockAlign(block_addr));
    if (!line)
        return false;
    std::memcpy(out, line->data.data(), mem::blockBytes);
    return true;
}

void
Directory::funcWriteBlock(Addr block_addr, unsigned offset,
                          const void *src, unsigned len)
{
    L2Line *line = array_.lookup(mem::blockAlign(block_addr));
    if (line)
        std::memcpy(line->data.data() + offset, src, len);
}

unsigned
Directory::popcount(std::uint64_t m)
{
    return static_cast<unsigned>(std::popcount(m));
}

bool
Directory::isSharer(const L2Line &line, L1Id id) const
{
    return (line.sharers >> id) & 1u;
}

bool
Directory::isMttopL1(L1Id id) const
{
    return cfg_.firstMttopL1 >= 0 && id >= cfg_.firstMttopL1;
}

const ProtocolPolicy &
Directory::policyFor(L1Id id) const
{
    return isMttopL1(id) ? *mttopPolicy_ : *cpuPolicy_;
}

const ProtocolPolicy &
Directory::policyForReq(const CohMsg &msg) const
{
    if (msg.region == RegionAttr::ProtocolOverride)
        return protocolPolicy(msg.regionProt);
    return policyFor(msg.sender);
}

const ProtocolPolicy &
Directory::policyFor(const L2Line &line, L1Id id) const
{
    if (line.region == RegionAttr::ProtocolOverride)
        return protocolPolicy(line.regionProt);
    return policyFor(id);
}

void
Directory::stampRegion(L2Line &line, const CohMsg &msg)
{
    line.region = msg.region;
    line.regionProt = msg.regionProt;
}

// ---------------------------------------------------------------------
// Dispatch and stalling
// ---------------------------------------------------------------------

void
Directory::handleMessage(CohMsg msg)
{
    // Both ends of the chip resolve the same SliceHash from the
    // config; a mismatch would home blocks inconsistently.
    ccsvm_assert(
        sliceHash(cfg_.sliceHash).bankOf(msg.blockAddr, numBanks_) ==
            bankId_,
        "block 0x%llx routed to wrong bank %d (hash %s)",
        (unsigned long long)msg.blockAddr, bankId_,
        sliceHashName(cfg_.sliceHash));

    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetM:
      case MsgType::PutS:
      case MsgType::PutOwned:
      case MsgType::BypassRead:
      case MsgType::BypassWrite:
      case MsgType::BypassAmo: {
        ++requests_;
        L2Line *line = array_.lookup(msg.blockAddr);
        if (line && line->busy) {
            ++stalls_;
            stalled_[msg.blockAddr].push_back(std::move(msg));
            return;
        }
        processRequest(msg);
        return;
      }
      case MsgType::Unblock:
        processUnblock(msg);
        return;
      case MsgType::RecallAck:
      case MsgType::RecallData:
        processRecallResponse(msg);
        return;
      default:
        ccsvm_panic("directory bank %d received unexpected %s", bankId_,
                    msgTypeName(msg.type));
    }
}

void
Directory::processRequest(CohMsg &msg)
{
    L2Line *line = array_.lookup(msg.blockAddr);
    switch (msg.type) {
      case MsgType::GetS:
        ++getS_;
        processGetS(msg, line);
        return;
      case MsgType::GetM:
        ++getM_;
        processGetM(msg, line);
        return;
      case MsgType::PutS:
        processPutS(msg, line);
        return;
      case MsgType::PutOwned:
        processPutOwned(msg, line);
        return;
      case MsgType::BypassRead:
      case MsgType::BypassWrite:
      case MsgType::BypassAmo:
        processBypass(msg, line);
        return;
      default:
        ccsvm_panic("unreachable");
    }
}

void
Directory::retryStalled(Addr block_addr)
{
    auto it = stalled_.find(block_addr);
    if (it == stalled_.end())
        return;
    auto &q = it->second;
    while (!q.empty()) {
        L2Line *line = array_.lookup(block_addr);
        if (line && line->busy)
            return; // reprocessing blocked again; stop
        CohMsg msg = std::move(q.front());
        q.pop_front();
        processRequest(msg);
    }
    stalled_.erase(block_addr);
}

void
Directory::retryStalledAllocs()
{
    if (stalledAllocs_.empty())
        return;
    std::vector<CohMsg> pending;
    pending.swap(stalledAllocs_);
    for (auto &msg : pending)
        handleMessage(std::move(msg));
}

// ---------------------------------------------------------------------
// GetS / GetM
// ---------------------------------------------------------------------

void
Directory::processGetS(CohMsg &msg, L2Line *line)
{
    if (!line) {
        allocateAndFetch(std::move(msg));
        return;
    }

    line->busy = true;
    stampRegion(*line, msg);
    array_.touch(line);
    Txn &txn = txns_[msg.blockAddr];
    txn.req = MsgType::GetS;
    txn.requestor = msg.sender;
    txn.forwarded = false;
    txn.oldOwner = noL1;
    txn.startTick = eq_->now();

    if (line->st == DirState::S) {
        CohMsg rsp;
        rsp.blockAddr = msg.blockAddr;
        rsp.hasData = true;
        rsp.data = line->data;
        if (line->sharers == 0 && line->owner == noL1) {
            // No cached copies anywhere: grant the best read state
            // the requestor's protocol offers (E under MESI/MOESI,
            // S under MSI) — the region's override protocol when the
            // page carries one, else the requestor's cluster policy.
            rsp.type = policyForReq(msg).soleCopyFill();
        } else {
            rsp.type = MsgType::DataS;
        }
        serveData(msg.sender, std::move(rsp));
        return;
    }

    // X or O: data must come from the owner.
    ccsvm_assert(line->owner != noL1, "ownerless %s state",
                 dirStateName(line->st));
    ccsvm_assert(line->owner != msg.sender,
                 "owner L1 %d re-requesting GetS", msg.sender);
    txn.forwarded = true;
    txn.oldOwner = line->owner;

    CohMsg fwd;
    fwd.type = MsgType::FwdGetS;
    fwd.blockAddr = msg.blockAddr;
    fwd.requestor = msg.sender;
    // Pair-wise mediation: the owner may keep a dirty copy (O) only
    // when both its cluster and the requestor's have the O state;
    // otherwise it downgrades and the requestor carries dirty data
    // home on its Unblock. A protocol-override region binds both
    // ends to the region protocol instead.
    fwd.allowDirtySharing = pairAllowsDirtySharing(
        policyFor(*line, line->owner), policyFor(*line, msg.sender));
    sendToL1(line->owner, std::move(fwd), cfg_.ctrlLatency);
}

void
Directory::processGetM(CohMsg &msg, L2Line *line)
{
    if (!line) {
        allocateAndFetch(std::move(msg));
        return;
    }

    line->busy = true;
    stampRegion(*line, msg);
    array_.touch(line);
    Txn &txn = txns_[msg.blockAddr];
    txn.req = MsgType::GetM;
    txn.requestor = msg.sender;
    txn.forwarded = false;
    txn.oldOwner = noL1;
    txn.startTick = eq_->now();

    const L1Id req = msg.sender;

    if (line->st == DirState::S) {
        const bool req_has_copy = isSharer(*line, req);
        const int acks = static_cast<int>(popcount(line->sharers)) -
                         (req_has_copy ? 1 : 0);
        CohMsg rsp;
        rsp.blockAddr = msg.blockAddr;
        rsp.ackCount = acks;
        if (req_has_copy) {
            rsp.type = MsgType::GrantM;
            sendToL1(req, std::move(rsp), cfg_.ctrlLatency);
        } else {
            rsp.type = MsgType::DataM;
            rsp.hasData = true;
            rsp.data = line->data;
            serveData(req, std::move(rsp));
        }
        sendInvs(*line, req, req);
        line->sharers = 0;
        return;
    }

    // X or O.
    ccsvm_assert(line->owner != noL1, "ownerless %s state",
                 dirStateName(line->st));
    if (line->owner == req) {
        // O-owner upgrading: invalidate the other sharers.
        ccsvm_assert(line->st == DirState::O,
                     "X-owner L1 %d re-requesting GetM", req);
        CohMsg rsp;
        rsp.type = MsgType::GrantM;
        rsp.blockAddr = msg.blockAddr;
        rsp.ackCount = static_cast<int>(popcount(line->sharers));
        sendToL1(req, std::move(rsp), cfg_.ctrlLatency);
        sendInvs(*line, req, req);
        line->sharers = 0;
        return;
    }

    const bool req_has_copy = isSharer(*line, req);
    const int acks = static_cast<int>(popcount(line->sharers)) -
                     (req_has_copy ? 1 : 0);
    txn.forwarded = true;
    txn.oldOwner = line->owner;

    CohMsg fwd;
    fwd.type = MsgType::FwdGetM;
    fwd.blockAddr = msg.blockAddr;
    fwd.requestor = req;
    fwd.ackCount = acks;
    sendToL1(line->owner, std::move(fwd), cfg_.ctrlLatency);
    sendInvs(*line, req, req);
    line->sharers = 0;
}

void
Directory::sendInvs(L2Line &line, L1Id skip, L1Id ack_dest)
{
    for (L1Id id = 0; static_cast<std::size_t>(id) < l1s_.size(); ++id) {
        if (id == skip || !isSharer(line, id))
            continue;
        CohMsg inv;
        inv.type = MsgType::Inv;
        inv.blockAddr = line.addr;
        inv.requestor = ack_dest;
        ++(isMttopL1(id) ? invsSentMttop_ : invsSentCpu_);
        ++(line.region == RegionAttr::ProtocolOverride
               ? invsSentOverride_
               : invsSentCoherent_);
        sendToL1(id, std::move(inv), cfg_.ctrlLatency);
    }
}

// ---------------------------------------------------------------------
// Puts
// ---------------------------------------------------------------------

void
Directory::sendPutAck(Addr block_addr, L1Id dst)
{
    CohMsg ack;
    ack.type = MsgType::PutAck;
    ack.blockAddr = block_addr;
    sendToL1(dst, std::move(ack), cfg_.ctrlLatency);
}

void
Directory::serveData(L1Id dst, CohMsg msg)
{
    if (!cfg_.memoryResident) {
        sendToL1(dst, std::move(msg), cfg_.l2DataLatency);
        return;
    }
    // Directory-at-memory: the payload comes from DRAM (counted).
    dram_->access(false, mem::blockBytes,
                  [this, dst, msg = std::move(msg)]() mutable {
                      sendToL1(dst, std::move(msg), cfg_.ctrlLatency);
                  });
}

void
Directory::processPutS(CohMsg &msg, L2Line *line)
{
    // A put can be stale (the block was recalled or ownership moved
    // while the put was in flight); ack unconditionally so the L1 can
    // retire its victim buffer.
    if (line)
        line->sharers &= ~bit(msg.sender);
    sendPutAck(msg.blockAddr, msg.sender);
}

void
Directory::absorbDirtyData(L2Line &line, const CohMsg &msg)
{
    ccsvm_assert(msg.hasData, "dirty %s without data",
                 msgTypeName(msg.type));
    line.data = msg.data;
    if (cfg_.memoryResident) {
        // No shared data cache: flush straight to DRAM.
        ++writebacks_;
        phys_->writeBlock(msg.blockAddr, msg.data.data());
        dram_->access(true, mem::blockBytes, [] {});
    } else {
        line.dirty = true;
    }
}

void
Directory::processPutOwned(CohMsg &msg, L2Line *line)
{
    const bool current_owner = line && line->st != DirState::S &&
                               line->owner == msg.sender;
    if (current_owner) {
        if (msg.dirty)
            absorbDirtyData(*line, msg);
        // A clean PutOwned (E, unmodified) leaves L2 data and dirty
        // flag untouched: the L2 copy was already current.
        line->owner = noL1;
        line->st = DirState::S;
    } else if (line) {
        // Stale put: ownership moved while it was in flight. If a
        // forward raced the eviction, the Unblock re-listed the
        // sender as a sharer — but a PutOwned means it dropped the
        // block entirely, so clear the bit or a later Inv would
        // target an L1 that holds nothing. (The sender cannot have
        // re-acquired the block: it blocks new requests until our
        // PutAck retires its victim buffer.)
        line->sharers &= ~bit(msg.sender);
    }
    sendPutAck(msg.blockAddr, msg.sender);
}

// ---------------------------------------------------------------------
// Bypass-region ops (uncacheable, performed at the home)
// ---------------------------------------------------------------------

void
Directory::processBypass(CohMsg &msg, L2Line *line)
{
    ccsvm_assert(msg.reqSize > 0 && msg.reqSize <= 8 &&
                     msg.reqOffset + msg.reqSize <= mem::blockBytes,
                 "malformed bypass op: off=%u size=%u", msg.reqOffset,
                 msg.reqSize);
    // A bypass region is never cached: its attribute covers every
    // access to its pages, so no L1 can hold a copy. Catch misuse
    // (e.g. a region added after its pages were already cached)
    // before it turns into silent incoherence.
    ccsvm_assert(!line || (line->owner == noL1 && line->sharers == 0),
                 "bypass op to block 0x%llx still cached by L1s",
                 (unsigned long long)msg.blockAddr);

    const bool is_read = msg.type == MsgType::BypassRead;
    ++(is_read ? bypassReads_ : bypassWrites_);

    // Capture only scalars: a CohMsg carries a 64-byte data array,
    // and copying whole messages into nested std::function closures
    // would put a heap allocation on every uncached op of a
    // bypass-heavy sweep.
    const L1Id requestor = msg.sender;
    const Addr block = msg.blockAddr;
    const std::uint64_t id = msg.bypassId;
    auto respond = [this, requestor, block, id](std::uint64_t v,
                                                Tick latency) {
        CohMsg rsp;
        rsp.type = MsgType::BypassResp;
        rsp.blockAddr = block;
        rsp.bypassId = id;
        rsp.wdata = v;
        sendToL1(requestor, std::move(rsp), latency);
    };

    if (line && !cfg_.memoryResident) {
        // Resident L2 copy: the op runs against it at L2 latency. A
        // write leaves the line dirty; the normal recall/writeback
        // path flushes it off-chip eventually.
        array_.touch(line);
        std::uint64_t old_val = 0;
        std::memcpy(&old_val, line->data.data() + msg.reqOffset,
                    msg.reqSize);
        std::uint64_t result = old_val;
        if (msg.type == MsgType::BypassWrite) {
            std::memcpy(line->data.data() + msg.reqOffset, &msg.wdata,
                        msg.reqSize);
            line->dirty = true;
            result = 0;
        } else if (msg.type == MsgType::BypassAmo) {
            const std::uint64_t new_val = amoApply(
                msg.amoOp, old_val, msg.operand, msg.operand2);
            std::memcpy(line->data.data() + msg.reqOffset, &new_val,
                        msg.reqSize);
            line->dirty = true;
        }
        respond(result, cfg_.l2DataLatency);
        return;
    }

    // No resident copy (or a directory-at-memory bank, whose data
    // always lives off-chip): the op is a DRAM transaction. PhysMem
    // is authoritative here — nothing caches a bypass block — and the
    // op is applied inside the DRAM callback so racing bypass ops to
    // the same word serialize in event order. The resident-but-
    // memory-resident line copy (kept current by the fetch path) is
    // patched too so later serveData calls see the write.
    const unsigned off = msg.reqOffset;
    const unsigned size = msg.reqSize;
    const Addr pa = block + off;
    switch (msg.type) {
      case MsgType::BypassRead:
        dram_->access(false, mem::blockBytes,
                      [this, pa, size, respond] {
                          respond(phys_->readScalar(pa, size),
                                  cfg_.ctrlLatency);
                      });
        return;
      case MsgType::BypassWrite: {
        const std::uint64_t wdata = msg.wdata;
        dram_->access(true, mem::blockBytes,
                      [this, block, pa, off, size, wdata, respond] {
            phys_->writeScalar(pa, wdata, size);
            if (L2Line *l = array_.lookup(block))
                std::memcpy(l->data.data() + off, &wdata, size);
            respond(0, cfg_.ctrlLatency);
        });
        return;
      }
      case MsgType::BypassAmo: {
        // Read-modify-write at memory, like the APU's uncached
        // atomics: one read plus one write transaction.
        const AmoOp op = msg.amoOp;
        const std::uint64_t operand = msg.operand;
        const std::uint64_t operand2 = msg.operand2;
        dram_->access(false, mem::blockBytes,
                      [this, block, pa, off, size, op, operand,
                       operand2, respond] {
            const std::uint64_t old_val = phys_->readScalar(pa, size);
            const std::uint64_t new_val =
                amoApply(op, old_val, operand, operand2);
            phys_->writeScalar(pa, new_val, size);
            if (L2Line *l = array_.lookup(block))
                std::memcpy(l->data.data() + off, &new_val, size);
            dram_->access(true, mem::blockBytes, [old_val, respond] {
                respond(old_val, 0);
            });
        });
        return;
      }
      default:
        ccsvm_panic("unreachable");
    }
}

// ---------------------------------------------------------------------
// Unblock
// ---------------------------------------------------------------------

void
Directory::processUnblock(CohMsg &msg)
{
    auto it = txns_.find(msg.blockAddr);
    ccsvm_assert(it != txns_.end(),
                 "Unblock for idle block 0x%llx",
                 (unsigned long long)msg.blockAddr);
    const Txn txn = it->second;
    txns_.erase(it);

    // The home-side view of the transaction: accept to Unblock.
    dirLat_.record(eq_->now() - txn.startTick);
    if (trc_.enabled(sim::traceCoh))
        trc_.complete(sim::traceCoh, lane_,
                      txn.req == MsgType::GetM ? "dir.GetM"
                                               : "dir.GetS",
                      txn.startTick, eq_->now(), msg.blockAddr);

    L2Line *line = array_.lookup(msg.blockAddr);
    ccsvm_assert(line && line->busy, "Unblock for non-busy line");

    if (txn.req == MsgType::GetM) {
        line->st = DirState::X;
        line->owner = txn.requestor;
        line->sharers = 0;
    } else if (txn.forwarded) {
        if (msg.ownerDirty) {
            // Old owner kept a dirty copy: Owned state. Only
            // reachable when this directory offered dirty sharing to
            // the pair, i.e. both clusters have O.
            ccsvm_assert(pairAllowsDirtySharing(
                             policyFor(*line, txn.oldOwner),
                             policyFor(*line, txn.requestor)),
                         "dirty-shared Unblock under a pair without O");
            line->st = DirState::O;
            line->owner = txn.oldOwner;
            line->sharers |= bit(txn.requestor);
        } else {
            if (msg.hasData && msg.dirty) {
                // No dirty sharing for this pair: the requestor
                // carried the old owner's dirty data home; the line
                // becomes clean-shared. Charge the writeback to the
                // cluster that performed it (the requestor's).
                ++sharingWb_;
                ++(isMttopL1(txn.requestor) ? sharingWbMttop_
                                            : sharingWbCpu_);
                absorbDirtyData(*line, msg);
            }
            // The old owner downgraded to S (it was E-clean, or its
            // dirty data just came home); the L2 data is current.
            line->st = DirState::S;
            line->owner = noL1;
            line->sharers |= bit(txn.oldOwner);
            line->sharers |= bit(txn.requestor);
        }
    } else {
        // GetS served from the L2.
        if (msg.finalState == CohState::E) {
            line->st = DirState::X;
            line->owner = txn.requestor;
            line->sharers = 0;
        } else {
            line->sharers |= bit(txn.requestor);
        }
    }

    line->busy = false;
    retryStalled(msg.blockAddr);
    retryStalledAllocs();
}

// ---------------------------------------------------------------------
// Allocation, fetch, and inclusive-eviction recall
// ---------------------------------------------------------------------

void
Directory::allocateAndFetch(CohMsg msg)
{
    L2Line *line = array_.allocate(msg.blockAddr);
    if (!line) {
        L2Line *victim = array_.findVictim(
            msg.blockAddr,
            [](const L2Line &l) { return !l.busy; });
        if (!victim) {
            stalledAllocs_.push_back(std::move(msg));
            return;
        }
        startRecall(victim, std::move(msg));
        return;
    }

    line->busy = true;
    line->st = DirState::S;
    line->owner = noL1;
    line->sharers = 0;
    line->dirty = false;
    stampRegion(*line, msg);

    if (++occLevel_ > occPeak_) {
        occupancy_ += occLevel_ - occPeak_;
        occPeak_ = occLevel_;
    }

    ++fetches_;
    ++(msg.region == RegionAttr::ProtocolOverride ? fetchesOverride_
                                                  : fetchesCoherent_);
    const Addr addr = msg.blockAddr;
    const L1Id requestor = msg.sender;
    const bool want_m = msg.type == MsgType::GetM;
    const ProtocolPolicy *req_policy = &policyForReq(msg);

    Txn &txn = txns_[addr];
    txn.req = want_m ? MsgType::GetM : MsgType::GetS;
    txn.requestor = requestor;
    txn.forwarded = false;
    txn.oldOwner = noL1;
    txn.startTick = eq_->now();

    dram_->access(false, mem::blockBytes, [this, addr, requestor,
                                           want_m, req_policy] {
        L2Line *l = array_.lookup(addr);
        ccsvm_assert(l && l->busy, "fetched line vanished");
        phys_->readBlock(addr, l->data.data());

        CohMsg rsp;
        rsp.blockAddr = addr;
        rsp.hasData = true;
        rsp.data = l->data;
        // Fresh from memory: nobody else holds it; a read fill gets
        // the best state the requestor's (region or cluster) protocol
        // offers.
        rsp.type = want_m ? MsgType::DataM : req_policy->soleCopyFill();
        rsp.ackCount = 0;
        sendToL1(requestor, std::move(rsp), cfg_.l2DataLatency);
    });
}

void
Directory::startRecall(L2Line *victim, CohMsg pending_msg)
{
    ++recallsStat_;
    ++conflictEvictions_;
    if (victim->region == RegionAttr::Coherent)
        ++conflictEvictionsCoherent_;
    victim->busy = true;

    Recall &rec = recalls_[victim->addr];
    rec.pendingReq = std::move(pending_msg);
    rec.acksLeft = static_cast<int>(popcount(victim->sharers));

    if (victim->st != DirState::S) {
        ccsvm_assert(victim->owner != noL1, "ownerless recall");
        ++rec.acksLeft;
        CohMsg recall;
        recall.type = MsgType::Recall;
        recall.blockAddr = victim->addr;
        sendToL1(victim->owner, std::move(recall), cfg_.ctrlLatency);
    }
    // Invalidate all sharers with acks routed back here.
    sendInvs(*victim, noL1, noL1);
    victim->sharers = 0;
    victim->owner = noL1;

    if (rec.acksLeft == 0)
        finishRecall(victim->addr);
}

void
Directory::processRecallResponse(CohMsg &msg)
{
    auto it = recalls_.find(msg.blockAddr);
    ccsvm_assert(it != recalls_.end(),
                 "%s without recall in flight", msgTypeName(msg.type));
    Recall &rec = it->second;

    if (msg.type == MsgType::RecallData && msg.dirty) {
        L2Line *line = array_.lookup(msg.blockAddr);
        ccsvm_assert(line, "recalled line vanished");
        line->data = msg.data;
        line->dirty = true;
    }
    if (--rec.acksLeft == 0)
        finishRecall(msg.blockAddr);
}

void
Directory::finishRecall(Addr victim_addr)
{
    auto it = recalls_.find(victim_addr);
    ccsvm_assert(it != recalls_.end(), "finishRecall without recall");
    CohMsg pending = std::move(it->second.pendingReq);
    recalls_.erase(it);

    L2Line *line = array_.lookup(victim_addr);
    ccsvm_assert(line && line->busy, "recalled line not busy");

    if (line->dirty) {
        ++writebacks_;
        // Functional write happens now; the DRAM model charges timing
        // and counts the off-chip transaction.
        phys_->writeBlock(victim_addr, line->data.data());
        dram_->access(true, mem::blockBytes, [] {});
    }
    array_.invalidate(line);
    ccsvm_assert(occLevel_ > 0, "occupancy underflow");
    --occLevel_;

    // Any puts stalled on the victim are now stale; let them retire.
    retryStalled(victim_addr);

    // Process the allocation that triggered the recall.
    handleMessage(std::move(pending));
}

// ---------------------------------------------------------------------
// Messaging helper
// ---------------------------------------------------------------------

void
Directory::sendToL1(L1Id dst, CohMsg msg, Tick extra_latency)
{
    ccsvm_assert(dst >= 0 &&
                     static_cast<std::size_t>(dst) < l1s_.size(),
                 "bad L1 id %d", dst);
    L1Controller *l1 = l1s_[dst].ctrl;
    const unsigned bytes = msg.wireBytes();
    const noc::VNet vnet = msg.vnet();
    const noc::NodeId dst_node = l1s_[dst].node;
    eq_->scheduleIn(extra_latency, [this, l1, dst_node, vnet, bytes,
                                    msg = std::move(msg)]() mutable {
        net_->send(node_, dst_node, vnet, bytes,
                   [l1, msg = std::move(msg)]() mutable {
                       l1->handleMessage(std::move(msg));
                   });
    });
}

} // namespace ccsvm::coherence
