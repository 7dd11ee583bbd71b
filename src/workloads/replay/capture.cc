#include "workloads/replay/capture.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "base/logging.hh"
#include "mem/phys_mem.hh"
#include "runtime/process.hh"
#include "vm/kernel.hh"

namespace ccsvm::workloads::replay
{

namespace
{

/** Summed buffered bytes that triggers a flush of every stream. */
constexpr std::size_t flushThresholdBytes = 256 * 1024;

std::uint8_t
attrCode(const vm::MemRegion *mr)
{
    if (mr == nullptr)
        return attrNone;
    switch (mr->attr) {
      case coherence::RegionAttr::Coherent: return attrCoherent;
      case coherence::RegionAttr::Bypass: return attrBypass;
      case coherence::RegionAttr::ProtocolOverride: return attrOverride;
    }
    ccsvm_panic("unknown region attr");
}

/** Collect the leaf mappings of a page table by functional radix
 * scan; @p vpn_prefix accumulates the virtual page number. */
void
scanTable(const mem::PhysMem &phys, Addr table, unsigned lvl,
          std::uint64_t vpn_prefix, std::vector<PremapEntry> &out)
{
    for (std::uint64_t i = 0; i <= vm::levelMask; ++i) {
        const std::uint64_t pte =
            phys.readScalar(table + i * vm::pteSize, vm::pteSize);
        if (!(pte & vm::pteValid))
            continue;
        const std::uint64_t vpn = (vpn_prefix << vm::bitsPerLevel) | i;
        if (lvl == vm::levels - 1) {
            out.push_back(
                {vpn,
                 pte & ~mem::pageOffsetMask &
                     ~std::uint64_t(vm::pteValid | vm::pteWritable),
                 (pte & vm::pteWritable) != 0});
        } else {
            scanTable(phys, pte & ~mem::pageOffsetMask, lvl + 1, vpn,
                      out);
        }
    }
}

} // namespace

// --- CaptureStream ---------------------------------------------------

void
CaptureStream::record(core::GuestOp &op, Tick now)
{
    using core::OpKind;

    ccsvm_assert(now >= prevTick_,
                 "capture stream ticks went backwards");

    RecKind kind{};
    switch (op.kind) {
      case OpKind::Load: kind = RecKind::Load; break;
      case OpKind::Store: kind = RecKind::Store; break;
      case OpKind::Amo: kind = RecKind::Amo; break;
      case OpKind::Compute: kind = RecKind::Compute; break;
      case OpKind::Stall: kind = RecKind::Stall; break;
      case OpKind::MifdWrite: kind = RecKind::Launch; break;
      case OpKind::HostWait:
        ccsvm_panic("trace capture does not support HostWait ops; "
                    "run this workload without --capture-out");
    }

    unsigned size_log2 = 0;
    std::uint8_t attr = attrNone;
    const vm::MemRegion *mr = nullptr;
    if (op.isMemory()) {
        ccsvm_assert(op.size != 0 && std::has_single_bit(op.size) &&
                         op.size <= 8,
                     "unencodable access size %u", op.size);
        size_log2 = static_cast<unsigned>(std::countr_zero(op.size));
        mr = owner_->as_->regionFor(op.va);
        attr = attrCode(mr);
    }

    const std::size_t before = buf_.size();
    buf_.push_back(packOpcode(kind, size_log2, attr));
    putVarint(buf_, now - prevTick_);
    prevTick_ = now;

    if (op.isMemory()) {
        putVarint(buf_, zigzag(static_cast<std::int64_t>(
                            op.va - prevVa_)));
        prevVa_ = op.va;
        if (attr == attrOverride)
            buf_.push_back(static_cast<std::uint8_t>(mr->protocol));
    }

    switch (kind) {
      case RecKind::Load:
        break;
      case RecKind::Store:
        putVarint(buf_, op.wdata);
        break;
      case RecKind::Amo:
        buf_.push_back(static_cast<std::uint8_t>(op.amoOp));
        putVarint(buf_, op.operand);
        putVarint(buf_, op.operand2);
        break;
      case RecKind::Compute:
        putVarint(buf_, op.computeCount);
        break;
      case RecKind::Stall:
        putVarint(buf_, op.stallTicks);
        break;
      case RecKind::Launch: {
        core::TaskDescriptor *task = op.task.get();
        ccsvm_assert(task, "MIFD write without a task descriptor");
        // Stamp the descriptor so MTTOP-side capture can key the
        // launched threads' streams back to this launch.
        task->captureId = owner_->nextLaunchId();
        putVarint(buf_, task->captureId);
        putVarint(buf_, task->firstTid);
        putVarint(buf_, task->lastTid - task->firstTid);
        buf_.push_back(task->requireAll ? 1 : 0);
        putVarint(buf_, task->args);
        break;
      }
    }
    ++bufRecords_;
    ++totalRecords_;
    owner_->buffered(buf_.size() - before);
}

// --- TraceCapture ----------------------------------------------------

TraceCapture::TraceCapture(const TraceShape &shape, std::string path,
                           unsigned num_cpu_cores)
    : shape_(shape), path_(std::move(path))
{
    cpuStreams_.reserve(num_cpu_cores);
    for (unsigned i = 0; i < num_cpu_cores; ++i) {
        cpuStreams_.push_back(std::unique_ptr<CaptureStream>(
            new CaptureStream(this, StreamKind::Cpu, i, 0)));
    }
}

TraceCapture::~TraceCapture()
{
    if (armed_ && !finalized_)
        finalize();
}

void
TraceCapture::writeRaw(const void *data, std::size_t len)
{
    fnv_.update(data, len);
    out_.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(len));
}

void
TraceCapture::writeVec(const std::vector<std::uint8_t> &v)
{
    if (!v.empty())
        writeRaw(v.data(), v.size());
}

void
TraceCapture::arm(runtime::Process &proc, mem::PhysMem &phys)
{
    ccsvm_assert(!armed_ && !finalized_,
                 "trace capture armed twice");
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_)
        throw std::runtime_error("cannot open capture output '" + path_ +
                                 "'");
    as_ = &proc.addressSpace();

    // Fixed 64-byte header.
    std::vector<std::uint8_t> h;
    h.insert(h.end(), traceMagic, traceMagic + sizeof(traceMagic));
    put32(h, traceVersion);
    put32(h, traceHeaderBytes);
    put32(h, shape_.numCpuCores);
    put32(h, shape_.numMttopCores);
    put32(h, shape_.mttopContexts);
    put32(h, shape_.numL2Banks);
    put32(h, shape_.blockBytes);
    put32(h, shape_.pageBytes);
    put64(h, shape_.framePoolBase);
    put64(h, shape_.physMemBytes);
    h.push_back(shape_.protocol);
    h.push_back(shape_.cpuProtocol);
    h.push_back(shape_.mttopProtocol);
    h.push_back(shape_.sliceHash);
    h.resize(traceHeaderBytes, 0);
    writeVec(h);

    // Region table of the traced process.
    std::vector<std::uint8_t> r;
    const auto &regions = as_->regions().regions();
    putVarint(r, regions.size());
    for (const auto &[base, mr] : regions) {
        putVarint(r, mr.name.size());
        r.insert(r.end(), mr.name.begin(), mr.name.end());
        putVarint(r, mr.base);
        putVarint(r, mr.size);
        r.push_back(attrCode(&mr));
        r.push_back(static_cast<std::uint8_t>(mr.protocol));
    }
    writeVec(r);

    // Premap snapshot: the pages mapped before guest execution
    // started (host-side writeGuest init). Sorted by frame — bump
    // allocation with no frees pre-run makes that the original
    // mapping order, which replay must reproduce so the frame
    // allocator evolves identically. Mappings created mid-run by
    // page faults are deliberately NOT snapshotted: the replayed
    // faults recreate them (and their latency and stats).
    std::vector<PremapEntry> premap;
    scanTable(phys, as_->pageTable().root(), 0, 0, premap);
    std::sort(premap.begin(), premap.end(),
              [](const PremapEntry &x, const PremapEntry &y) {
                  return x.frame < y.frame;
              });
    std::vector<std::uint8_t> p;
    putVarint(p, premap.size());
    std::uint64_t prev_frame = shape_.framePoolBase;
    std::uint64_t prev_vpn = 0;
    for (const PremapEntry &e : premap) {
        putVarint(p, e.frame - prev_frame);
        putVarint(p, zigzag(static_cast<std::int64_t>(
                          e.vpn - prev_vpn)));
        p.push_back(e.writable ? 1 : 0);
        prev_frame = e.frame;
        prev_vpn = e.vpn;
    }
    writeVec(p);

    armed_ = true;
}

core::OpSink *
TraceCapture::cpuStream(unsigned core_idx)
{
    ccsvm_assert(core_idx < cpuStreams_.size(),
                 "capture for unknown CPU core %u", core_idx);
    return cpuStreams_[core_idx].get();
}

core::OpSink *
TraceCapture::mttopStream(const core::TaskDescriptor &desc,
                          ThreadId tid)
{
    if (desc.captureId == 0)
        return nullptr; // task launched outside the captured window
    auto &slot = mttopStreams_[{desc.captureId, tid}];
    if (!slot) {
        slot.reset(new CaptureStream(this, StreamKind::Mttop,
                                     desc.captureId, tid));
    }
    return slot.get();
}

void
TraceCapture::emitStreamDef(CaptureStream &s)
{
    s.fileId_ = nextFileId_++;
    ++streamCount_;
    std::vector<std::uint8_t> d;
    d.push_back(tagStreamDef);
    putVarint(d, static_cast<std::uint64_t>(s.fileId_));
    d.push_back(static_cast<std::uint8_t>(s.kind_));
    putVarint(d, s.a_);
    putVarint(d, s.b_);
    writeVec(d);
}

void
TraceCapture::flushOne(CaptureStream &s)
{
    if (s.buf_.empty())
        return;
    if (s.fileId_ < 0)
        emitStreamDef(s);
    std::vector<std::uint8_t> c;
    c.push_back(tagChunk);
    putVarint(c, static_cast<std::uint64_t>(s.fileId_));
    putVarint(c, s.bufRecords_);
    putVarint(c, s.buf_.size());
    writeVec(c);
    writeVec(s.buf_);
    totalRecords_ += s.bufRecords_;
    s.buf_.clear();
    s.bufRecords_ = 0;
}

void
TraceCapture::flushStreams()
{
    for (auto &s : cpuStreams_)
        flushOne(*s);
    for (auto &[key, s] : mttopStreams_)
        flushOne(*s);
    pending_ = 0;
}

void
TraceCapture::buffered(std::size_t bytes)
{
    pending_ += bytes;
    if (armed() && pending_ >= flushThresholdBytes)
        flushStreams();
}

void
TraceCapture::finalize()
{
    ccsvm_assert(armed_ && !finalized_,
                 "finalize of an unarmed capture");
    flushStreams();
    // Streams that never buffered a record still need their
    // definition so replay sees every spawned thread.
    for (auto &s : cpuStreams_) {
        if (s->fileId_ < 0)
            emitStreamDef(*s);
    }
    for (auto &[key, s] : mttopStreams_) {
        if (s->fileId_ < 0)
            emitStreamDef(*s);
    }
    std::vector<std::uint8_t> e;
    e.push_back(tagEnd);
    putVarint(e, totalRecords_);
    putVarint(e, streamCount_);
    // The checksum covers every byte before it, including the End
    // tag and counts just written.
    fnv_.update(e.data(), e.size());
    const std::uint64_t sum = fnv_.value();
    put64(e, sum);
    out_.write(reinterpret_cast<const char *>(e.data()),
               static_cast<std::streamsize>(e.size()));
    out_.close();
    if (!out_)
        ccsvm_panic("error writing capture output '%s'",
                    path_.c_str());
    finalized_ = true;
}

} // namespace ccsvm::workloads::replay
