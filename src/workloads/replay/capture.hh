/**
 * @file
 * Trace capture: records the guest-side op stream of one run into a
 * `.ccsvmt` file (docs/TRACE_FORMAT.md).
 *
 * One CaptureStream per guest hardware thread (CPU threads keyed by
 * core index, MTTOP threads by launch id + tid) implements core::OpSink
 * and delta-encodes each op into a per-stream buffer at record time.
 * Once the buffers together hold enough bytes, every buffer is flushed
 * to the file in a canonical stream order; the machine's op order is
 * deterministic, so the file is too. Recording itself touches no
 * simulated state, schedules no events and registers no stats: a
 * captured run's stat dump is byte-identical to an uncaptured one.
 */

#ifndef CCSVM_WORKLOADS_REPLAY_CAPTURE_HH
#define CCSVM_WORKLOADS_REPLAY_CAPTURE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/guest_ops.hh"
#include "workloads/replay/trace_format.hh"

namespace ccsvm::runtime
{
class Process;
} // namespace ccsvm::runtime

namespace ccsvm::mem
{
class PhysMem;
} // namespace ccsvm::mem

namespace ccsvm::vm
{
class AddressSpace;
} // namespace ccsvm::vm

namespace ccsvm::workloads::replay
{

class TraceCapture;

/** The op sink for one guest thread: encodes records into a buffer
 * owned by this stream; the owning TraceCapture flushes it. All
 * delta state (previous tick, previous vaddr) lives
 * here and persists across chunks. */
class CaptureStream final : public core::OpSink
{
  public:
    void record(core::GuestOp &op, Tick now) override;

  private:
    friend class TraceCapture;

    CaptureStream(TraceCapture *owner, StreamKind kind,
                  std::uint64_t a, std::uint64_t b)
        : owner_(owner), kind_(kind), a_(a), b_(b)
    {}

    TraceCapture *owner_;
    StreamKind kind_;
    std::uint64_t a_; ///< cpu: core index; mttop: launch id
    std::uint64_t b_; ///< cpu: spawn sequence; mttop: thread id
    std::vector<std::uint8_t> buf_;
    std::uint64_t bufRecords_ = 0;
    std::uint64_t totalRecords_ = 0;
    Tick prevTick_ = 0;
    std::uint64_t prevVa_ = 0;
    /** File stream id; assigned at first flush, -1 until then. */
    std::int64_t fileId_ = -1;
};

/**
 * Whole-file capture state for one machine. Constructed by
 * CcsvmMachine when `captureOut` is set; armed at the start of
 * runMain (which snapshots the pre-run page mappings); finalized
 * after the run quiesces.
 */
class TraceCapture
{
  public:
    TraceCapture(const TraceShape &shape, std::string path,
                 unsigned num_cpu_cores);
    ~TraceCapture();

    TraceCapture(const TraceCapture &) = delete;
    TraceCapture &operator=(const TraceCapture &) = delete;

    /** Start recording: write the header, region table, and the
     * premap snapshot of @p proc's current page mappings.
     * @throws std::runtime_error when the output cannot be opened. */
    void arm(runtime::Process &proc, mem::PhysMem &phys);

    bool armed() const { return armed_ && !finalized_; }

    /** Sink for the CPU thread spawned on @p core_idx. */
    core::OpSink *cpuStream(unsigned core_idx);

    /** Sink for MTTOP thread @p tid of a captured launch; returns
     * null for tasks that were not launched under capture. */
    core::OpSink *mttopStream(const core::TaskDescriptor &desc,
                              ThreadId tid);

    /** Flush everything, emit the End block, and close the file. */
    void finalize();

  private:
    friend class CaptureStream;

    std::uint64_t nextLaunchId() { return ++launchSeq_; }
    /** Account @p bytes newly buffered by a stream; flushes every
     * stream once the total reaches the threshold. */
    void buffered(std::size_t bytes);
    void writeRaw(const void *data, std::size_t len);
    void writeVec(const std::vector<std::uint8_t> &v);
    /** Flush every non-empty stream buffer in canonical order:
     * CPU streams by core index, then MTTOP streams in map order. */
    void flushStreams();
    void flushOne(CaptureStream &s);
    void emitStreamDef(CaptureStream &s);

    TraceShape shape_;
    std::string path_;
    std::ofstream out_;
    Fnv1a fnv_;
    bool armed_ = false;
    bool finalized_ = false;
    std::uint64_t launchSeq_ = 0;
    std::int64_t nextFileId_ = 0;
    std::uint64_t totalRecords_ = 0;
    std::uint64_t streamCount_ = 0;
    /** Bytes buffered across all streams since the last flush. */
    std::size_t pending_ = 0;
    /** Region lookup for attr codes; set at arm(). Const use only. */
    const vm::AddressSpace *as_ = nullptr;

    std::vector<std::unique_ptr<CaptureStream>> cpuStreams_;
    std::map<std::pair<std::uint64_t, ThreadId>,
             std::unique_ptr<CaptureStream>>
        mttopStreams_;
};

} // namespace ccsvm::workloads::replay

#endif // CCSVM_WORKLOADS_REPLAY_CAPTURE_HH
