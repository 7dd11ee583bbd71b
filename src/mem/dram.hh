/**
 * @file
 * Off-chip DRAM timing model and access counters.
 *
 * The paper's Table 2 specifies a flat access latency (100 ns for the
 * CCSVM system, 72 ns for the APU); we add a channel-bandwidth limit so
 * heavy streams queue realistically. Figure 9 is reproduced from this
 * model's read/write counters: every 64-byte transaction that leaves
 * the chip is counted here.
 */

#ifndef CCSVM_MEM_DRAM_HH
#define CCSVM_MEM_DRAM_HH

#include <string>
#include <utility>

#include "base/types.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace ccsvm::mem
{

/** Configuration for one DRAM channel group. */
struct DramConfig
{
    /** Flat access latency, in ticks. */
    Tick accessLatency = 100 * tickNs;
    /** Aggregate channel bandwidth in bytes per tick times 2^20
     * scaling is avoided: we store GB/s and convert. */
    double bandwidthGBps = 12.8;
};

/**
 * A bandwidth-limited, fixed-latency DRAM controller.
 *
 * Requests complete after queuing (serialization at the configured
 * bandwidth) plus the flat access latency. Counts off-chip reads and
 * writes for the Figure 9 experiment.
 */
class DramCtrl
{
  public:
    DramCtrl(sim::EventQueue &eq, sim::StatRegistry &stats,
             const std::string &name, const DramConfig &cfg)
        : eq_(&eq), cfg_(cfg),
          reads_(stats.counter(name + ".reads",
                               "off-chip DRAM read transactions")),
          writes_(stats.counter(name + ".writes",
                                "off-chip DRAM write transactions")),
          bytes_(stats.counter(name + ".bytes",
                               "off-chip DRAM bytes transferred"))
    {}

    /**
     * Issue one transaction of @p bytes at the controller.
     * @param is_write direction of the transfer
     * @param on_done invoked when the data (read) or the completion
     *        ack (write) is available
     */
    void
    access(bool is_write, unsigned bytes,
           sim::EventQueue::Callback on_done)
    {
        if (is_write)
            ++writes_;
        else
            ++reads_;
        bytes_ += bytes;

        const Tick ser = serializationTicks(bytes);
        const Tick start = std::max(eq_->now(), channelFree_);
        channelFree_ = start + ser;
        const Tick done = start + ser + cfg_.accessLatency;
        eq_->schedule(done, std::move(on_done));
    }

    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }

  private:
    Tick
    serializationTicks(unsigned bytes) const
    {
        // bytes / (GB/s) in picoseconds: 1 GB/s = 1 byte/ns.
        const double ns = static_cast<double>(bytes) / cfg_.bandwidthGBps;
        return static_cast<Tick>(ns * tickNs);
    }

    sim::EventQueue *eq_;
    DramConfig cfg_;
    Tick channelFree_ = 0;
    sim::Counter &reads_;
    sim::Counter &writes_;
    sim::Counter &bytes_;
};

} // namespace ccsvm::mem

#endif // CCSVM_MEM_DRAM_HH
