/**
 * @file
 * 2D torus interconnect (the paper's Figure 1 topology).
 *
 * Packets are routed hop-by-hop with dimension-order (X then Y)
 * routing, taking the shorter wraparound direction in each dimension.
 * Each directional physical link models serialization at the configured
 * bandwidth (Table 2: 12 GB/s) plus a per-hop router+link latency; a
 * link busy with one packet delays the next (FIFO occupancy), which
 * both orders same-path messages and models contention.
 */

#ifndef CCSVM_NOC_TORUS_HH
#define CCSVM_NOC_TORUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "noc/network.hh"
#include "sim/clock.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace ccsvm::noc
{

/** Torus configuration. */
struct TorusConfig
{
    int width = 5;    ///< nodes per row (X dimension)
    int height = 4;   ///< nodes per column (Y dimension)
    double linkBandwidthGBps = 12.0;  ///< Table 2
    Cycles hopLatency = 2;  ///< router traversal + link, in NoC cycles
    Tick clockPeriod = 1000; ///< 1 GHz NoC clock
};

/** 2D torus with XY routing and per-link occupancy. */
class TorusNetwork : public Network
{
  public:
    TorusNetwork(sim::EventQueue &eq, sim::StatRegistry &stats,
                 const std::string &name, const TorusConfig &cfg);

    void send(NodeId src, NodeId dst, VNet vnet, unsigned bytes,
              Deliver deliver) override;

    int numNodes() const override { return cfg_.width * cfg_.height; }

    /**
     * Next hop from @p at toward @p dst under XY dimension-order
     * routing with shortest wrap. Exposed for unit tests.
     */
    NodeId nextHop(NodeId at, NodeId dst) const;

    /** Minimal hop count between two nodes (for tests). */
    int hopCount(NodeId src, NodeId dst) const;

    /** The hop from one node toward a destination. */
    struct Route
    {
        NodeId next; ///< next node (the node itself at the destination)
        int link;    ///< index into linkFree_, or -1 at the destination
    };

  private:
    /** An in-flight packet. It waits in inFlight_ (delivery closure
     * and all) while its hop events carry only its slot index, so a
     * hop moves a 16-byte closure, not the message. */
    struct Packet
    {
        NodeId dst = 0;
        unsigned bytes = 0;
        Tick start = 0; ///< injection tick
        Deliver deliver;
    };
    using PacketId = std::uint32_t;

    const Route &
    route(NodeId at, NodeId dst) const
    {
        const std::size_t n =
            static_cast<std::size_t>(cfg_.width) * cfg_.height;
        return routes_[at * n + dst];
    }

    /** Advance packet @p id from node @p at; called once per hop. */
    void forward(PacketId id, NodeId at);
    /** Record packet @p id's latency, free its slot and deliver it. */
    void arrive(PacketId id);

    Tick serializationTicks(unsigned bytes) const;

    sim::EventQueue *eq_;
    TorusConfig cfg_;
    sim::ClockDomain clock_;
    /** busy-until tick per directional link (4 per node: +X -X +Y -Y). */
    std::vector<Tick> linkFree_;
    /** Route from every node to every destination, at * numNodes() +
     * dst, computed once so a hop does no modulo arithmetic. */
    std::vector<Route> routes_;
    std::vector<Packet> inFlight_;
    std::vector<PacketId> freeSlots_;

    sim::Counter &packets_;
    sim::Counter &bytes_;
    sim::Counter &hops_;
    sim::Distribution &latency_;

    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::noc

#endif // CCSVM_NOC_TORUS_HH
