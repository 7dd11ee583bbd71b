#include "noc/torus.hh"

#include "base/logging.hh"

namespace ccsvm::noc
{

namespace
{

/**
 * Signed shortest displacement from @p a to @p b on a ring of length
 * @p n: positive means move in the increasing direction.
 */
int
ringDelta(int a, int b, int n)
{
    int d = (b - a) % n;
    if (d < 0)
        d += n;
    if (d > n / 2 && n - d < d)
        d -= n;
    return d;
}

/** The hop from @p at toward @p dst on a @p w x @p h torus under XY
 * dimension-order routing with shortest wrap. Links are numbered 4
 * per node: +X -X +Y -Y. */
TorusNetwork::Route
routeFor(NodeId at, NodeId dst, int w, int h)
{
    const int ax = at % w, ay = at / w;
    const int dx = ringDelta(ax, dst % w, w);
    if (dx != 0) {
        const int nx = (ax + (dx > 0 ? 1 : w - 1)) % w;
        return {ay * w + nx, at * 4 + (dx > 0 ? 0 : 1)};
    }
    const int dy = ringDelta(ay, dst / w, h);
    if (dy != 0) {
        const int ny = (ay + (dy > 0 ? 1 : h - 1)) % h;
        return {ny * w + ax, at * 4 + (dy > 0 ? 2 : 3)};
    }
    return {at, -1};
}

} // namespace

TorusNetwork::TorusNetwork(sim::EventQueue &eq, sim::StatRegistry &stats,
                           const std::string &name,
                           const TorusConfig &cfg)
    : eq_(&eq), cfg_(cfg), clock_(eq, cfg.clockPeriod),
      linkFree_(static_cast<std::size_t>(cfg.width) * cfg.height * 4, 0),
      packets_(stats.counter(name + ".packets", "packets injected")),
      bytes_(stats.counter(name + ".bytes", "payload bytes injected")),
      hops_(stats.counter(name + ".hops", "total link traversals")),
      latency_(stats.distribution(name + ".latency",
                                  "end-to-end packet latency (ticks)")),
      trc_(stats.tracer()), lane_(stats.tracer().lane(name))
{
    ccsvm_assert(cfg.width >= 1 && cfg.height >= 1,
                 "torus dimensions must be positive");
    const int n = cfg.width * cfg.height;
    routes_.reserve(static_cast<std::size_t>(n) * n);
    for (NodeId at = 0; at < n; ++at)
        for (NodeId dst = 0; dst < n; ++dst)
            routes_.push_back(routeFor(at, dst, cfg.width, cfg.height));
}

NodeId
TorusNetwork::nextHop(NodeId at, NodeId dst) const
{
    return route(at, dst).next;
}

int
TorusNetwork::hopCount(NodeId src, NodeId dst) const
{
    int hops = 0;
    NodeId at = src;
    while (at != dst) {
        at = nextHop(at, dst);
        ++hops;
        ccsvm_assert(hops <= cfg_.width + cfg_.height,
                     "routing loop from %d to %d", src, dst);
    }
    return hops;
}

Tick
TorusNetwork::serializationTicks(unsigned bytes) const
{
    // GB/s == bytes/ns; convert to ticks (ps).
    const double ns =
        static_cast<double>(bytes) / cfg_.linkBandwidthGBps;
    const auto t = static_cast<Tick>(ns * tickNs);
    return t > 0 ? t : 1;
}

void
TorusNetwork::send(NodeId src, NodeId dst, VNet, unsigned bytes,
                   Deliver deliver)
{
    ccsvm_assert(src >= 0 && src < numNodes(), "bad src node %d", src);
    ccsvm_assert(dst >= 0 && dst < numNodes(), "bad dst node %d", dst);

    ++packets_;
    bytes_ += bytes;

    PacketId id;
    if (freeSlots_.empty()) {
        id = static_cast<PacketId>(inFlight_.size());
        inFlight_.emplace_back();
    } else {
        id = freeSlots_.back();
        freeSlots_.pop_back();
    }
    inFlight_[id] = Packet{dst, bytes, eq_->now(), std::move(deliver)};
    if (src == dst) {
        // Local delivery still pays one router traversal.
        eq_->schedule(clock_.clockEdge(cfg_.hopLatency),
                      [this, id] { arrive(id); }, sim::prioNetwork);
        return;
    }
    forward(id, src);
}

void
TorusNetwork::forward(PacketId id, NodeId at)
{
    const Packet &pkt = inFlight_[id];
    if (at == pkt.dst) {
        arrive(id);
        return;
    }
    const Route &r = route(at, pkt.dst);

    const Tick ser = serializationTicks(pkt.bytes);
    const Tick depart = std::max(clock_.clockEdge(), linkFree_[r.link]);
    linkFree_[r.link] = depart + ser;
    const Tick arrival =
        depart + ser + clock_.cyclesToTicks(cfg_.hopLatency);
    ++hops_;

    eq_->schedule(arrival,
                  [this, id, next = r.next] { forward(id, next); },
                  sim::prioNetwork);
}

void
TorusNetwork::arrive(PacketId id)
{
    Packet &pkt = inFlight_[id];
    latency_.record(static_cast<double>(eq_->now() - pkt.start));
    if (trc_.enabled(sim::traceNoc))
        trc_.complete(sim::traceNoc, lane_, "pkt", pkt.start,
                      eq_->now(), pkt.bytes);
    // Free the slot first: delivering may send (and so reuse it).
    Deliver deliver = std::move(pkt.deliver);
    freeSlots_.push_back(id);
    deliver();
}

} // namespace ccsvm::noc
