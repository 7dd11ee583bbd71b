/**
 * @file
 * Message-level on-chip network interface.
 *
 * The coherence protocol exchanges typed messages between controllers;
 * the network's job is purely timing: given source node, destination
 * node, virtual network and size, decide when the receiver's delivery
 * closure runs. Three virtual networks (request, forward, response)
 * mirror the paper's directory protocol; with unbounded buffering they
 * cannot deadlock, but keeping them distinct preserves per-class
 * statistics and point-to-point ordering semantics.
 */

#ifndef CCSVM_NOC_NETWORK_HH
#define CCSVM_NOC_NETWORK_HH

#include "base/types.hh"
#include "sim/callback.hh"

namespace ccsvm::noc
{

/** Virtual network classes, ordered by protocol priority. */
enum class VNet : unsigned
{
    Request = 0,   ///< GetS/GetM/Put* from L1s to the directory
    Forward = 1,   ///< Fwd/Inv/Recall from the directory to L1s
    Response = 2,  ///< Data, Acks, Unblock
    NumVNets = 3,
};

/** Identifier of an endpoint attached to the network. */
using NodeId = int;

/** Abstract network: torus for the CCSVM chip, crossbar for the APU. */
class Network
{
  public:
    /** The receiver's delivery closure; held inline, never on the
     * heap (see sim/callback.hh for the capacity rule). */
    using Deliver = sim::InlineCallback;

    virtual ~Network() = default;

    /**
     * Send a message of @p bytes from @p src to @p dst; @p deliver runs
     * at the arrival tick. Messages between the same (src, dst) pair on
     * the same virtual network are delivered in send order.
     */
    virtual void send(NodeId src, NodeId dst, VNet vnet, unsigned bytes,
                      Deliver deliver) = 0;

    /** Number of attachable endpoints. */
    virtual int numNodes() const = 0;
};

} // namespace ccsvm::noc

#endif // CCSVM_NOC_NETWORK_HH
