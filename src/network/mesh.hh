/**
 * @file
 * The interconnection network model.
 *
 * The paper charges every message a fixed transit latency derived from
 * the average path on a 2-D mesh with a 40 ns per-hop fall-through time
 * (Section 3.2): one hop to enter, the average internal hop count, one
 * hop to exit, plus 3 cycles of header. For 16 processors this comes to
 * 22 cycles; the same geometry formula scales the latency for the
 * 64-processor runs of Section 4.5.
 *
 * Optionally the model charges actual per-pair Manhattan distances
 * instead of the average (distanceBased), which the paper's simulator
 * did not do; the default matches the paper.
 *
 * Every delivery is scheduled with a (source node, per-source sequence)
 * key (EventQueue::scheduleNet), which fixes the order of same-tick
 * deliveries independently of the order they were sent in.
 */

#ifndef FLASHSIM_NETWORK_MESH_HH_
#define FLASHSIM_NETWORK_MESH_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flashsim::network
{

/** Per-hop fall-through time (40 ns) and header cycles per message. */
inline constexpr Cycles kPerHop = 4;
inline constexpr Cycles kHeader = 3;

struct MeshParams
{
    bool distanceBased = false; ///< per-pair distance instead of average

    bool operator==(const MeshParams &) const = default;
};

class MeshNetwork
{
  public:
    using Deliver = std::function<void(const protocol::Message &)>;

    /** fatal() unless 1 <= @p num_nodes <= EventQueue::kMaxNetNodes. */
    MeshNetwork(EventQueue &eq, int num_nodes, MeshParams params = {});

    /** Register node @p n's delivery callback (its NI inbound). */
    void connect(NodeId n, Deliver deliver);

    /** Inject a message; it is delivered after its transit latency. */
    void send(const protocol::Message &msg);

    /**
     * Inject a message that leaves its source NI at @p departure
     * (>= now): delivered at departure + transit. Equivalent to
     * scheduling an event at @p departure that calls send(), minus
     * that intermediate event — the sender's outbox hands the future
     * departure time straight to the network. Under an active
     * perturbation this falls back to the two-stage path, because the
     * anti-reordering clamp must observe sends in departure order.
     */
    void sendAt(const protocol::Message &msg, Tick departure);

    /** Average transit latency in cycles (22 for 16 nodes). */
    Cycles avgTransit() const { return avgTransit_; }

    /** Transit latency charged for a specific pair. Self-sends never
     *  enter the mesh and pay only entry/exit + header, in both
     *  modes. */
    Cycles transit(NodeId src, NodeId dest) const;

    /** Mesh side length (smallest square covering num_nodes). */
    int side() const { return side_; }

    /**
     * Install a per-message transit perturbation (fault injection:
     * contention jitter). Extra cycles returned by @p perturb are added
     * to the transit, with delivery clamped so no message overtakes an
     * earlier one on the same (src, dest) pair — the protocol's
     * NACK/retry convergence depends on point-to-point FIFO order.
     * Pass an empty function to remove.
     */
    void setPerturb(std::function<Cycles(const protocol::Message &)> p);

    /** Total messages injected. */
    Counter messages() const { return messages_; }
    /** Data-carrying messages injected. */
    Counter dataMessages() const { return dataMessages_; }

  private:
    /** Schedule @p msg's delivery at @p when; the event carries the
     *  message by value. */
    void inject(const protocol::Message &msg, Tick when);

    EventQueue &eq_;
    int numNodes_;
    int side_;
    MeshParams params_;
    Cycles avgTransit_;
    std::vector<Deliver> deliver_;
    std::function<Cycles(const protocol::Message &)> perturb_;
    /** Last scheduled delivery per (src, dest), perturbed mode only. */
    std::vector<Tick> lastDelivery_;
    Counter messages_ = 0;
    Counter dataMessages_ = 0;
    /** Per-source monotonic send sequence: the delivery sort key. */
    std::vector<std::uint64_t> srcSeq_;
};

} // namespace flashsim::network

#endif // FLASHSIM_NETWORK_MESH_HH_
