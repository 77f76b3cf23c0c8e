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
 * Every delivery carries a (source node, per-source sequence) key and
 * travels in the EventQueue's network lane, which fixes the order of
 * same-tick deliveries independently of the order they were sent in.
 */

#ifndef FLASHSIM_NETWORK_MESH_HH_
#define FLASHSIM_NETWORK_MESH_HH_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flashsim::verify
{
class FaultInjector;
}

namespace flashsim::network
{

struct MeshParams
{
    Cycles perHop = 4;    ///< 40 ns fall-through
    Cycles header = 3;    ///< header cycles
    bool distanceBased = false; ///< per-pair distance instead of average
};

class MeshNetwork
{
  public:
    using Deliver = std::function<void(const protocol::Message &)>;

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

    /** avgTransit() for a hypothetical network. */
    static Cycles avgTransitFor(int num_nodes, MeshParams params);

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

    // -- Lossy-mesh wire plane (recoverable-fault transport) ----------------
    //
    // When enabled, every mesh send additionally emits a *wire frame*
    // on its (src, dst) lane: a shadow copy carrying a per-lane
    // sequence number but no payload. The injector's per-lane fault
    // streams genuinely drop, duplicate and reorder these frames, and
    // a classic reliability stack recovers them — receiver-side
    // dedup/reorder window, cumulative acks (piggybacked on reverse
    // traffic or sent standalone after a short batching delay), and
    // per-lane retransmit timers with exponential backoff. After
    // kMaxWireRetries a copy is retransmitted *assured* (bypassing the
    // injector), bounding recovery even under total loss.
    //
    // The protocol's own delivery schedule (the commit plane above) is
    // untouched: physically this models link-level retry absorbed
    // within the mesh transit budget, and it is what makes a lossy
    // run's architectural results bit-identical to the clean run's.
    // Wire frames do not count toward messages()/dataMessages().

    /** Enable the wire plane. @p inj supplies the per-lane fault
     *  streams (params().wireLossy() must hold). Call before running. */
    void enableTransport(verify::FaultInjector *inj);

    bool transportEnabled() const { return wire_ != nullptr; }

    /** Aggregated wire-plane counters (all zero when disabled). */
    struct TransportStats
    {
        Counter copies = 0;            ///< data frames first-sent
        Counter retransmits = 0;       ///< RTO-driven resends
        Counter rtoFires = 0;          ///< retransmit timer expiries
        Counter assuredRetransmits = 0;///< escalations past the injector
        Counter acksSent = 0;          ///< standalone ack frames
        Counter dupsFiltered = 0;      ///< duplicate deliveries suppressed
        Counter reordersAccepted = 0;  ///< frames held in reorder windows
    };
    TransportStats transportStats() const;

    /**
     * True when every wire lane has quiesced: all sent copies acked,
     * every receiver's in-order point caught up, no held reorders.
     * Trivially true while the transport is disabled. This is the
     * predicate checkTransportQuiesced() panics on; exposed separately
     * so tests can poll the ARQ plane without dying.
     */
    bool transportQuiesced() const;

    /**
     * Panic unless every lane has quiesced: all sent wire copies
     * acked and every receiver's in-order point caught up with its
     * sender. Call on the drained machine — a failure means the
     * recovery stack lost a frame for good.
     */
    void checkTransportQuiesced() const;

    /** In-flight slab slots currently occupied (tests/diagnostics). */
    std::uint32_t inFlight() const { return inFlight_; }
    /** Total slab capacity allocated so far (tests/diagnostics). */
    std::uint32_t
    slabCapacity() const
    {
        return static_cast<std::uint32_t>(slab_.size()) * kSlabChunk;
    }

  private:
    /** Messages per slab chunk; chunk storage never moves, so a
     *  delivery may hold a reference across nested sends. */
    static constexpr std::uint32_t kSlabChunk = 128;
    using SlabChunk = std::unique_ptr<protocol::Message[]>;

    std::uint32_t allocSlot();
    void deliverSlot(std::uint32_t slot);
    protocol::Message &
    slot(std::uint32_t s)
    {
        return slab_[s / kSlabChunk][s % kSlabChunk];
    }
    void inject(const protocol::Message &msg, Tick when);

    // -- Wire-plane internals -----------------------------------------------

    /** Receiver ack batching delay (cycles). */
    static constexpr Cycles kAckDelay = 12;
    /** Lossy (re)transmissions of one copy before escalating to an
     *  assured send that bypasses the injector. */
    static constexpr std::uint32_t kMaxWireRetries = 4;
    /** Cap on the RTO exponential backoff shift. */
    static constexpr std::uint32_t kMaxRtoShift = 6;

    /** One frame on the wire. Acks are just frames with no data seq —
     *  every frame carries the sender's cumulative in-order point for
     *  the reverse lane. */
    struct WireFrame
    {
        NodeId src = 0;
        NodeId dst = 0;
        bool isAck = false;
        std::uint64_t seq = 0;    ///< lane sequence (data frames only)
        std::uint64_t ackCum = 0; ///< cum. ack for the reverse lane
    };

    /** One unacked wire copy awaiting its cumulative ack. */
    struct WireCopy
    {
        std::uint64_t seq;
        std::uint32_t tries;
    };

    /** Lane (s, d) sender state. */
    struct SendLane
    {
        std::uint64_t nextSeq = 0;  ///< next wire seq stamped at send
        std::uint64_t cumAcked = 0; ///< all seqs below this are acked
        std::deque<WireCopy> unacked;
        EventQueue::TimerId rto{};
        std::uint32_t rtoStreak = 0; ///< RTO fires since last progress
        Counter copies = 0;
        Counter retransmits = 0;
        Counter rtoFires = 0;
        Counter assured = 0;
    };

    /** Lane (s, d) receiver state. */
    struct RecvLane
    {
        std::uint64_t cumIn = 0; ///< all seqs below this received
        std::vector<std::uint64_t> held; ///< out-of-order seqs, sorted
        EventQueue::TimerId ackTimer{};
        bool ackPending = false;
        std::uint64_t lastAckedCum = 0; ///< for ack-loss escalation
        std::uint32_t ackRepeats = 0;
        Counter dupsFiltered = 0;
        Counter reordersAccepted = 0;
        Counter acksSent = 0;
    };

    struct WirePlane
    {
        verify::FaultInjector *inj = nullptr;
        std::vector<SendLane> send; ///< indexed src * numNodes + dst
        std::vector<RecvLane> recv;
        Cycles rtoBase = 0;
    };

    SendLane &
    sendLane(NodeId s, NodeId d)
    {
        return wire_->send[static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(numNodes_) +
                           d];
    }
    RecvLane &
    recvLane(NodeId s, NodeId d)
    {
        return wire_->recv[static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(numNodes_) +
                           d];
    }

    Cycles rtoDelay(const SendLane &sl) const;
    /** One (src, dst) lane's quiescence predicate. */
    bool laneQuiesced(NodeId s, NodeId d) const;
    void wireOnSend(NodeId src, NodeId dst);
    void wireTransmit(const WireFrame &f, bool assured);
    void scheduleWireFrame(const WireFrame &f, Tick when);
    void wireArrive(const WireFrame &f);
    void wireAckApply(NodeId snd, NodeId rcv, std::uint64_t cum);
    void rtoFire(NodeId snd, NodeId rcv);
    void scheduleAck(NodeId lane_src, NodeId lane_dst);
    void ackFire(NodeId lane_src, NodeId lane_dst);
    std::uint64_t takeAck(NodeId frame_src, NodeId frame_dst);

    EventQueue &eq_;
    int numNodes_;
    int side_;
    MeshParams params_;
    Cycles avgTransit_;
    std::vector<Deliver> deliver_;
    std::function<Cycles(const protocol::Message &)> perturb_;
    /** Last scheduled delivery per (src, dest), perturbed mode only. */
    std::vector<Tick> lastDelivery_;

    /** In-flight message slab (chunked, slots recycled on delivery). */
    std::vector<SlabChunk> slab_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint32_t inFlight_ = 0;
    Counter messages_ = 0;
    Counter dataMessages_ = 0;
    /** Per-source monotonic send sequence: the network-lane key. */
    std::vector<std::uint64_t> srcSeq_;

    /** Wire-plane state; null while the transport is disabled, so the
     *  clean path pays one pointer test per send. */
    std::unique_ptr<WirePlane> wire_;
};

} // namespace flashsim::network

#endif // FLASHSIM_NETWORK_MESH_HH_
