#include "network/mesh.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"
#include "verify/fault.hh"

namespace flashsim::network
{

MeshNetwork::MeshNetwork(EventQueue &eq, int num_nodes, MeshParams params)
    : eq_(eq), numNodes_(num_nodes), params_(params),
      deliver_(static_cast<std::size_t>(num_nodes)),
      srcSeq_(static_cast<std::size_t>(num_nodes), 0)
{
    side_ = 1;
    while (side_ * side_ < num_nodes)
        ++side_;
    avgTransit_ = avgTransitFor(num_nodes, params_);
}

void
MeshNetwork::connect(NodeId n, Deliver deliver)
{
    if (n >= deliver_.size())
        fatal("MeshNetwork: node %u out of range", n);
    deliver_[n] = std::move(deliver);
}

Cycles
MeshNetwork::transit(NodeId src, NodeId dest) const
{
    // A self-send never crosses the mesh: it pays only the entry and
    // exit hops plus the header, in both average and distance-based
    // modes. (The average-transit figure explicitly excludes the
    // self-pairs, so charging it here would overbill by the mean
    // internal hop count, ~22 cycles on 16 nodes.)
    if (src == dest)
        return params_.perHop * 2 + params_.header;
    if (!params_.distanceBased)
        return avgTransit_;
    int sx = static_cast<int>(src) % side_;
    int sy = static_cast<int>(src) / side_;
    int dx = static_cast<int>(dest) % side_;
    int dy = static_cast<int>(dest) / side_;
    int hops = std::abs(sx - dx) + std::abs(sy - dy) + 2;
    return params_.perHop * static_cast<Cycles>(hops) + params_.header;
}

Cycles
MeshNetwork::avgTransitFor(int num_nodes, MeshParams params)
{
    int side = 1;
    while (side * side < num_nodes)
        ++side;

    // Average internal hop count for uniform traffic on a side x side
    // mesh: the mean |dx| on a line of n nodes is (n^2 - 1) / (3n), the
    // Manhattan distance doubles it, and excluding the self-pairs
    // scales by N/(N-1). That gives the paper's 2.6 average hops for 16
    // nodes; with one hop to enter and one to exit at 4 cycles each
    // plus 3 header cycles the average transit is 22 cycles.
    double n_nodes = static_cast<double>(side) * side;
    double mean_axis =
        (static_cast<double>(side) * side - 1.0) / (3.0 * side);
    double internal = 2.0 * mean_axis *
                      (n_nodes > 1 ? n_nodes / (n_nodes - 1.0) : 1.0);
    double hops = internal + 2.0;
    return static_cast<Cycles>(
        std::lround(params.perHop * hops + params.header));
}

void
MeshNetwork::setPerturb(std::function<Cycles(const protocol::Message &)> p)
{
    perturb_ = std::move(p);
    // (Re)size the clamp table on every install, not only when it is
    // currently empty: a second perturb installed after the first was
    // cleared must start from a fresh, correctly sized table instead of
    // inheriting stale per-pair delivery floors.
    if (perturb_)
        lastDelivery_.assign(static_cast<std::size_t>(numNodes_) *
                                 static_cast<std::size_t>(numNodes_),
                             0);
}

std::uint32_t
MeshNetwork::allocSlot()
{
    if (!freeSlots_.empty()) {
        std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        return s;
    }
    std::uint32_t s = static_cast<std::uint32_t>(slab_.size()) * kSlabChunk;
    slab_.push_back(std::make_unique<protocol::Message[]>(kSlabChunk));
    freeSlots_.reserve(slab_.size() * kSlabChunk);
    for (std::uint32_t i = kSlabChunk - 1; i > 0; --i)
        freeSlots_.push_back(s + i);
    return s;
}

void
MeshNetwork::deliverSlot(std::uint32_t s)
{
    // The slot is released only after the delivery callback returns:
    // chunk storage is stable, so the reference survives nested sends
    // that grow the slab, and the slot cannot be recycled underneath
    // the receiver.
    const protocol::Message &m = slot(s);
    deliver_[m.dest](m);
    freeSlots_.push_back(s);
    --inFlight_;
}

void
MeshNetwork::inject(const protocol::Message &msg, Tick when)
{
    const std::uint64_t seq = srcSeq_[msg.src]++;
    std::uint32_t s = allocSlot();
    slot(s) = msg;
    ++inFlight_;
    eq_.scheduleNet(when, msg.src, seq, [this, s] { deliverSlot(s); });
}

void
MeshNetwork::send(const protocol::Message &msg)
{
    if (msg.dest >= deliver_.size() || !deliver_[msg.dest])
        panic("MeshNetwork: no receiver for %s", msg.toString().c_str());
    ++messages_;
    if (protocol::carriesData(msg.type))
        ++dataMessages_;
    Cycles lat = transit(msg.src, msg.dest);
    Tick when = eq_.now() + lat;
    if (perturb_) {
        when += perturb_(msg);
        // Clamp per (src, dest) pair: jitter must never reorder the
        // point-to-point FIFO the protocol's race resolution assumes.
        Tick &last = lastDelivery_[static_cast<std::size_t>(msg.src) *
                                       static_cast<std::size_t>(numNodes_) +
                                   msg.dest];
        when = std::max(when, last);
        last = when;
    }
    inject(msg, when);
    if (wire_ && msg.src != msg.dest)
        wireOnSend(msg.src, msg.dest);
}

void
MeshNetwork::sendAt(const protocol::Message &msg, Tick departure)
{
    if (perturb_) {
        // The jitter clamp requires sends to be observed in departure
        // order; re-create the intermediate event the fast path elides.
        eq_.scheduleAt(departure, [this, msg] { send(msg); });
        return;
    }
    if (msg.dest >= deliver_.size() || !deliver_[msg.dest])
        panic("MeshNetwork: no receiver for %s", msg.toString().c_str());
    ++messages_;
    if (protocol::carriesData(msg.type))
        ++dataMessages_;
    inject(msg, departure + transit(msg.src, msg.dest));
    if (wire_ && msg.src != msg.dest)
        wireOnSend(msg.src, msg.dest);
}

// ---- Wire plane (lossy-mesh reliable transport) ---------------------------

void
MeshNetwork::enableTransport(verify::FaultInjector *inj)
{
    wire_ = std::make_unique<WirePlane>();
    wire_->inj = inj;
    const std::size_t n2 = static_cast<std::size_t>(numNodes_) *
                           static_cast<std::size_t>(numNodes_);
    wire_->send.resize(n2);
    wire_->recv.resize(n2);
    // Base retransmit timeout: a round trip on the average path plus
    // the receiver's ack batching delay and a little slack.
    wire_->rtoBase = 2 * avgTransit_ + kAckDelay + 8;
}

Cycles
MeshNetwork::rtoDelay(const SendLane &sl) const
{
    return wire_->rtoBase << std::min(sl.rtoStreak, kMaxRtoShift);
}

void
MeshNetwork::wireOnSend(NodeId src, NodeId dst)
{
    SendLane &sl = sendLane(src, dst);
    WireFrame f;
    f.src = src;
    f.dst = dst;
    f.isAck = false;
    f.seq = sl.nextSeq++;
    f.ackCum = takeAck(src, dst);
    sl.unacked.push_back(WireCopy{f.seq, 0});
    ++sl.copies;
    if (sl.unacked.size() == 1) {
        // First outstanding copy on an idle lane: arm the RTO. (The
        // lane's timer is cancelled whenever unacked empties, so a
        // size of one here always means "no timer pending".)
        sl.rto = eq_.armTimer(eq_.now() + rtoDelay(sl),
                              [this, src, dst] { rtoFire(src, dst); });
    }
    wireTransmit(f, /*assured=*/false);
}

void
MeshNetwork::wireTransmit(const WireFrame &f, bool assured)
{
    Tick when = eq_.now() + transit(f.src, f.dst);
    if (!assured) {
        Cycles extra = 0;
        switch (wire_->inj->wireFate(f.src, f.dst, extra)) {
          case verify::FaultInjector::WireFate::Drop:
            return; // vanishes on the wire; the RTO recovers it
          case verify::FaultInjector::WireFate::Duplicate:
            scheduleWireFrame(f, when); // clone one cycle behind
            when += 1;
            break;
          case verify::FaultInjector::WireFate::Reorder:
            when += extra; // held back past later copies
            break;
          case verify::FaultInjector::WireFate::Deliver:
            break;
        }
    }
    scheduleWireFrame(f, when);
}

void
MeshNetwork::scheduleWireFrame(const WireFrame &f, Tick when)
{
    const std::uint64_t key = srcSeq_[f.src]++;
    eq_.scheduleNet(when, f.src, key, [this, f] { wireArrive(f); });
}

void
MeshNetwork::wireArrive(const WireFrame &f)
{
    // Every frame carries the sender's cumulative in-order point for
    // the reverse lane: apply it to this node's send state first.
    wireAckApply(f.dst, f.src, f.ackCum);
    if (f.isAck)
        return;
    RecvLane &rl = recvLane(f.src, f.dst);
    if (f.seq < rl.cumIn ||
        std::binary_search(rl.held.begin(), rl.held.end(), f.seq)) {
        // Retransmit of something already received, or an injected
        // duplicate: invisible above this layer.
        ++rl.dupsFiltered;
    } else if (f.seq == rl.cumIn) {
        ++rl.cumIn;
        std::size_t i = 0;
        while (i < rl.held.size() && rl.held[i] == rl.cumIn) {
            ++rl.cumIn;
            ++i;
        }
        rl.held.erase(rl.held.begin(),
                      rl.held.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
        auto pos = std::lower_bound(rl.held.begin(), rl.held.end(), f.seq);
        rl.held.insert(pos, f.seq);
        ++rl.reordersAccepted;
    }
    // Ack lazily: the short timer batches a burst into one standalone
    // ack, and any reverse data frame departing sooner carries the ack
    // for free (takeAck cancels the pending timer). Dup-filtered
    // arrivals re-ack too — a retransmit means the previous ack died.
    scheduleAck(f.src, f.dst);
}

void
MeshNetwork::wireAckApply(NodeId snd, NodeId rcv, std::uint64_t cum)
{
    SendLane &sl = sendLane(snd, rcv);
    if (cum <= sl.cumAcked)
        return; // stale: a reordered or duplicated ack
    sl.cumAcked = cum;
    bool progress = false;
    while (!sl.unacked.empty() && sl.unacked.front().seq < cum) {
        sl.unacked.pop_front();
        progress = true;
    }
    if (sl.unacked.empty()) {
        if (sl.rto.valid()) {
            eq_.cancelTimer(sl.rto);
            sl.rto = EventQueue::TimerId{};
        }
        sl.rtoStreak = 0;
    } else if (progress) {
        sl.rtoStreak = 0;
        eq_.rearmTimer(sl.rto, eq_.now() + rtoDelay(sl));
    }
}

void
MeshNetwork::rtoFire(NodeId snd, NodeId rcv)
{
    SendLane &sl = sendLane(snd, rcv);
    if (sl.unacked.empty()) {
        // Unreachable in principle (acks cancel the timer), kept as a
        // cheap guard against a same-tick race regression.
        sl.rto = EventQueue::TimerId{};
        return;
    }
    ++sl.rtoFires;
    WireCopy &head = sl.unacked.front();
    const bool assured = head.tries >= kMaxWireRetries;
    if (assured)
        ++sl.assured;
    ++head.tries;
    ++sl.retransmits;
    WireFrame f;
    f.src = snd;
    f.dst = rcv;
    f.isAck = false;
    f.seq = head.seq;
    f.ackCum = takeAck(snd, rcv);
    wireTransmit(f, assured);
    if (sl.rtoStreak < kMaxRtoShift)
        ++sl.rtoStreak;
    eq_.rearmTimer(sl.rto, eq_.now() + rtoDelay(sl));
}

std::uint64_t
MeshNetwork::takeAck(NodeId frame_src, NodeId frame_dst)
{
    // A departing frame_src -> frame_dst frame carries the cumulative
    // in-order point of the *reverse* lane, whose receive state this
    // node owns; any pending standalone ack becomes redundant.
    RecvLane &rl = recvLane(frame_dst, frame_src);
    if (rl.ackPending) {
        rl.ackPending = false;
        eq_.cancelTimer(rl.ackTimer);
        rl.ackTimer = EventQueue::TimerId{};
    }
    return rl.cumIn;
}

void
MeshNetwork::scheduleAck(NodeId lane_src, NodeId lane_dst)
{
    RecvLane &rl = recvLane(lane_src, lane_dst);
    if (rl.ackPending)
        return;
    rl.ackPending = true;
    const Tick when = eq_.now() + kAckDelay;
    if (rl.ackTimer.valid())
        eq_.rearmTimer(rl.ackTimer, when);
    else
        rl.ackTimer = eq_.armTimer(
            when, [this, lane_src, lane_dst] { ackFire(lane_src, lane_dst); });
}

void
MeshNetwork::ackFire(NodeId lane_src, NodeId lane_dst)
{
    RecvLane &rl = recvLane(lane_src, lane_dst);
    rl.ackPending = false;
    bool assured = false;
    if (rl.cumIn == rl.lastAckedCum) {
        // Re-acking the same point: previous acks (or the data they
        // answered) keep dying. Escalate like the data path so even a
        // total-loss configuration converges.
        assured = ++rl.ackRepeats > kMaxWireRetries;
    } else {
        rl.lastAckedCum = rl.cumIn;
        rl.ackRepeats = 0;
    }
    ++rl.acksSent;
    WireFrame f;
    f.src = lane_dst;
    f.dst = lane_src;
    f.isAck = true;
    f.seq = 0;
    f.ackCum = rl.cumIn;
    wireTransmit(f, assured);
}

MeshNetwork::TransportStats
MeshNetwork::transportStats() const
{
    TransportStats t;
    if (!wire_)
        return t;
    for (const SendLane &sl : wire_->send) {
        t.copies += sl.copies;
        t.retransmits += sl.retransmits;
        t.rtoFires += sl.rtoFires;
        t.assuredRetransmits += sl.assured;
    }
    for (const RecvLane &rl : wire_->recv) {
        t.acksSent += rl.acksSent;
        t.dupsFiltered += rl.dupsFiltered;
        t.reordersAccepted += rl.reordersAccepted;
    }
    return t;
}

bool
MeshNetwork::laneQuiesced(NodeId s, NodeId d) const
{
    const std::size_t l = static_cast<std::size_t>(s) *
                              static_cast<std::size_t>(numNodes_) +
                          d;
    const SendLane &sl = wire_->send[l];
    const RecvLane &rl = wire_->recv[l];
    return sl.unacked.empty() && sl.cumAcked == sl.nextSeq &&
           rl.cumIn == sl.nextSeq && rl.held.empty();
}

bool
MeshNetwork::transportQuiesced() const
{
    if (!wire_)
        return true;
    for (NodeId s = 0; s < static_cast<NodeId>(numNodes_); ++s) {
        for (NodeId d = 0; d < static_cast<NodeId>(numNodes_); ++d) {
            if (s != d && !laneQuiesced(s, d))
                return false;
        }
    }
    return true;
}

void
MeshNetwork::checkTransportQuiesced() const
{
    if (!wire_)
        return;
    for (NodeId s = 0; s < static_cast<NodeId>(numNodes_); ++s) {
        for (NodeId d = 0; d < static_cast<NodeId>(numNodes_); ++d) {
            if (s == d || laneQuiesced(s, d))
                continue;
            const std::size_t l = static_cast<std::size_t>(s) *
                                      static_cast<std::size_t>(numNodes_) +
                                  d;
            const SendLane &sl = wire_->send[l];
            const RecvLane &rl = wire_->recv[l];
            panic("wire lane %u->%u failed to quiesce: sent %llu, "
                      "receiver in-order %llu, acked %llu, %zu unacked, "
                      "%zu held",
                      s, d, static_cast<unsigned long long>(sl.nextSeq),
                      static_cast<unsigned long long>(rl.cumIn),
                      static_cast<unsigned long long>(sl.cumAcked),
                      sl.unacked.size(), rl.held.size());
        }
    }
}

} // namespace flashsim::network
