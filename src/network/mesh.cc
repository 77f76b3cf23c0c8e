#include "network/mesh.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace flashsim::network
{

namespace
{

/** @p num_nodes, checked before any per-node table is sized from it. */
int
checkedNodeCount(int num_nodes)
{
    if (num_nodes < 1)
        fatal("MeshNetwork: %d nodes; a mesh needs at least 1", num_nodes);
    // Every node id must fit the delivery key (EventQueue::scheduleNet).
    if (num_nodes > static_cast<int>(EventQueue::kMaxNetNodes))
        fatal("MeshNetwork: %d nodes exceeds the limit of %u", num_nodes,
              EventQueue::kMaxNetNodes);
    return num_nodes;
}

/** Average transit latency on a @p side x @p side mesh. */
Cycles
averageTransit(int side)
{
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
    return static_cast<Cycles>(std::lround(kPerHop * hops + kHeader));
}

} // namespace

MeshNetwork::MeshNetwork(EventQueue &eq, int num_nodes, MeshParams params)
    : eq_(eq), numNodes_(checkedNodeCount(num_nodes)), params_(params),
      deliver_(static_cast<std::size_t>(numNodes_)),
      srcSeq_(static_cast<std::size_t>(numNodes_), 0)
{
    side_ = 1;
    while (side_ * side_ < num_nodes)
        ++side_;
    avgTransit_ = averageTransit(side_);
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
        return kPerHop * 2 + kHeader;
    if (!params_.distanceBased)
        return avgTransit_;
    int sx = static_cast<int>(src) % side_;
    int sy = static_cast<int>(src) / side_;
    int dx = static_cast<int>(dest) % side_;
    int dy = static_cast<int>(dest) / side_;
    int hops = std::abs(sx - dx) + std::abs(sy - dy) + 2;
    return kPerHop * static_cast<Cycles>(hops) + kHeader;
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

void
MeshNetwork::inject(const protocol::Message &msg, Tick when)
{
    const std::uint64_t seq = srcSeq_[msg.src]++;
    eq_.scheduleNet(when, msg.src, seq,
                    [this, msg] { deliver_[msg.dest](msg); });
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
}

} // namespace flashsim::network
