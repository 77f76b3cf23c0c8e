#include "tango/sync_phase.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flashsim::tango
{

void
SyncPhase::run(Tick tick, EventQueue &eq)
{
    running_ = tick;
    round_.clear();
    for (std::size_t k = 0; k < ops_.size();) {
        if (ops_[k].tick == tick) {
            round_.push_back(ops_[k]);
            ops_[k] = ops_.back();
            ops_.pop_back();
        } else {
            ++k;
        }
    }
    std::sort(round_.begin(), round_.end(), [](const Op &a, const Op &b) {
        if (a.node != b.node)
            return a.node < b.node;
        return a.seq < b.seq;
    });
    // Indexed, with the handle copied out: a resumed coroutine may wake
    // a spin waiter that joins this round (join), growing it.
    inRound_ = true;
    for (next_ = 0; next_ < round_.size(); ++next_) {
        const std::coroutine_handle<> h = round_[next_].h;
        h.resume();
    }
    inRound_ = false;
    if (eq.nextTick() == tick)
        eq.drainTick(tick);
    // One round is the whole phase: a sync point reached during the
    // round or the drain continued inline (inlineOk), so nothing can
    // have parked at this tick.
    minTick_ = EventQueue::kNever;
    for (const Op &op : ops_) {
        if (op.tick == tick)
            panic("SyncPhase: node %u parked at tick %llu while its "
                  "phase ran",
                  op.node, static_cast<unsigned long long>(tick));
        minTick_ = std::min(minTick_, op.tick);
    }
    running_ = EventQueue::kNever;
}

void
SyncPhase::join(NodeId node, std::coroutine_handle<> h)
{
    // A node has at most one operation in a round, so its place is
    // after every remaining operation of a lower node.
    const auto at = std::upper_bound(
        round_.begin() + static_cast<std::ptrdiff_t>(next_) + 1,
        round_.end(), node,
        [](NodeId n, const Op &op) { return n < op.node; });
    round_.insert(at, Op{running_, node, nodeSeq_[node]++, h});
}

} // namespace flashsim::tango
