#include "tango/sync_phase.hh"

#include <algorithm>

namespace flashsim::tango
{

Tick
SyncPhase::minPending() const
{
    Tick m = EventQueue::kNever;
    for (const Op &op : ops_)
        m = std::min(m, op.tick);
    return m;
}

void
SyncPhase::run(Tick tick, EventQueue &eq)
{
    running_ = tick;
    while (true) {
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
        if (round_.empty())
            break;
        std::sort(round_.begin(), round_.end(),
                  [](const Op &a, const Op &b) {
                      if (a.node != b.node)
                          return a.node < b.node;
                      return a.seq < b.seq;
                  });
        for (const Op &op : round_)
            op.h.resume();
        if (eq.nextTick() == tick)
            eq.drainTick(tick);
    }
    running_ = EventQueue::kNever;
}

} // namespace flashsim::tango
