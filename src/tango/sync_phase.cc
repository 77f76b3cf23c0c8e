#include "tango/sync_phase.hh"

#include <algorithm>

namespace flashsim::tango
{

void
SyncPhase::run(Tick tick, EventQueue &eq)
{
    running_ = tick;
    while (true) {
        round_.clear();
        Tick rest = EventQueue::kNever; // earliest op left for later
        for (std::size_t k = 0; k < ops_.size();) {
            if (ops_[k].tick == tick) {
                round_.push_back(ops_[k]);
                ops_[k] = ops_.back();
                ops_.pop_back();
            } else {
                rest = std::min(rest, ops_[k].tick);
                ++k;
            }
        }
        if (round_.empty()) {
            minTick_ = rest;
            break;
        }
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
