/**
 * @file
 * The per-tick sync phase: a canonical order for host-side
 * synchronization state.
 *
 * Every access the tango lock and barrier primitives make to their
 * host-side variables sits behind Env::syncPoint(), which defers the
 * coroutine here. Once a tick's events have run, the machine's run loop
 * runs that tick's deferred operations in (node, per-node sequence)
 * order, in rounds: a resumed coroutine that reaches another sync point
 * at the same tick joins the next round, and events a round schedules
 * at the tick are drained before it. Lock winners and barrier arrival
 * order therefore follow from simulated time and node numbers alone,
 * never from the order events happened to be queued in.
 */

#ifndef FLASHSIM_TANGO_SYNC_PHASE_HH_
#define FLASHSIM_TANGO_SYNC_PHASE_HH_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace flashsim::tango
{

class SyncPhase
{
  public:
    explicit SyncPhase(int num_nodes)
        : nodeSeq_(static_cast<std::size_t>(num_nodes), 0)
    {}

    /** Defer @p h (node @p node's coroutine) into the phase at
     *  @p tick. */
    void
    park(Tick tick, NodeId node, std::coroutine_handle<> h)
    {
        ops_.push_back(Op{tick, node, nodeSeq_[node]++, h});
        if (tick < minTick_)
            minTick_ = tick;
    }

    /** True while the phase at exactly @p tick is running: a sync
     *  point reached inside it continues inline. */
    bool inlineOk(Tick tick) const { return running_ == tick; }

    /** Earliest tick with a deferred operation, or EventQueue::kNever
     *  (kept as operations are parked and run). */
    Tick minPending() const { return minTick_; }

    /** Run the phase at @p tick; events the resumed coroutines schedule
     *  on @p eq at @p tick are drained between rounds. */
    void run(Tick tick, EventQueue &eq);

  private:
    struct Op
    {
        Tick tick;
        NodeId node;
        std::uint64_t seq;
        std::coroutine_handle<> h;
    };

    std::vector<Op> ops_;
    /** One round's operations (kept to reuse its storage). */
    std::vector<Op> round_;
    std::vector<std::uint64_t> nodeSeq_;
    Tick minTick_ = EventQueue::kNever;
    Tick running_ = EventQueue::kNever;
};

} // namespace flashsim::tango

#endif // FLASHSIM_TANGO_SYNC_PHASE_HH_
