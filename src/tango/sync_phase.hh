/**
 * @file
 * The per-tick sync phase: a canonical order for host-side
 * synchronization state.
 *
 * Every access the tango lock and barrier primitives make to their
 * host-side variables sits behind Env::syncPoint(), which defers the
 * coroutine here. Once a tick's events have run, the machine's run loop
 * runs that tick's deferred operations as one round, in (node,
 * per-node sequence) order; events the round schedules at the tick are
 * drained after it. A resumed coroutine that reaches another sync point
 * at the same tick continues inline, so nothing parks at a running tick
 * and one round is the whole phase (run() panics otherwise). Lock
 * winners and barrier arrival order therefore follow from simulated
 * time and node numbers alone, never from the order events happened to
 * be queued in.
 *
 * A spin waiter parked by tango::SpinAwaiter has no operation queued
 * here. When it wakes it asks which of its re-tests have already run
 * (settledThrough), and a re-test due at the running tick whose node
 * the round has not reached yet joins it (join).
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
     *  on @p eq at @p tick are drained after the round. */
    void run(Tick tick, EventQueue &eq);

    /** True while a round at @p now is running and has not yet reached
     *  @p node: an operation of @p node at @p now would still run in
     *  it. */
    bool
    joinable(NodeId node, Tick now) const
    {
        return running_ == now && inRound_ && round_[next_].node < node;
    }

    /**
     * The latest tick through which every operation @p node could have
     * parked has run, seen from an event or an operation at @p now:
     * @p now while the phase at @p now is running (unless the
     * operation would still be joinable), else @p now - 1 (an event at
     * @p now runs before that tick's phase).
     */
    Tick
    settledThrough(NodeId node, Tick now) const
    {
        return running_ == now && !joinable(node, now) ? now : now - 1;
    }

    /** Add @p node's operation @p h at the running tick to the running
     *  round, in its (node) place; the round resumes it in turn.
     *  Requires joinable(node, running tick). */
    void join(NodeId node, std::coroutine_handle<> h);

  private:
    struct Op
    {
        Tick tick;
        NodeId node;
        std::uint64_t seq;
        std::coroutine_handle<> h;
    };

    std::vector<Op> ops_;
    /** The running round's operations (kept to reuse its storage). */
    std::vector<Op> round_;
    std::vector<std::uint64_t> nodeSeq_;
    Tick minTick_ = EventQueue::kNever;
    Tick running_ = EventQueue::kNever;
    /** A round is resuming round_[next_]. */
    bool inRound_ = false;
    std::size_t next_ = 0;
};

} // namespace flashsim::tango

#endif // FLASHSIM_TANGO_SYNC_PHASE_HH_
