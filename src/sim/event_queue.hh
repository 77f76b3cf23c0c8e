/**
 * @file
 * The event-driven simulation core.
 *
 * FlashLite (the paper's simulator) is a multi-threaded event-driven
 * memory-system simulator. Here every hardware unit schedules closures on
 * an EventQueue, which runs them in one deterministic order: by tick,
 * then by a per-event sort key. Ordinary events are keyed by schedule
 * order (FIFO); mesh deliveries are keyed by (source node, per-source
 * sequence), so the order of same-tick deliveries does not depend on
 * the order they were sent in.
 */

#ifndef FLASHSIM_SIM_EVENT_QUEUE_HH_
#define FLASHSIM_SIM_EVENT_QUEUE_HH_

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/types.hh"

namespace flashsim
{

/**
 * Deterministic discrete-event queue.
 *
 * Events are arbitrary callables, executed in (tick, seq) order. An
 * ordinary event's seq is 1<<63 | a schedule counter, so two events
 * scheduled for the same tick run in the order they were scheduled
 * (FIFO), which keeps hardware arbitration deterministic across runs.
 * A mesh delivery (scheduleNet) gets seq = src<<48 | srcSeq instead:
 * within a tick every delivery runs before every ordinary event, in
 * (source, per-source sequence) order.
 *
 * Storage is two-level, sized for the simulator's delay profile (almost
 * every latency is a handful of cycles, far-future events are rare):
 *
 *  - a power-of-two ring of per-tick buckets covering the next
 *    kRingSize ticks. Each bucket is a vector kept sorted by seq. A
 *    ring event is {seq, callback} in one 64-byte cache line: its tick
 *    is implied by its bucket. An ordinary event always carries the
 *    largest key yet, so schedule() into the window is an emplace_back
 *    into recycled storage, the callable built directly in its slot —
 *    O(1) and allocation-free in steady state; a delivery is built at
 *    the upper bound of its key;
 *  - a binary min-heap of {tick, event} entries holding the overflow
 *    (events >= kRingSize ticks out). When the clock reaches an
 *    overflow event's tick it is inserted into that tick's bucket by
 *    the same sorted insert.
 *
 * drainTick() runs a tick's events where they lie: it swaps the bucket's
 * vector out, so callbacks scheduling into the same tick append to the
 * (now empty) bucket instead of reallocating the vector being run.
 *
 * Callbacks are InlineCallback: stored inline in the event, with a
 * compile-time size cap instead of std::function's silent heap fallback
 * — schedule() never allocates once bucket capacity has warmed up.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Ticks covered by the near-term bucket ring (power of two). */
    static constexpr std::size_t kRingSize = 1024;

    /** Sentinel for "no pending event" (also used by the run loop as
     *  "no pending tick"). */
    static constexpr Tick kNever = ~Tick{0};

    /** Node ids a delivery key can carry: src must be below this. */
    static constexpr NodeId kMaxNetNodes = NodeId{1} << 15;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time in system clock cycles. */
    Tick now() const { return _now; }

    /** Schedule @p cb to run @p delay cycles from now. */
    void
    schedule(Cycles delay, Callback cb)
    {
        scheduleAt(_now + delay, cb);
    }

    /** Schedule @p cb at absolute time @p when (must be >= now()). */
    void scheduleAt(Tick when, Callback cb);

    /**
     * schedule()/scheduleAt() for a callable that is not yet a
     * Callback: inside the bucket ring it is constructed directly in
     * its event slot, with no Callback or event temporary, on the path
     * every simulated reference and message takes.
     */
    template <typename F, typename = std::enable_if_t<
                              !std::is_same_v<std::decay_t<F>, Callback>>>
    void
    schedule(Cycles delay, F &&f)
    {
        scheduleAt(_now + delay, std::forward<F>(f));
    }

    template <typename F, typename = std::enable_if_t<
                              !std::is_same_v<std::decay_t<F>, Callback>>>
    void
    scheduleAt(Tick when, F &&f)
    {
        if (when >= _now && when - _now < kRingSize)
            appendToRing(when).emplace(std::forward<F>(f));
        else
            scheduleAt(when, Callback(std::forward<F>(f)));
    }

    /**
     * Schedule a mesh delivery of @p f at @p when, keyed by (@p src,
     * @p srcSeq): within a tick every delivery runs before any
     * ordinary event, ordered by that key — independent of the order
     * the sends were scheduled in. @p src must be below kMaxNetNodes
     * and @p srcSeq below 2^48. A degenerate zero-latency delivery
     * (@p when == now()) runs as an ordinary event instead, since the
     * current tick's deliveries may already have run. Inside the ring
     * window @p f is constructed directly at its sorted position.
     */
    template <typename F>
    void
    scheduleNet(Tick when, NodeId src, std::uint64_t srcSeq, F &&f)
    {
        checkNet(when, src, srcSeq);
        if (when == _now) {
            // Degenerate zero-latency transit: this tick's deliveries
            // may already have run, so it joins as an ordinary event.
            scheduleAt(when, std::forward<F>(f));
            return;
        }
        const std::uint64_t seq = (std::uint64_t{src} << kSrcShift) | srcSeq;
        if (when - _now < kRingSize)
            insertSorted(when, seq).emplace(std::forward<F>(f));
        else
            pushOverflow(when, seq, Callback(std::forward<F>(f)));
    }

    /** True when no events remain. */
    bool
    empty() const
    {
        return ringCount_ == 0 && overflow_.empty();
    }

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return ringCount_ + overflow_.size();
    }

    /** Earliest pending tick (deliveries and ordinary events alike),
     *  or kNever: a scan of the ring's occupancy bitmap from now, and
     *  the overflow heap's front. */
    Tick nextTick() const;

    /**
     * Advance to tick @p t (== nextTick()) and run everything due then
     * in seq order: deliveries first, then ordinary events in FIFO
     * order, including same-tick events they schedule. A tick partly
     * run by step() finishes from where it stopped. Not re-entrant: a
     * callback must not drain the queue (that is a panic).
     * @return number of events executed.
     */
    std::uint64_t drainTick(Tick t);

    /**
     * Run events until the queue drains or @p limit ticks have elapsed.
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = ~Tick{0});

    /** Execute exactly one event, if any; returns true if one ran. */
    bool step();

    /** Drop all pending events and reset time to zero. */
    void reset();

  private:
    /** A ring event: its tick is its bucket's. */
    struct alignas(64) Event
    {
        /** Leaves cb default-initialised, for the caller to emplace. */
        explicit Event(std::uint64_t s) : seq(s) {}

        std::uint64_t seq;
        Callback cb;
    };
    static_assert(sizeof(Event) == 64, "a ring event is one cache line");

    /** An overflow event, with the tick its bucket will imply. */
    struct Timed
    {
        Tick when;
        Event ev;
    };

    struct Later
    {
        bool
        operator()(const Timed &a, const Timed &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.ev.seq > b.ev.seq;
        }
    };

    /**
     * One tick's events, sorted by seq. head indexes the next
     * unexecuted event; entries before it have already run by step().
     * All live entries share the same tick: the window
     * [now, now + kRingSize) maps each ring slot to exactly one tick,
     * and a slot is fully drained before the window wraps back onto it.
     */
    struct Bucket
    {
        std::vector<Event> events;
        std::size_t head = 0;
    };

    static constexpr std::size_t kRingMask = kRingSize - 1;
    static constexpr std::size_t kBitWords = kRingSize / 64;

    Bucket &bucketFor(Tick when) { return ring_[when & kRingMask]; }
    /** Append an event with an unset callback to @p when's bucket
     *  (which must lie in the ring window); returns that callback. */
    Callback &appendToRing(Tick when);

    /** Sorted insert of an event keyed @p seq into @p when's bucket
     *  (which must lie in the ring window), at the upper bound of its
     *  seq; returns its unset callback. */
    Callback &insertSorted(Tick when, std::uint64_t seq);

    /** Push an event onto the overflow heap. */
    void pushOverflow(Tick when, std::uint64_t seq, const Callback &cb);

    /** scheduleNet()'s argument checks (panics). */
    void checkNet(Tick when, NodeId src, std::uint64_t srcSeq) const;

    void markLive(Tick when);
    void clearLive(Tick when);

    /** Earliest pending tick in the ring, or kNever. */
    Tick nextRingTick() const;
    /** Move overflow events for tick @p t into its bucket. */
    void promoteOverflow(Tick t);

    /** seq of an ordinary event: this bit | schedule counter. */
    static constexpr std::uint64_t kOrdinaryKey = std::uint64_t{1} << 63;
    /** seq of a delivery: src << kSrcShift | srcSeq. */
    static constexpr unsigned kSrcShift = 48;

    Tick _now = 0;
    /** Schedule counter for ordinary events' seq. */
    std::uint64_t nextSeq_ = 0;

    std::array<Bucket, kRingSize> ring_{};
    /** Occupancy bitmap: bit i set iff ring_[i] has unexecuted events. */
    std::array<std::uint64_t, kBitWords> live_{};
    std::size_t ringCount_ = 0;

    /** The events drainTick() is running, swapped out of their bucket;
     *  empty between drains. */
    std::vector<Event> running_;

    /** Overflow min-heap (std::push_heap/std::pop_heap over a vector,
     *  ordered by Later so front() is the earliest event). */
    std::vector<Timed> overflow_;
};

} // namespace flashsim

#endif // FLASHSIM_SIM_EVENT_QUEUE_HH_
