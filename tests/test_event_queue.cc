/** @file Unit tests for the deterministic event queue. */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hh"

namespace flashsim
{
namespace
{

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    std::vector<Tick> at;
    eq.schedule(10, [&] {
        at.push_back(eq.now());
        eq.schedule(5, [&] { at.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(at, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, ZeroDelayRunsAtSameTick)
{
    EventQueue eq;
    Tick seen = 999;
    eq.schedule(7, [&] { eq.schedule(0, [&] { seen = eq.now(); }); });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesClock)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.schedule(100, [&] { ++ran; });
    std::uint64_t n = eq.run(50);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(1, [&] { ++ran; });
    eq.schedule(2, [&] { ++ran; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ScheduleAtAbsoluteTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(42, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH(eq.scheduleAt(5, [] {}), "past");
    });
    eq.run();
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    eq.run();
    EXPECT_EQ(ran, 0);
}

TEST(EventQueue, FifoPreservedAcrossHeapReordering)
{
    // Scrambled submission times with several same-tick groups: the
    // heap must still run ticks in order and same-tick events FIFO
    // (this pins the std::pop_heap-based pop, which replaced the
    // const_cast move out of priority_queue::top()).
    EventQueue eq;
    std::vector<int> order;
    const Cycles ticks[] = {5, 1, 5, 3, 1, 5, 3, 1};
    for (int i = 0; i < 8; ++i)
        eq.schedule(ticks[i], [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 4, 7, 3, 6, 0, 2, 5}));
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i)
        eq.schedule(static_cast<Cycles>((i * 7919) % 1000), [&] {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
        });
    eq.run();
    EXPECT_TRUE(monotonic);
}

TEST(EventQueue, BucketRingWraparound)
{
    // A self-rescheduling chain whose in-window stride does not divide
    // kRingSize walks the ring slots through many wraps without ever
    // touching the overflow heap; each hop must land exactly where
    // scheduled.
    EventQueue eq;
    constexpr Cycles kStride = 700; // < kRingSize, does not divide it
    constexpr int kHops = 40;       // covers > 27 * kRingSize ticks
    std::vector<Tick> at;
    struct Hopper
    {
        EventQueue &eq;
        std::vector<Tick> &at;
        int hopsLeft;
        void
        operator()()
        {
            at.push_back(eq.now());
            if (hopsLeft > 1)
                eq.schedule(kStride, Hopper{eq, at, hopsLeft - 1});
        }
    };
    eq.schedule(kStride, Hopper{eq, at, kHops});
    eq.run();
    ASSERT_EQ(at.size(), static_cast<std::size_t>(kHops));
    for (int i = 0; i < kHops; ++i)
        EXPECT_EQ(at[static_cast<std::size_t>(i)],
                  static_cast<Tick>(kStride) *
                      static_cast<Tick>(i + 1));
    EXPECT_GT(eq.now(), EventQueue::kRingSize * 27);
}

TEST(EventQueue, FarFutureOverflowPromotion)
{
    // An event beyond the ring window parks in the overflow heap and is
    // promoted into its bucket when the clock approaches; it must still
    // run at its exact tick, before any same-tick event scheduled later.
    EventQueue eq;
    std::vector<int> order;
    const Tick far = EventQueue::kRingSize * 3 + 17;
    eq.scheduleAt(far, [&] { order.push_back(0); }); // overflow
    eq.scheduleAt(far - 100, [&] {
        // far is now inside the window; this lands in the bucket.
        eq.scheduleAt(far, [&] { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), far);
}

TEST(EventQueue, FifoWithinTickAcrossBucketHeapBoundary)
{
    // Several events land on one tick via both levels: three scheduled
    // while the tick was outside the window (heap), two more scheduled
    // after it entered the window (bucket). Global FIFO is by schedule
    // time, so the heap-promoted three run first, in order.
    EventQueue eq;
    std::vector<int> order;
    const Tick t = EventQueue::kRingSize * 2 + 5;
    for (int i = 0; i < 3; ++i)
        eq.scheduleAt(t, [&order, i] { order.push_back(i); });
    eq.scheduleAt(t - 50, [&] {
        for (int i = 3; i < 5; ++i)
            eq.scheduleAt(t, [&order, i] { order.push_back(i); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, DeliveriesRunFirstInSourceOrder)
{
    // Within a tick every scheduleNet delivery runs before every
    // ordinary event, ordered by (src, srcSeq) whatever the send order
    // or level (ring or overflow heap); a zero-latency delivery runs as
    // an ordinary event. Labels: delivery (s, q) is 10s+q at tick 10
    // and 500+10s+q at tick 5000; ordinary events are 100.. and 500..
    EventQueue eq;
    std::vector<int> order;
    auto log = [&order](int label) {
        return [&order, label] { order.push_back(label); };
    };
    eq.scheduleAt(10, log(100));
    eq.scheduleNet(10, 3, 0, log(30));
    eq.scheduleNet(10, 1, 5, [&] {
        order.push_back(15);
        eq.scheduleAt(eq.now(), log(101));
        eq.scheduleNet(eq.now(), 0, 0, log(102));
    });
    eq.scheduleNet(10, 1, 2, log(12));

    const Tick far = 5000; // outside the ring window until tick 3977
    eq.scheduleAt(far, log(500));
    eq.scheduleNet(far, 2, 7, log(527));
    eq.scheduleNet(far, 0, 9, log(509));
    eq.scheduleAt(4000, [&] {
        eq.scheduleNet(far, 1, 1, log(511));
        eq.scheduleAt(far, log(501));
    });

    eq.run();
    EXPECT_EQ(order, (std::vector<int>{12, 15, 30, 100, 101, 102, 509, 511,
                                       527, 500, 501}));
    EXPECT_EQ(eq.now(), far);
}

TEST(EventQueue, MixedNearFarStressOrdering)
{
    // Random mix straddling the ring/overflow boundary, including
    // events that reschedule across it; (tick, seq) order must hold.
    EventQueue eq;
    std::uint32_t lcg = 42;
    auto rnd = [&] {
        lcg = lcg * 1664525u + 1013904223u;
        return lcg >> 16;
    };
    Tick last = 0;
    std::uint64_t executed = 0;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        Cycles d = rnd() % (3 * EventQueue::kRingSize);
        eq.schedule(d, [&] {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
            ++executed;
        });
    }
    EXPECT_EQ(eq.run(), 5000u);
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(executed, 5000u);
}

TEST(EventQueue, ResetClearsBothLevels)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(3, [&] { ++ran; });                          // ring
    eq.schedule(EventQueue::kRingSize * 5, [&] { ++ran; }); // overflow
    EXPECT_EQ(eq.pending(), 2u);
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(ran, 0);
    // The queue must be fully reusable after reset.
    eq.schedule(1, [&] { ++ran; });
    eq.run();
    EXPECT_EQ(ran, 1);
}

// ---------------------------------------------------------------------------
// The horizon query: Machine::run's loop calls nextTick() once per
// simulated tick.

TEST(EventQueueHorizon, EmptyQueueReportsNever)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTick(), EventQueue::kNever);
}

TEST(EventQueueHorizon, TracksEarliestEvent)
{
    EventQueue eq;
    eq.scheduleAt(100, [] {});
    EXPECT_EQ(eq.nextTick(), 100u);
    // An earlier schedule lowers the horizon...
    eq.scheduleAt(60, [] {});
    EXPECT_EQ(eq.nextTick(), 60u);
    // ...and a later one (overflow-heap range) leaves it alone.
    eq.scheduleAt(EventQueue::kRingSize * 4, [] {});
    EXPECT_EQ(eq.nextTick(), 60u);
}

TEST(EventQueueHorizon, DrainTickRecomputesExactHorizon)
{
    EventQueue eq;
    std::vector<Tick> seen;
    eq.scheduleAt(10, [&] {
        seen.push_back(eq.now());
        eq.scheduleAt(12, [&] { seen.push_back(eq.now()); });
    });
    eq.scheduleAt(40, [&] { seen.push_back(eq.now()); });
    EXPECT_EQ(eq.nextTick(), 10u);
    eq.drainTick(10);
    EXPECT_EQ(seen, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.nextTick(), 12u); // scheduled during the drain
    eq.drainTick(12);
    EXPECT_EQ(eq.nextTick(), 40u);
    eq.drainTick(40);
    EXPECT_EQ(eq.nextTick(), EventQueue::kNever);
}

// ---------------------------------------------------------------------------
// drainTick() runs a tick's events in place, from storage swapped out of
// the bucket, while same-tick schedules append to the bucket itself.

TEST(EventQueueDrain, SameTickAppendsThatReallocateRunFifoAfterTheTick)
{
    // The first event schedules enough same-tick events to reallocate
    // the bucket several times over while it is still running; it
    // reads its own capture afterwards, so running it from storage the
    // reallocation freed would be a use-after-free under ASan. One of
    // the appended events appends once more (a third round).
    EventQueue eq;
    std::vector<int> order;
    std::vector<Tick> at;
    constexpr int kAppended = 200;
    auto log = [&](int label) {
        order.push_back(label);
        at.push_back(eq.now());
    };
    eq.scheduleAt(5, [&, label = 0] {
        for (int i = 0; i < kAppended; ++i)
            eq.schedule(0, [&, i] {
                log(100 + i);
                if (i == kAppended - 1)
                    eq.schedule(0, [&] { log(1000); });
            });
        log(label);
    });
    for (int label = 1; label < 3; ++label)
        eq.scheduleAt(5, [&, label] { log(label); });
    eq.scheduleAt(6, [&] { log(2000); });

    EXPECT_EQ(eq.drainTick(5), 3u + kAppended + 1);
    std::vector<int> expected = {0, 1, 2};
    for (int i = 0; i < kAppended; ++i)
        expected.push_back(100 + i);
    expected.push_back(1000);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(at, std::vector<Tick>(expected.size(), 5));
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.nextTick(), 6u);
}

TEST(EventQueueDrain, FinishesATickThatStepBegan)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.scheduleAt(3, [&order, i] { order.push_back(i); });
    eq.scheduleAt(3, [&] {
        order.push_back(5);
        eq.schedule(0, [&] { order.push_back(6); });
    });
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.nextTick(), 3u);
    EXPECT_EQ(eq.drainTick(3), 5u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), EventQueue::kNever);
}

TEST(EventQueueDrain, PromotedDeliveryRunsBeforeRingEvents)
{
    // The delivery is sent while its tick lies beyond the ring window
    // (overflow heap); the ordinary events reach the tick's bucket
    // first. Promotion at the tick must still put the delivery ahead.
    EventQueue eq;
    std::vector<int> order;
    const Tick far = EventQueue::kRingSize + 100;
    eq.scheduleNet(far, 4, 0, [&] { order.push_back(0); });
    eq.scheduleAt(200, [&] {
        for (int i = 1; i < 4; ++i)
            eq.scheduleAt(far, [&order, i] { order.push_back(i); });
    });
    EXPECT_EQ(eq.drainTick(eq.nextTick()), 1u);
    EXPECT_EQ(eq.nextTick(), far);
    EXPECT_EQ(eq.drainTick(far), 4u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueDrain, DrainingFromACallbackPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH(eq.drainTick(eq.now()), "called from a callback");
    });
    eq.run();
}

TEST(InlineCallback, HoldsOnlyPlainCapturesWithinTheBudget)
{
    // The converting constructor is constrained, not static_asserted:
    // a callable InlineCallback cannot hold is not even a candidate.
    const std::string name = "line";
    auto owns_string = [name] { return name.size(); };
    static_assert(
        !std::is_constructible_v<InlineCallback, decltype(owns_string)>);

    struct Over
    {
        unsigned char bytes[kInlineCallbackBytes + 1];
    };
    const Over over{};
    auto one_byte_over = [over] { return over.bytes[0]; };
    static_assert(
        !std::is_constructible_v<InlineCallback, decltype(one_byte_over)>);

    struct Fill
    {
        unsigned char bytes[kInlineCallbackBytes - sizeof(int *)];
    };
    int hits = 0;
    Fill fill{};
    fill.bytes[sizeof(fill.bytes) - 1] = 2;
    auto fills_budget = [&hits, fill] {
        hits += fill.bytes[sizeof(fill.bytes) - 1];
    };
    static_assert(sizeof(fills_budget) == kInlineCallbackBytes);
    static_assert(
        std::is_constructible_v<InlineCallback, decltype(fills_budget)>);

    // A held callable is plain bytes, so the callback copies as bytes.
    static_assert(std::is_trivially_copyable_v<InlineCallback>);
    InlineCallback cb = fills_budget;
    InlineCallback copy = cb;
    cb();
    copy();
    EXPECT_EQ(hits, 4);
}

} // namespace
} // namespace flashsim
