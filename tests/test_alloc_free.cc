/**
 * @file
 * Proves EventQueue::schedule(), the machine's per-reference path and
 * a wide invalidation fan-out are allocation-free in steady state.
 *
 * The whole point of InlineCallback + the bucket ring is that the
 * per-event path performs zero heap allocations once bucket capacity
 * has warmed up (std::function used to allocate on every capture past
 * 16 bytes). This binary-wide counting operator new makes that claim a
 * test instead of a hope: every allocation anywhere in the test binary
 * bumps the counter, and the steady-state loop asserts it stays put.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>

#include "machine/machine.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "sim/event_queue.hh"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

// The over-aligned forms count too: a container of over-aligned
// elements allocates through them, not through the two above.
namespace
{
void *
countedAlignedAlloc(std::size_t size, std::align_val_t al)
{
    ++g_allocs;
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(a, (size + a - 1) / a * a);
}
} // namespace

void *
operator new(std::size_t size, std::align_val_t al)
{
    if (void *p = countedAlignedAlloc(size, al))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size, std::align_val_t al)
{
    if (void *p = countedAlignedAlloc(size, al))
        return p;
    throw std::bad_alloc{};
}

// The deletes below are noinline: inlined into a caller that also sees
// the matching operator new, GCC's -Wmismatched-new-delete takes the
// free() for a mismatch (the sanitizer builds' -O1 inlines them).
//
// The nothrow forms must be replaced too: the library versions would
// allocate behind the counting operator new's back, and their memory
// would then be freed through the replaced delete below (ASan reports
// that as alloc-dealloc-mismatch; std::stable_sort's temporary buffer
// takes this path).
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace flashsim
{
namespace
{

/**
 * A capture that, with its pointer, fills InlineCallback's entire
 * 48-byte inline budget: as large as the biggest scheduled in-tree
 * ([this, Message], 40 bytes), plus a second pointer's worth.
 */
struct MaxPayload
{
    void *self;
    std::uint64_t addr, arg;
    std::uint32_t fields[3];
    std::uint8_t flags[4];
};
// [&sink, p] below fills kInlineCallbackBytes exactly; the
// constructor's constraint rejects anything larger at compile time
// (InlineCallback.HoldsOnlyPlainCapturesWithinTheBudget).
static_assert(sizeof(MaxPayload) + sizeof(void *) == kInlineCallbackBytes);

TEST(AllocFree, SteadyStateScheduleDoesNotAllocate)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint32_t lcg = 1;
    auto post = [&] {
        lcg = lcg * 1664525u + 1013904223u;
        const Cycles d = (lcg >> 20) & 0xff;
        MaxPayload p{&eq, sink, d, {1, 2, 3}, {4, 5, 6, 7}};
        eq.schedule(d, [&sink, p] { sink += p.addr ^ p.arg; });
    };

    // Warm-up: grow every bucket vector to its steady-state capacity
    // over many ring wraps of the same delay distribution.
    for (int i = 0; i < 50000; ++i) {
        post();
        eq.step();
    }

    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 20000; ++i) {
        post();
        eq.step();
    }
    EXPECT_EQ(g_allocs.load(), before)
        << "EventQueue::schedule()/step() allocated in steady state";
    ASSERT_NE(sink, 0u);
}

TEST(AllocFree, SteadyStateDrainTickDoesNotAllocate)
{
    // The machine's run loop drains whole ticks. Each event here also
    // schedules one same-tick follow-up, which lands in the bucket
    // drainTick() has just swapped its running events out of; that
    // swap must recycle storage, not allocate, once warm.
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint32_t lcg = 1;
    auto post = [&] {
        lcg = lcg * 1664525u + 1013904223u;
        const Cycles d = (lcg >> 20) & 0xff;
        eq.schedule(d, [&sink, &eq, d] {
            MaxPayload p{&eq, sink, d, {1, 2, 3}, {4, 5, 6, 7}};
            eq.schedule(0, [&sink, p] { sink += p.addr ^ p.arg; });
        });
    };
    auto round = [&] {
        post();
        eq.drainTick(eq.nextTick());
    };

    for (int i = 0; i < 50000; ++i)
        round();
    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 20000; ++i)
        round();
    EXPECT_EQ(g_allocs.load(), before)
        << "EventQueue::schedule()/drainTick() allocated in steady state";
    ASSERT_NE(sink, 0u);
}

TEST(AllocFree, MaxCaptureIntoWarmBucketDoesNotAllocate)
{
    // A single schedule() into a bucket with spare capacity performs no
    // allocation even for the largest in-tree capture: the callback
    // lives inline in the Event, and a drained bucket keeps its
    // capacity (freshen() clears, it does not shrink).
    EventQueue eq;
    int hits = 0;
    for (int i = 0; i < 16; ++i)
        eq.schedule(1, [&hits] { ++hits; });
    for (int i = 0; i < 16; ++i)
        eq.step();
    EXPECT_EQ(hits, 16);
    // now() == 1; delay 0 lands back in the just-drained bucket.
    const std::uint64_t before = g_allocs.load();
    MaxPayload p{&eq, 1, 2, {1, 2, 3}, {4, 5, 6, 7}};
    eq.schedule(0, [&hits, p] { hits += static_cast<int>(p.arg); });
    EXPECT_EQ(g_allocs.load(), before);
    eq.run();
    EXPECT_EQ(hits, 18);
}

/**
 * A workload of cache hits and misses (with upgrades and writebacks)
 * on lines homed at @p home runs the processor, cache, MAGIC inbox and
 * dispatch, PP emulator and MDC model on every iteration; with a
 * remote home (node 1) every miss also crosses the mesh, the event
 * queue's sorted delivery insert and the NI inbound queue. The
 * warm-up spans hundreds of event-ring wraps, so every ring bucket has
 * grown to its steady capacity; the loop then samples the allocation
 * counter at two iterations, and nothing on the per-reference or
 * per-handler path may allocate in between. The machine runs without
 * verify.check, so this also pins that its PP engine runs unchecked:
 * the checked run's replay against the reference interpreter
 * allocates on every handler.
 */
void
expectReferenceLoopDoesNotAllocate(NodeId home)
{
    SCOPED_TRACE(testing::Message() << "home node " << home);
    machine::MachineConfig cfg = machine::MachineConfig::flash(2);
    cfg.cache.sizeBytes = 1024; // 4 sets x 2 ways: 512 B apart, same set
    machine::Machine m(cfg);
    const Addr base = m.alloc(3 * 512, home);
    constexpr int kWarm = 4000;
    constexpr int kMeasured = 400;
    std::uint64_t before = 0;
    std::uint64_t after = 0;
    Tick warm_tick = 0;
    m.run([&](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        for (int i = 0; i <= kWarm + kMeasured; ++i) {
            if (i == kWarm) {
                warm_tick = env.proc().cursor();
                before = g_allocs.load();
            }
            if (i == kWarm + kMeasured)
                after = g_allocs.load();
            const Addr line = base + static_cast<Addr>(i % 3) * 512;
            co_await env.read(line);  // miss: three lines, two ways
            co_await env.read(line);  // hit
            co_await env.write(line); // upgrade miss
            co_await env.write(line); // hit on the exclusive copy
            co_await env.busy(8);
        }
    });
    m.drain();
    EXPECT_GT(warm_tick, static_cast<Tick>(EventQueue::kRingSize));
    EXPECT_GT(m.node(0).cache().readMisses,
              static_cast<Counter>(kWarm + kMeasured));
    EXPECT_EQ(after, before)
        << "the machine's reference loop allocated in steady state";
}

/**
 * A write to a line with six sharers sends six invalidations and the
 * exclusive reply: wider than the common case. Each round cleans the
 * line and re-adds the sharers, then runs the GETX at home; once the
 * engine's result has grown to that fan-out, neither the directory's
 * sharer list nor the handler's message list may allocate.
 */
TEST(AllocFree, WideInvalidationFanOutDoesNotAllocate)
{
    protocol::DirectoryStore dir;
    protocol::ProtocolEngine engine(/*self=*/0, dir);
    constexpr Addr kLine = 0x4000;
    constexpr NodeId kSharers[] = {2, 3, 4, 5, 6, 7};
    protocol::Message getx;
    getx.type = protocol::MsgType::NetGetx;
    getx.src = 1;
    getx.dest = 0;
    getx.requester = 1;
    getx.addr = kLine;
    auto round = [&] {
        dir.setHeader(kLine, protocol::DirHeader{});
        for (NodeId s : kSharers)
            dir.addSharer(kLine, s);
        const protocol::HandlerResult &r =
            engine.handleGetxAtHome(getx, /*home=*/0, false);
        return r.out.size();
    };

    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(round(), std::size(kSharers) + 1);
    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 1000; ++i)
        round();
    EXPECT_EQ(g_allocs.load(), before)
        << "a wide invalidation fan-out allocated once warm";
}

TEST(AllocFree, MachineReferenceLoopDoesNotAllocate)
{
    for (NodeId home : {NodeId{0}, NodeId{1}})
        expectReferenceLoopDoesNotAllocate(home);
}

} // namespace
} // namespace flashsim
