/**
 * @file
 * Unit tests for the MAGIC pipeline itself: dispatch serialization,
 * speculative memory initiation (inbox-pipelined and disabled), local
 * loopback, MIC cold misses, occupancy accounting, and the ideal
 * machine's zero-time behavior. Driven through a minimal two-node
 * machine so the protocol and cache layers behave normally.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"

namespace flashsim::machine
{
namespace
{

tango::Task
singleRead(tango::Env &env, Addr a, int reader)
{
    co_await env.busy(0);
    if (env.id() == reader)
        co_await env.read(a);
}

TEST(MagicTest, SpeculativeReadIssuedForLocalGet)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([&](tango::Env &env) { return singleRead(env, a, 0); });
    m.drain();
    EXPECT_EQ(m.node(0).magic().specIssued, 1u);
    EXPECT_EQ(m.node(0).magic().specUseless, 0u);
}

TEST(MagicTest, UselessSpeculativeReadCounted)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([&](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1) {
            co_await env.write(a); // dirty at node 1
        } else {
            co_await env.busy(40000);
            co_await env.read(a); // GET finds line dirty remote
        }
    });
    m.drain();
    // The GET's speculative read was useless (data was dirty remotely);
    // the write's speculative read was useful.
    EXPECT_GE(m.node(0).magic().specUseless, 1u);
}

TEST(MagicTest, DisablingSpeculationRemovesUselessReads)
{
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.magic.speculation = false;
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([&](tango::Env &env) { return singleRead(env, a, 0); });
    m.drain();
    EXPECT_EQ(m.node(0).magic().specIssued, 0u);
    // The read still completed (the PP initiated the access itself).
    EXPECT_EQ(m.node(0).cache().readMisses, 1u);
}

TEST(MagicTest, SpeculationDisabledIsSlowerForLocalReads)
{
    auto run_one = [](bool spec) {
        MachineConfig cfg = MachineConfig::flash(2);
        cfg.magic.speculation = spec;
        Machine m(cfg);
        Addr base = m.alloc(64 * kLineSize, 0);
        return m.run([base](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            if (env.id() != 0)
                co_return;
            for (int i = 0; i < 64; ++i)
                co_await env.read(base + static_cast<Addr>(i) *
                                             kLineSize);
        });
    };
    Tick with = run_one(true);
    Tick without = run_one(false);
    EXPECT_GT(without, with);
}

TEST(MagicTest, PpSerializesHandlers)
{
    // Two processors hammer one home node: the PP must serialize, so
    // its busy time must be near the sum of its handler costs and the
    // queue stall counter must be nonzero under load.
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    Addr base = m.alloc(128 * kLineSize, 0);
    m.run([base](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 0)
            co_return;
        for (int i = 0; i < 40; ++i)
            co_await env.read(base +
                              static_cast<Addr>((env.id() - 1) * 40 + i) *
                                  kLineSize);
    });
    m.drain();
    EXPECT_GT(m.node(0).magic().queueStallCycles, 0u);
    Cycles handler_sum = 0;
    for (Counter c : m.node(0).magic().handlerCycles)
        handler_sum += c;
    EXPECT_EQ(m.node(0).magic().ppOcc.busyCycles(), handler_sum);
}

TEST(MagicTest, IdealMachineHasZeroPpTime)
{
    MachineConfig cfg = MachineConfig::ideal(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([&](tango::Env &env) { return singleRead(env, a, 1); });
    m.drain();
    EXPECT_EQ(m.node(0).magic().ppOcc.busyCycles(), 0u);
    EXPECT_GT(m.node(0).magic().invocations, 0u);
}

TEST(MagicTest, MicColdMissesOncePerHandler)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    Addr base = m.alloc(8 * kLineSize, 0);
    m.run([base](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        for (int i = 0; i < 8; ++i)
            co_await env.read(base + static_cast<Addr>(i) * kLineSize);
    });
    m.drain();
    // Eight identical local GETs share one handler program: exactly one
    // cold MIC miss.
    EXPECT_EQ(m.node(0).magic().micColdMisses, 1u);
}

TEST(MagicTest, HandlerCountsMatchTraffic)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0); // homed at node 0
    m.run([&](tango::Env &env) { return singleRead(env, a, 1); });
    m.drain();
    using protocol::HandlerId;
    const auto &home = m.node(0).magic();
    const auto &req = m.node(1).magic();
    EXPECT_EQ(home.handlerCount[static_cast<int>(
                  HandlerId::ServeReadMemory)], 1u);
    EXPECT_EQ(req.handlerCount[static_cast<int>(HandlerId::FwdToHome)],
              1u);
    EXPECT_EQ(req.handlerCount[static_cast<int>(HandlerId::ReplyToProc)],
              1u);
    EXPECT_EQ(home.readClasses.remoteClean, 1u);
}

TEST(MagicTest, MemoryOccupiedByProtocolData)
{
    // A stream of misses over many distinct lines forces MDC fills,
    // which must show up as protocol accesses on the memory controller.
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    // 4 MB of lines: directory headers span 256 KB > the 64 KB MDC.
    Addr base = m.alloc(Addr{1} << 22, 0);
    m.run([base](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        for (int i = 0; i < 2048; ++i)
            co_await env.read(base + static_cast<Addr>(i) * 16 *
                                         kLineSize);
    });
    m.drain();
    EXPECT_GT(m.node(0).magic().memory().protocolAccesses, 50u);
}

TEST(MagicFifoTest, FifoOrderHoldsAcrossWrapAndGrowth)
{
    magic::MagicFifo<int> q;
    int pushed = 0;
    int popped = 0;
    auto pop = [&] {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.front(), popped++);
        q.pop_front();
    };
    // Cycle the first ring so its head sits mid-buffer, then fill it
    // until the live range wraps past the end.
    for (; pushed < 10; ++pushed)
        q.push_back(pushed);
    const std::size_t cap = q.capacity();
    ASSERT_GE(cap, 10u);
    for (int i = 0; i < 8; ++i)
        pop();
    while (q.size() < cap)
        q.push_back(pushed++);
    EXPECT_EQ(q.capacity(), cap);
    // One more grows the ring while it is full and wrapped.
    q.push_back(pushed++);
    EXPECT_EQ(q.capacity(), 2 * cap);
    EXPECT_EQ(q.size(), cap + 1);
    // Interleave pops and pushes across a second growth.
    for (int i = 0; i < 5 * static_cast<int>(cap); ++i) {
        q.push_back(pushed++);
        q.push_back(pushed++);
        pop();
    }
    EXPECT_GT(q.capacity(), 2 * cap);
    while (!q.empty())
        pop();
    EXPECT_EQ(popped, pushed);
}

} // namespace
} // namespace flashsim::machine
