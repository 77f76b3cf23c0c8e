/** @file Unit tests for the mesh network model. */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "network/mesh.hh"

namespace flashsim::network
{
namespace
{

protocol::Message
msg(NodeId src, NodeId dest, bool data = false)
{
    protocol::Message m;
    m.type = data ? protocol::MsgType::NetPut : protocol::MsgType::NetGet;
    m.src = src;
    m.dest = dest;
    m.requester = src;
    m.addr = 0x1000;
    return m;
}

TEST(MeshNetwork, SixteenNodeAverageIs22Cycles)
{
    // Section 3.2: 1 hop in + 2.6 hops + 1 hop out at 4 cycles/hop plus
    // 3 header cycles = 22 cycles for 16 processors.
    EventQueue eq;
    MeshNetwork net(eq, 16);
    EXPECT_EQ(net.side(), 4);
    EXPECT_EQ(net.avgTransit(), 22u);
}

TEST(MeshNetwork, SixtyFourNodeAverageGrows)
{
    EventQueue eq;
    MeshNetwork net(eq, 64);
    EXPECT_EQ(net.side(), 8);
    EXPECT_GT(net.avgTransit(), 22u);
    EXPECT_LT(net.avgTransit(), 50u);
}

TEST(MeshNetwork, DeliversAfterTransit)
{
    EventQueue eq;
    MeshNetwork net(eq, 16);
    Tick delivered = 0;
    net.connect(3, [&](const protocol::Message &) { delivered = eq.now(); });
    eq.schedule(100, [&] { net.send(msg(0, 3)); });
    eq.run();
    EXPECT_EQ(delivered, 100u + net.avgTransit());
}

TEST(MeshNetwork, CountsDataMessages)
{
    EventQueue eq;
    MeshNetwork net(eq, 4);
    net.connect(1, [](const protocol::Message &) {});
    net.send(msg(0, 1, false));
    net.send(msg(0, 1, true));
    eq.run();
    EXPECT_EQ(net.messages(), 2u);
    EXPECT_EQ(net.dataMessages(), 1u);
}

TEST(MeshNetwork, SelfSendPaysOnlyEntryExitInAverageMode)
{
    // Regression: a self-send never enters the mesh, so it must not be
    // charged the average internal hop count (which itself excludes
    // self-pairs) — only entry + exit at 4 cycles each plus the 3
    // header cycles.
    EventQueue eq;
    MeshNetwork net(eq, 16);
    EXPECT_EQ(net.transit(5, 5), 2u * 4u + 3u);
    EXPECT_LT(net.transit(5, 5), net.avgTransit());
    // Distinct pairs still pay the fixed average.
    EXPECT_EQ(net.transit(5, 6), net.avgTransit());
}

TEST(MeshNetwork, SelfSendPaysOnlyEntryExitInDistanceMode)
{
    EventQueue eq;
    MeshParams p;
    p.distanceBased = true;
    MeshNetwork net(eq, 16, p);
    EXPECT_EQ(net.transit(5, 5), 2u * 4u + 3u);

    // Delivery honours the reduced self-send latency.
    Tick delivered = 0;
    net.connect(5, [&](const protocol::Message &) { delivered = eq.now(); });
    net.send(msg(5, 5));
    eq.run();
    EXPECT_EQ(delivered, 2u * 4u + 3u);
}

TEST(MeshNetwork, DistanceBasedTransit)
{
    EventQueue eq;
    MeshParams p;
    p.distanceBased = true;
    MeshNetwork net(eq, 16, p);
    // Corner to corner on a 4x4 mesh: 6 internal hops + 2 = 8 hops.
    EXPECT_EQ(net.transit(0, 15), 4u * 8u + 3u);
    // Adjacent nodes: 1 + 2 hops.
    EXPECT_EQ(net.transit(0, 1), 4u * 3u + 3u);
}

TEST(MeshNetwork, FifoPerPair)
{
    EventQueue eq;
    MeshNetwork net(eq, 4);
    std::vector<Addr> order;
    net.connect(1, [&](const protocol::Message &m) {
        order.push_back(m.addr);
    });
    eq.schedule(0, [&] {
        protocol::Message a = msg(0, 1);
        a.addr = 1;
        net.send(a);
    });
    eq.schedule(1, [&] {
        protocol::Message b = msg(0, 1);
        b.addr = 2;
        net.send(b);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<Addr>{1, 2}));
}

TEST(MeshNetwork, PerturbJitterClampsToFifo)
{
    // A later message with less jitter must not overtake an earlier
    // heavily-jittered one on the same (src, dest) pair.
    EventQueue eq;
    MeshNetwork net(eq, 4);
    std::vector<std::pair<Addr, Tick>> deliveries;
    net.connect(1, [&](const protocol::Message &m) {
        deliveries.emplace_back(m.addr, eq.now());
    });
    net.setPerturb([](const protocol::Message &m) -> Cycles {
        return m.addr == 1 ? 500 : 0;
    });
    eq.schedule(0, [&] {
        protocol::Message a = msg(0, 1);
        a.addr = 1;
        net.send(a);
    });
    eq.schedule(1, [&] {
        protocol::Message b = msg(0, 1);
        b.addr = 2;
        net.send(b);
    });
    eq.run();
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0].first, 1u);
    EXPECT_EQ(deliveries[1].first, 2u);
    EXPECT_GE(deliveries[1].second, deliveries[0].second);
}

TEST(MeshNetwork, PerturbReinstallDropsStaleClamps)
{
    // A perturb pushed lastDelivery_ far into the future; clearing it
    // and installing a fresh one must start from a clean clamp table,
    // not hold new traffic behind the old floors.
    EventQueue eq;
    MeshNetwork net(eq, 4);
    Tick delivered = 0;
    net.connect(1, [&](const protocol::Message &) { delivered = eq.now(); });

    net.setPerturb([](const protocol::Message &) -> Cycles {
        return 100000;
    });
    net.send(msg(0, 1));
    eq.run();
    EXPECT_GE(delivered, 100000u);

    net.setPerturb({}); // remove
    net.setPerturb([](const protocol::Message &) -> Cycles { return 0; });
    Tick start = eq.now();
    net.send(msg(0, 1));
    eq.run();
    EXPECT_EQ(delivered, start + net.transit(0, 1));
}

TEST(MeshNetwork, SendAtDeliversAtDeparturePlusTransit)
{
    EventQueue eq;
    MeshNetwork net(eq, 16);
    Tick delivered = 0;
    net.connect(3, [&](const protocol::Message &) { delivered = eq.now(); });
    eq.schedule(10, [&] { net.sendAt(msg(0, 3), eq.now() + 7); });
    eq.run();
    EXPECT_EQ(delivered, 10u + 7u + net.avgTransit());
    EXPECT_EQ(net.messages(), 1u);
}

TEST(MeshNetwork, SendAtUnderPerturbKeepsFifoClamp)
{
    // sendAt falls back to the two-stage path under a perturb, so the
    // anti-reordering clamp still observes sends in departure order.
    EventQueue eq;
    MeshNetwork net(eq, 4);
    std::vector<Addr> order;
    net.connect(1, [&](const protocol::Message &m) {
        order.push_back(m.addr);
    });
    net.setPerturb([](const protocol::Message &m) -> Cycles {
        return m.addr == 1 ? 300 : 0;
    });
    eq.schedule(0, [&] {
        protocol::Message a = msg(0, 1);
        a.addr = 1;
        net.sendAt(a, eq.now() + 2);
        protocol::Message b = msg(0, 1);
        b.addr = 2;
        net.sendAt(b, eq.now() + 5);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<Addr>{1, 2}));
}

TEST(MeshNetwork, DeliveryOutlivesNestedSendsAndBursts)
{
    // Each delivery event carries its message by value. A receiver that
    // sends more than 128 messages from inside its delivery callback,
    // growing the event queue's buckets while it runs, still sees its
    // own message intact afterwards, and a burst wider than that from
    // one tick arrives whole and in send order.
    EventQueue eq;
    MeshNetwork net(eq, 4);
    constexpr int kWide = 300;

    protocol::Message first = msg(0, 1, true);
    first.requester = 3;
    first.addr = 0xabc0;
    first.aux = 77;
    int first_seen = 0;
    net.connect(1, [&](const protocol::Message &m) {
        ++first_seen;
        for (int i = 0; i < kWide; ++i)
            net.send(msg(1, 2));
        EXPECT_EQ(m.type, protocol::MsgType::NetPut);
        EXPECT_EQ(m.src, 0u);
        EXPECT_EQ(m.dest, 1u);
        EXPECT_EQ(m.requester, 3u);
        EXPECT_EQ(m.addr, 0xabc0u);
        EXPECT_EQ(m.aux, 77u);
    });
    int fanned = 0;
    net.connect(2, [&](const protocol::Message &m) {
        EXPECT_EQ(m.src, 1u);
        ++fanned;
    });
    std::vector<Addr> burst;
    net.connect(3, [&](const protocol::Message &m) {
        burst.push_back(m.addr);
    });

    eq.schedule(0, [&] {
        net.send(first);
        for (int i = 0; i < kWide; ++i) {
            protocol::Message b = msg(0, 3);
            b.addr = static_cast<Addr>(i);
            net.send(b);
        }
    });
    eq.run();
    EXPECT_EQ(first_seen, 1);
    EXPECT_EQ(fanned, kWide);
    ASSERT_EQ(burst.size(), static_cast<std::size_t>(kWide));
    for (int i = 0; i < kWide; ++i)
        EXPECT_EQ(burst[static_cast<std::size_t>(i)], static_cast<Addr>(i));
    EXPECT_EQ(net.messages(), static_cast<Counter>(2 * kWide + 1));
}

TEST(MeshNetwork, UnconnectedDestinationPanics)
{
    EventQueue eq;
    MeshNetwork net(eq, 4);
    EXPECT_DEATH(
        {
            net.send(msg(0, 2));
            eq.run();
        },
        "no receiver");
}

TEST(MeshNetwork, RejectsMoreNodesThanTheDeliveryKeyHolds)
{
    // Node ids ride in the event queue's delivery sort key, which has
    // room for kMaxNetNodes of them.
    EventQueue eq;
    const int limit = static_cast<int>(EventQueue::kMaxNetNodes);
    MeshNetwork largest(eq, limit);
    EXPECT_EQ(largest.side(), 182);
    EXPECT_DEATH(MeshNetwork(eq, limit + 1), "exceeds the limit");
}

TEST(MeshNetwork, RejectsFewerThanOneNode)
{
    EventQueue eq;
    MeshNetwork single(eq, 1);
    EXPECT_EQ(single.side(), 1);
    EXPECT_DEATH(MeshNetwork(eq, 0), "needs at least 1");
    EXPECT_DEATH(MeshNetwork(eq, -3), "needs at least 1");
}

} // namespace
} // namespace flashsim::network
