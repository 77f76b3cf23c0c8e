/** @file Unit tests for the handler timing: Table 3.4 and PPsim. */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "magic/timing_model.hh"

namespace flashsim::magic
{
namespace
{

using protocol::DirectoryStore;
using protocol::DirHeader;
using protocol::HandlerId;
using protocol::HandlerPrograms;
using protocol::Message;
using protocol::MsgType;

Message
msg(MsgType t, NodeId src, Addr addr, NodeId req, std::uint32_t aux = 0)
{
    Message m;
    m.type = t;
    m.src = src;
    m.dest = 0;
    m.requester = req;
    m.addr = addr;
    m.aux = aux;
    return m;
}

TEST(TableTimingModel, MatchesTable34)
{
    EXPECT_EQ(tableCost(HandlerId::ServeReadMemory, 0), 11u);
    EXPECT_EQ(tableCost(HandlerId::ServeWriteMemory, 0), 14u);
    EXPECT_EQ(tableCost(HandlerId::ServeWriteMemory, 5),
              14u + 5u * 13u);
    EXPECT_EQ(tableCost(HandlerId::FwdToHome, 0), 3u);
    EXPECT_EQ(tableCost(HandlerId::FwdHomeToDirty, 0), 18u);
    EXPECT_EQ(tableCost(HandlerId::RetrieveFromCache, 0),
              38u);
    EXPECT_EQ(tableCost(HandlerId::ReplyToProc, 0), 2u);
    EXPECT_EQ(tableCost(HandlerId::LocalWriteback, 0), 10u);
    EXPECT_EQ(tableCost(HandlerId::LocalHint, 0), 7u);
    EXPECT_EQ(tableCost(HandlerId::RemoteWriteback, 0), 8u);
    EXPECT_EQ(tableCost(HandlerId::RemoteHintOnly, 0), 17u);
    EXPECT_EQ(tableCost(HandlerId::RemoteHintNth, 2),
              23u + 28u);
}

TEST(TableTimingModel, EveryHandlerHasANonzeroCost)
{
    // A missing case falls through to 0 and --table-timing would run
    // that handler for free.
    for (int i = 0; i < protocol::kNumHandlerIds; ++i) {
        const auto id = static_cast<HandlerId>(i);
        EXPECT_GT(tableCost(id, 0), 0u)
            << protocol::handlerIdName(id);
    }
    EXPECT_EQ(tableCost(HandlerId::BlockXferReceive, 0), 6u);
    EXPECT_EQ(tableCost(HandlerId::BlockAckReceive, 0), 3u);
    EXPECT_EQ(tableCost(HandlerId::FetchOpService, 0), 5u);
    EXPECT_EQ(tableCost(HandlerId::FetchOpAck, 0), 3u);
}

TEST(TableTimingModel, OccupancyUsesResult)
{
    // --table-timing charges tableCost(res.id, res.costParam): a hint
    // from the third node on a sharer list walks two links.
    machine::MachineConfig cfg = machine::MachineConfig::flash(4);
    cfg.magic.usePpEmulator = false;
    cfg.cache.sizeBytes = 256; // one set of two ways
    machine::Machine m(cfg);
    const Addr a = m.alloc(3 * kLineSize, 0);
    m.run([a](tango::Env &env) -> tango::Task {
        // Nodes 1, 2 and 3 read the line in turn; the list is 3, 2, 1.
        co_await env.busy(1000 * env.id());
        if (env.id() == 0)
            co_return;
        co_await env.read(a);
        if (env.id() != 1)
            co_return;
        co_await env.busy(5000);
        co_await env.read(a + kLineSize);
        co_await env.read(a + 2 * kLineSize); // evicts a: hint to node 0
    });
    m.drain();
    const magic::Magic &home = m.node(0).magic();
    const auto hint = static_cast<std::size_t>(HandlerId::RemoteHintNth);
    EXPECT_EQ(home.handlerCount[hint], 1u);
    EXPECT_EQ(home.handlerCycles[hint], 23u + 2u * 14u);
    // Table timing has no MDC, so no protocol-data memory traffic.
    EXPECT_EQ(home.memory().protocolAccesses, 0u);
}

class PpTimingTest : public ::testing::Test
{
  protected:
    PpTimingTest()
        : programs(protocol::buildHandlerPrograms()),
          model(programs, dir, params)
    {}

    /** Time a message at home node 0 the way MAGIC does when the
     *  C++ handler's outcome is @p id. */
    HandlerTiming
    time(const Message &m, HandlerId id, bool cache_dirty = false)
    {
        HandlerTiming t = model.run(programs.dispatch(m.type, true), m, 0,
                                    0, cache_dirty);
        if (id == HandlerId::RetrieveFromCache)
            t.occupancy += kCacheRetrieveCycles;
        return t;
    }

    DirectoryStore dir;
    MagicParams params;
    HandlerPrograms programs;
    PpTimingModel model;
};

TEST_F(PpTimingTest, ColdRunIncludesMdcAndMicPenalties)
{
    Message m = msg(MsgType::NetGet, 2, 0x2000, 2);
    HandlerTiming t = time(m, HandlerId::ServeReadMemory);
    EXPECT_TRUE(t.micColdMiss);
    EXPECT_GT(t.mdcMisses, 0u);
    EXPECT_GT(t.occupancy, params.micColdMiss);
}

TEST_F(PpTimingTest, WarmRunApproachesTable34)
{
    Message m = msg(MsgType::NetGet, 2, 0x2000, 2);
    time(m, HandlerId::ServeReadMemory); // warm MIC + MDC
    HandlerTiming t = time(m, HandlerId::ServeReadMemory);
    EXPECT_FALSE(t.micColdMiss);
    EXPECT_EQ(t.mdcMisses, 0u);
    // Table 3.4 says 11 cycles for a read-miss service; the emulated
    // handler must land in its neighborhood.
    EXPECT_GE(t.occupancy, 8u);
    EXPECT_LE(t.occupancy, 16u);
}

TEST_F(PpTimingTest, ShadowWritesDoNotTouchDirectory)
{
    Message m = msg(MsgType::NetGet, 2, 0x2000, 2);
    time(m, HandlerId::ServeReadMemory);
    // The PP program added a sharer in its shadow; the real directory
    // must be untouched (the C++ handler is authoritative).
    EXPECT_EQ(dir.countSharers(0x2000), 0);
    EXPECT_FALSE(dir.header(0x2000).dirty);
}

TEST_F(PpTimingTest, CacheRetrieveAddsCoordinationCycles)
{
    // A forwarded GET arriving at the dirty owner: the handler directs
    // the PI intervention ("retrieve data from processor cache",
    // Table 3.4: 38 cycles).
    Message m = msg(MsgType::NetFwdGet, 1, 0x2000, 2);
    time(m, HandlerId::RetrieveFromCache, true); // warm
    HandlerTiming t = time(m, HandlerId::RetrieveFromCache, true);
    EXPECT_GE(t.occupancy, 32u);
    EXPECT_LE(t.occupancy, 45u);
}

TEST_F(PpTimingTest, HintCostGrowsWithListPosition)
{
    // Hint for the node at position N walks N links (23 + 14N).
    auto hint_cost = [&](int n_ahead) {
        DirectoryStore d2;
        PpTimingModel m2(programs, d2, params);
        Addr line = 0x2000;
        d2.addSharer(line, 9); // the node we remove (ends up deepest)
        for (int i = 0; i < n_ahead; ++i)
            d2.addSharer(line, static_cast<NodeId>(i + 1));
        Message m = msg(MsgType::NetReplaceHint, 9, line, 9);
        const HandlerPrograms::Entry &e = programs.dispatch(m.type, true);
        m2.run(e, m, 0, 0, false); // warm
        return m2.run(e, m, 0, 0, false).occupancy;
    };
    Cycles c0 = hint_cost(0);
    Cycles c2 = hint_cost(2);
    Cycles c5 = hint_cost(5);
    EXPECT_GT(c2, c0);
    EXPECT_GT(c5, c2);
    // Roughly linear growth.
    Cycles per_link = (c5 - c2) / 3;
    EXPECT_GE(per_link, 4u);
    EXPECT_LE(per_link, 20u);
}

TEST_F(PpTimingTest, StatsAccumulateAcrossRuns)
{
    Message m = msg(MsgType::NetGet, 2, 0x2000, 2);
    time(m, HandlerId::ServeReadMemory);
    time(m, HandlerId::ServeReadMemory);
    EXPECT_EQ(model.runStats().invocations, 2u);
    EXPECT_GT(model.runStats().pairs, 0u);
    EXPECT_GT(model.runStats().specialFraction(), 0.0);
}

TEST_F(PpTimingTest, GetxOccupancyScalesWithInvalidations)
{
    auto getx_cost = [&](int sharers) {
        DirectoryStore d2;
        PpTimingModel m2(programs, d2, params);
        Addr line = 0x2000;
        for (int i = 0; i < sharers; ++i)
            d2.addSharer(line, static_cast<NodeId>(i + 3));
        Message m = msg(MsgType::NetGetx, 2, line, 2);
        const HandlerPrograms::Entry &e = programs.dispatch(m.type, true);
        m2.run(e, m, 0, 0, false); // warm
        // The directory is unchanged (the shadow discarded the walk).
        return m2.run(e, m, 0, 0, false).occupancy;
    };
    Cycles c1 = getx_cost(1);
    Cycles c4 = getx_cost(4);
    // Table 3.4: 10-15 extra cycles per invalidation.
    Cycles per_inval = (c4 - c1) / 3;
    EXPECT_GE(per_inval, 7u);
    EXPECT_LE(per_inval, 18u);
}

} // namespace
} // namespace flashsim::magic
