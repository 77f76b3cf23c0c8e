/** @file Unit tests for the authoritative C++ protocol handlers. */

#include <gtest/gtest.h>

#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"

namespace flashsim::protocol
{
namespace
{

class HandlersTest : public ::testing::Test
{
  protected:
    HandlersTest() : engine(kSelf, dir) {}

    Message
    msg(MsgType t, NodeId src, Addr addr, NodeId req,
        std::uint32_t aux = 0)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dest = kSelf;
        m.requester = req;
        m.addr = addr;
        m.aux = aux;
        return m;
    }

    /** Run @p m's handler the way MAGIC does: through its jump-table
     *  entry, with the home of its line (address bits [12,16) modulo
     *  4) and the local cache's dirty bit. Returns a copy, since the
     *  engine reuses its one result on the next call. */
    HandlerResult
    run(const Message &m)
    {
        const auto home = static_cast<NodeId>((m.addr >> 12) % 4);
        const HandlerPrograms::Entry &e =
            sharedHandlerPrograms()->dispatch(m.type, home == kSelf);
        return (engine.*e.handler)(m, home, cacheDirty);
    }

    static constexpr NodeId kSelf = 0;
    static constexpr Addr kLocal = 0x0000;  // homed at node 0
    static constexpr Addr kRemote = 0x1000; // homed at node 1

    bool cacheDirty = false;
    DirectoryStore dir;
    ProtocolEngine engine;
};

TEST_F(HandlersTest, LocalGetCleanServesFromMemory)
{
    HandlerResult r = run(msg(MsgType::PiGet, 0, kLocal, 0));
    EXPECT_EQ(r.id, HandlerId::ServeReadMemory);
    EXPECT_TRUE(r.memRead);
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::PiPut);
    EXPECT_EQ(r.out[0].msg.dest, 0u);
    EXPECT_EQ(r.out[0].gate, Gate::MemData);
    EXPECT_TRUE(dir.isSharer(kLocal, 0));
}

TEST_F(HandlersTest, RemoteRequestForwardsToHome)
{
    HandlerResult r = run(msg(MsgType::PiGet, 0, kRemote, 0));
    EXPECT_EQ(r.id, HandlerId::FwdToHome);
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetGet);
    EXPECT_EQ(r.out[0].msg.dest, 1u);
    EXPECT_EQ(r.out[0].msg.requester, 0u);
}

TEST_F(HandlersTest, NetGetCleanAddsSharerAndReplies)
{
    HandlerResult r = run(msg(MsgType::NetGet, 2, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::ServeReadMemory);
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetPut);
    EXPECT_EQ(r.out[0].msg.dest, 2u);
    EXPECT_TRUE(dir.isSharer(kLocal, 2));
}

TEST_F(HandlersTest, GetDirtyRemoteForwardsThreeHop)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = 3;
    dir.setHeader(kLocal, h);
    HandlerResult r = run(msg(MsgType::NetGet, 2, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::FwdHomeToDirty);
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetFwdGet);
    EXPECT_EQ(r.out[0].msg.dest, 3u);
    EXPECT_EQ(r.out[0].msg.requester, 2u);
    EXPECT_FALSE(r.memRead); // a speculative read would be useless
}

TEST_F(HandlersTest, GetDirtyAtHomeRetrievesFromCache)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = kSelf;
    dir.setHeader(kLocal, h);
    cacheDirty = true;
    HandlerResult r = run(msg(MsgType::NetGet, 2, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::RetrieveFromCache);
    EXPECT_TRUE(r.cacheRetrieve);
    EXPECT_TRUE(r.cacheSharing);
    EXPECT_TRUE(r.memWrite); // sharing writeback
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetPut);
    EXPECT_EQ(r.out[0].gate, Gate::CacheData);
    EXPECT_FALSE(dir.header(kLocal).dirty);
    EXPECT_TRUE(dir.isSharer(kLocal, kSelf));
    EXPECT_TRUE(dir.isSharer(kLocal, 2));
}

TEST_F(HandlersTest, GetDirtyAtHomeButCacheCleanNacks)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = kSelf;
    dir.setHeader(kLocal, h);
    cacheDirty = false; // writeback in flight
    HandlerResult r = run(msg(MsgType::NetGet, 2, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::HomeNack);
    EXPECT_TRUE(r.nackedRequest);
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetNack);
    EXPECT_TRUE(dir.header(kLocal).dirty); // state unchanged
}

TEST_F(HandlersTest, GetByOwnerWhileWritebackInFlightNacks)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = 2;
    dir.setHeader(kLocal, h);
    HandlerResult r = run(msg(MsgType::NetGet, 2, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::HomeNack);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetNack);
}

TEST_F(HandlersTest, GetxNoSharersGrantsExclusive)
{
    HandlerResult r = run(msg(MsgType::NetGetx, 2, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::ServeWriteMemory);
    EXPECT_EQ(r.costParam, 0);
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetPutx);
    EXPECT_EQ(r.out[0].msg.aux, 0u);
    DirHeader h = dir.header(kLocal);
    EXPECT_TRUE(h.dirty);
    EXPECT_EQ(h.owner, 2u);
    EXPECT_EQ(dir.countSharers(kLocal), 0);
}

TEST_F(HandlersTest, GetxInvalidatesOtherSharers)
{
    dir.addSharer(kLocal, 1);
    dir.addSharer(kLocal, 2);
    dir.addSharer(kLocal, 3); // list: 3 2 1
    HandlerResult r = run(msg(MsgType::NetGetx, 2, kLocal, 2));
    EXPECT_EQ(r.costParam, 2); // nodes 3 and 1
    ASSERT_EQ(r.out.size(), 3u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetInval);
    EXPECT_EQ(r.out[0].msg.dest, 3u);
    EXPECT_EQ(r.out[0].msg.requester, 2u);
    EXPECT_EQ(r.out[1].msg.type, MsgType::NetInval);
    EXPECT_EQ(r.out[1].msg.dest, 1u);
    EXPECT_EQ(r.out[2].msg.type, MsgType::NetPutx);
    EXPECT_EQ(r.out[2].msg.aux, 2u); // expect two acks
    EXPECT_EQ(dir.countSharers(kLocal), 0);
}

TEST_F(HandlersTest, GetxWithHomeAsSharerAcksOnItsBehalf)
{
    dir.addSharer(kLocal, 0); // home itself
    dir.addSharer(kLocal, 3);
    HandlerResult r = run(msg(MsgType::NetGetx, 2, kLocal, 2));
    ASSERT_EQ(r.out.size(), 3u);
    EXPECT_TRUE(r.cacheInvalidate);
    // Order follows the list (3 first, then home's self-ack).
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetInval);
    EXPECT_EQ(r.out[0].msg.dest, 3u);
    EXPECT_EQ(r.out[1].msg.type, MsgType::NetInvalAck);
    EXPECT_EQ(r.out[1].msg.dest, 2u);
    EXPECT_EQ(r.out[2].msg.aux, 2u);
}

TEST_F(HandlersTest, UpgradeByCurrentSharerSendsNoInvalToSelf)
{
    dir.addSharer(kLocal, 2);
    HandlerResult r = run(msg(MsgType::NetGetx, 2, kLocal, 2));
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetPutx);
    EXPECT_EQ(r.out[0].msg.aux, 0u);
}

TEST_F(HandlersTest, GetxDirtyAtHomeTransfersOwnership)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = kSelf;
    dir.setHeader(kLocal, h);
    cacheDirty = true;
    HandlerResult r = run(msg(MsgType::NetGetx, 2, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::RetrieveFromCache);
    EXPECT_TRUE(r.cacheInvalidate);
    EXPECT_FALSE(r.memWrite); // requester now owns the only copy
    EXPECT_EQ(dir.header(kLocal).owner, 2u);
    EXPECT_TRUE(dir.header(kLocal).dirty);
}

TEST_F(HandlersTest, FwdGetAtDirtyOwnerServesAndSwb)
{
    cacheDirty = true;
    HandlerResult r = run(msg(MsgType::NetFwdGet, 1, kRemote, 2));
    EXPECT_EQ(r.id, HandlerId::RetrieveFromCache);
    EXPECT_TRUE(r.cacheSharing);
    ASSERT_EQ(r.out.size(), 2u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetPut);
    EXPECT_EQ(r.out[0].msg.dest, 2u);
    EXPECT_EQ(r.out[1].msg.type, MsgType::NetSwb);
    EXPECT_EQ(r.out[1].msg.dest, 1u); // home of kRemote
    EXPECT_EQ(r.out[1].msg.requester, 2u);
}

TEST_F(HandlersTest, FwdGetRaceNacksRequester)
{
    cacheDirty = false;
    HandlerResult r = run(msg(MsgType::NetFwdGet, 1, kRemote, 2));
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetNack);
    EXPECT_EQ(r.out[0].msg.dest, 2u);
}

TEST_F(HandlersTest, FwdGetxInvalidatesAndTransfers)
{
    cacheDirty = true;
    HandlerResult r = run(msg(MsgType::NetFwdGetx, 1, kRemote, 2));
    EXPECT_TRUE(r.cacheInvalidate);
    ASSERT_EQ(r.out.size(), 2u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetPutx);
    EXPECT_EQ(r.out[1].msg.type, MsgType::NetOwnXfer);
}

TEST_F(HandlersTest, WritebackClearsDirty)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = 2;
    dir.setHeader(kLocal, h);
    HandlerResult r = run(msg(MsgType::NetWriteback, 2, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::RemoteWriteback);
    EXPECT_TRUE(r.memWrite);
    EXPECT_FALSE(dir.header(kLocal).dirty);
}

TEST_F(HandlersTest, LocalWritebackUsesLocalCost)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = 0;
    dir.setHeader(kLocal, h);
    HandlerResult r = run(msg(MsgType::PiWriteback, 0, kLocal, 0));
    EXPECT_EQ(r.id, HandlerId::LocalWriteback);
}

TEST_F(HandlersTest, StaleWritebackLeavesNewOwner)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = 3; // ownership already moved on
    dir.setHeader(kLocal, h);
    HandlerResult r = run(msg(MsgType::NetWriteback, 2, kLocal, 2));
    EXPECT_TRUE(r.memWrite);
    EXPECT_EQ(dir.header(kLocal).owner, 3u);
    EXPECT_TRUE(dir.header(kLocal).dirty);
}

TEST_F(HandlersTest, ReplaceHintCosts)
{
    dir.addSharer(kLocal, 2);
    HandlerResult only = run(msg(MsgType::NetReplaceHint, 2, kLocal, 2));
    EXPECT_EQ(only.id, HandlerId::RemoteHintOnly);
    EXPECT_EQ(dir.countSharers(kLocal), 0);

    dir.addSharer(kLocal, 1);
    dir.addSharer(kLocal, 2);
    dir.addSharer(kLocal, 3); // 3 2 1
    HandlerResult nth = run(msg(MsgType::NetReplaceHint, 1, kLocal, 1));
    EXPECT_EQ(nth.id, HandlerId::RemoteHintNth);
    EXPECT_EQ(nth.costParam, 2);

    HandlerResult local = run(msg(MsgType::PiReplaceHint, 0, kLocal, 0));
    EXPECT_EQ(local.id, HandlerId::LocalHint);
}

TEST_F(HandlersTest, SwbMakesBothSharers)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = 3;
    dir.setHeader(kLocal, h);
    HandlerResult r = run(msg(MsgType::NetSwb, 3, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::SwbReceive);
    EXPECT_TRUE(r.memWrite);
    EXPECT_FALSE(dir.header(kLocal).dirty);
    EXPECT_TRUE(dir.isSharer(kLocal, 3));
    EXPECT_TRUE(dir.isSharer(kLocal, 2));
}

TEST_F(HandlersTest, OwnXferMovesOwnership)
{
    DirHeader h = dir.header(kLocal);
    h.dirty = true;
    h.owner = 3;
    dir.setHeader(kLocal, h);
    HandlerResult r = run(msg(MsgType::NetOwnXfer, 3, kLocal, 2));
    EXPECT_EQ(r.id, HandlerId::OwnXferReceive);
    EXPECT_EQ(dir.header(kLocal).owner, 2u);
    EXPECT_TRUE(dir.header(kLocal).dirty);
}

TEST_F(HandlersTest, InvalAtSharerAcksRequester)
{
    HandlerResult r = run(msg(MsgType::NetInval, 1, kRemote, 2));
    EXPECT_EQ(r.id, HandlerId::InvalReceive);
    EXPECT_TRUE(r.cacheInvalidate);
    ASSERT_EQ(r.out.size(), 1u);
    EXPECT_EQ(r.out[0].msg.type, MsgType::NetInvalAck);
    EXPECT_EQ(r.out[0].msg.dest, 2u);
}

TEST_F(HandlersTest, RepliesForwardToProcessor)
{
    HandlerResult put = run(msg(MsgType::NetPut, 1, kRemote, 0));
    EXPECT_EQ(put.id, HandlerId::ReplyToProc);
    ASSERT_EQ(put.out.size(), 1u);
    EXPECT_EQ(put.out[0].msg.type, MsgType::PiPut);

    HandlerResult putx = run(msg(MsgType::NetPutx, 1, kRemote, 0, 3));
    ASSERT_EQ(putx.out.size(), 1u);
    EXPECT_EQ(putx.out[0].msg.type, MsgType::PiPutx);
    EXPECT_EQ(putx.out[0].msg.aux, 3u);

    HandlerResult ack = run(msg(MsgType::NetInvalAck, 1, kRemote, 0));
    EXPECT_EQ(ack.id, HandlerId::InvalAck);
    EXPECT_TRUE(ack.out.empty());

    HandlerResult nack = run(msg(MsgType::NetNack, 1, kRemote, 0));
    EXPECT_EQ(nack.id, HandlerId::NackReceive);
    EXPECT_TRUE(nack.out.empty());
}

TEST_F(HandlersTest, SendArgPackingRoundtrip)
{
    std::uint64_t arg = packSendArg(0x123456780, 0x1f2, 7);
    EXPECT_EQ(sendArgAddr(arg), 0x123456780u);
    EXPECT_EQ(sendArgAux(arg), 0x1f2u);
    EXPECT_EQ(sendArgRequester(arg), 7u);
}

} // namespace
} // namespace flashsim::protocol
