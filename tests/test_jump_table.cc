/**
 * @file
 * Unit tests for the inbox jump table built with the handler programs,
 * the one (message type, local/remote) -> handler decision: every slot
 * names the C++ handler pinned below and has a program iff it has a
 * handler, dispatching an empty slot panics, only the memory-reading
 * requests at home start a speculative read, and entries that share a
 * program share its MIC cold miss.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "magic/timing_model.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"

namespace flashsim::protocol
{
namespace
{

constexpr NodeId kSelf = 0;
constexpr Addr kLocal = 0x0000;  // homed at node 0
constexpr Addr kRemote = 0x1000; // homed at node 1

Message
msg(MsgType t, Addr addr)
{
    Message m;
    m.type = t;
    m.src = 2;
    m.dest = kSelf;
    m.requester = 2;
    m.addr = addr;
    return m;
}

const HandlerPrograms &
programs()
{
    static const HandlerPrograms p = buildHandlerPrograms();
    return p;
}

const HandlerPrograms::Entry &
slot(int type, int at_home)
{
    return programs().table[static_cast<std::size_t>(type)]
                           [static_cast<std::size_t>(at_home)];
}

/** The handler each slot dispatches to, written out independently of
 *  buildHandlerPrograms: {remote line, local line} per message type,
 *  null for a type that never reaches the inbox. */
struct PinnedRow
{
    MsgType type;
    Handler remote;
    Handler local;
};

using E = ProtocolEngine;
const PinnedRow kPinned[] = {
    {MsgType::PiGet, &E::handleForward<MsgType::NetGet>,
     &E::handleGetAtHome},
    {MsgType::PiGetx, &E::handleForward<MsgType::NetGetx>,
     &E::handleGetxAtHome},
    {MsgType::PiWriteback, &E::handleForward<MsgType::NetWriteback>,
     &E::handleWritebackAtHome},
    {MsgType::PiReplaceHint, &E::handleForward<MsgType::NetReplaceHint>,
     &E::handleReplaceHintAtHome},
    {MsgType::PiPut, nullptr, nullptr},
    {MsgType::PiPutx, nullptr, nullptr},
    {MsgType::PiInval, nullptr, nullptr},
    {static_cast<MsgType>(7), nullptr, nullptr},
    {MsgType::NetGet, &E::handleGetAtHome, &E::handleGetAtHome},
    {MsgType::NetGetx, &E::handleGetxAtHome, &E::handleGetxAtHome},
    {MsgType::NetFwdGet, &E::handleFwdGet, &E::handleFwdGet},
    {MsgType::NetFwdGetx, &E::handleFwdGetx, &E::handleFwdGetx},
    {MsgType::NetPut, &E::handlePut, &E::handlePut},
    {MsgType::NetPutx, &E::handlePutx, &E::handlePutx},
    {MsgType::NetSwb, &E::handleSwb, &E::handleSwb},
    {MsgType::NetOwnXfer, &E::handleOwnXfer, &E::handleOwnXfer},
    {MsgType::NetInval, &E::handleInval, &E::handleInval},
    {MsgType::NetInvalAck, &E::handleReceipt<HandlerId::InvalAck>,
     &E::handleReceipt<HandlerId::InvalAck>},
    {MsgType::NetWriteback, &E::handleWritebackAtHome,
     &E::handleWritebackAtHome},
    {MsgType::NetReplaceHint, &E::handleReplaceHintAtHome,
     &E::handleReplaceHintAtHome},
    {MsgType::NetNack, &E::handleReceipt<HandlerId::NackReceive>,
     &E::handleReceipt<HandlerId::NackReceive>},
    {MsgType::NetBlockXfer, &E::handleBlockXfer, &E::handleBlockXfer},
    {MsgType::NetBlockAck, &E::handleReceipt<HandlerId::BlockAckReceive>,
     &E::handleReceipt<HandlerId::BlockAckReceive>},
    {MsgType::PiFetchOp, &E::handleForward<MsgType::NetFetchOp>,
     &E::handleFetchOp},
    {MsgType::NetFetchOp, &E::handleFetchOp, &E::handleFetchOp},
    {MsgType::NetFetchOpAck, &E::handleReceipt<HandlerId::FetchOpAck>,
     &E::handleReceipt<HandlerId::FetchOpAck>},
};
static_assert(std::size(kPinned) == kNumMsgTypes);

TEST(JumpTable, EverySlotPinsItsHandler)
{
    int empty = 0;
    for (int t = 0; t < kNumMsgTypes; ++t) {
        const PinnedRow &row = kPinned[t];
        ASSERT_EQ(static_cast<int>(row.type), t);
        for (int at_home = 0; at_home < 2; ++at_home) {
            const HandlerPrograms::Entry &e = slot(t, at_home);
            const Handler want = at_home != 0 ? row.local : row.remote;
            EXPECT_TRUE(e.handler == want)
                << msgTypeName(row.type) << " at_home " << at_home;
            EXPECT_EQ(e.program >= 0, e.handler != nullptr)
                << msgTypeName(row.type) << " at_home " << at_home;
            if (e.program >= 0) {
                EXPECT_LT(static_cast<std::size_t>(e.program),
                          programs().programs.size());
            }
            if (e.handler == nullptr)
                ++empty;
        }
    }
    // PiPut, PiPutx, PiInval and the unused code 7 travel MAGIC ->
    // processor or nowhere, so they never reach the inbox.
    EXPECT_EQ(empty, 8);
}

TEST(JumpTable, DispatchPanicsOnEveryEmptySlot)
{
    int empty = 0;
    for (int t = 0; t < kNumMsgTypes; ++t) {
        for (int at_home = 0; at_home < 2; ++at_home) {
            if (slot(t, at_home).handler != nullptr)
                continue;
            ++empty;
            EXPECT_DEATH((void)programs().dispatch(static_cast<MsgType>(t),
                                                   at_home != 0),
                         "no handler")
                << "type " << t << " at_home " << at_home;
        }
    }
    EXPECT_EQ(empty, 8);
}

TEST(JumpTable, OnlyMemoryReadingRequestsAtHomeSpeculate)
{
    for (int t = 0; t < kNumMsgTypes; ++t) {
        const auto type = static_cast<MsgType>(t);
        const bool get = type == MsgType::PiGet || type == MsgType::PiGetx ||
                         type == MsgType::NetGet || type == MsgType::NetGetx;
        EXPECT_EQ(slot(t, 1).specRead, get) << t;
        EXPECT_FALSE(slot(t, 0).specRead) << t;
    }
}

TEST(JumpTable, AliasedEntriesShareOneMicColdMiss)
{
    // The fetch&op service runs for PiFetchOp at home and for
    // NetFetchOp: one program, so the MIC misses on it once.
    const HandlerPrograms::Entry &pi_local =
        programs().dispatch(MsgType::PiFetchOp, true);
    const HandlerPrograms::Entry &net_local =
        programs().dispatch(MsgType::NetFetchOp, true);
    EXPECT_EQ(pi_local.program, net_local.program);
    DirectoryStore dir;
    magic::MagicParams params;
    magic::PpTimingModel model(programs(), dir, params);
    EXPECT_TRUE(model.run(pi_local, msg(MsgType::PiFetchOp, kLocal), kSelf,
                          kSelf, false)
                    .micColdMiss);
    EXPECT_FALSE(model.run(net_local, msg(MsgType::NetFetchOp, kLocal),
                           kSelf, kSelf, false)
                     .micColdMiss);
    // PiFetchOp for a remote line runs the forward-to-home program.
    EXPECT_TRUE(model
                    .run(programs().dispatch(MsgType::PiFetchOp, false),
                         msg(MsgType::PiFetchOp, kRemote), kSelf, 1, false)
                    .micColdMiss);
}

} // namespace
} // namespace flashsim::protocol
