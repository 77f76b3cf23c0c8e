/**
 * @file
 * Unit tests for the inbox jump table built with the handler programs:
 * every (message type, local/remote) slot the C++ protocol engine
 * accepts dispatches to a program, only the memory-reading requests at
 * home start a speculative read, and entries that share a program share
 * its MIC cold miss.
 */

#include <gtest/gtest.h>

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

/** Home = address bits [12,16) modulo 4. */
struct TestMap : AddressMap
{
    NodeId
    homeOf(Addr addr) const override
    {
        return static_cast<NodeId>((addr >> 12) % 4);
    }
};

struct CleanProbe : CacheProbe
{
    bool holdsDirty(Addr) const override { return false; }
};

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

TEST(JumpTable, EverySlotTheEngineAcceptsHasAProgram)
{
    // A slot without a program must be one ProtocolEngine::handle
    // rejects.
    int empty = 0;
    for (int t = 0; t < kNumMsgTypes; ++t) {
        for (int at_home = 0; at_home < 2; ++at_home) {
            const auto type = static_cast<MsgType>(t);
            const int prog = programs().entry(type, at_home != 0).program;
            if (prog >= 0) {
                ASSERT_LT(static_cast<std::size_t>(prog),
                          programs().programs.size());
                EXPECT_EQ(&programs().forMessage(type, at_home != 0),
                          &programs().programs[static_cast<std::size_t>(
                              prog)]);
                continue;
            }
            ++empty;
            TestMap map;
            CleanProbe probe;
            DirectoryStore dir;
            ProtocolEngine engine(kSelf, dir, map, probe);
            const Message m = msg(type, at_home != 0 ? kLocal : kRemote);
            EXPECT_DEATH((void)engine.handle(m), "no handler")
                << "type " << t << " at_home " << at_home;
        }
    }
    // PiPut, PiPutx, PiInval and the unused code 7 travel MAGIC ->
    // processor or nowhere, so they never reach the inbox.
    EXPECT_EQ(empty, 8);
}

TEST(JumpTable, OnlyMemoryReadingRequestsAtHomeSpeculate)
{
    for (int t = 0; t < kNumMsgTypes; ++t) {
        const auto type = static_cast<MsgType>(t);
        const bool get = type == MsgType::PiGet || type == MsgType::PiGetx ||
                         type == MsgType::NetGet || type == MsgType::NetGetx;
        EXPECT_EQ(programs().entry(type, true).specRead, get) << t;
        EXPECT_FALSE(programs().entry(type, false).specRead) << t;
    }
}

TEST(JumpTable, AliasedEntriesShareOneMicColdMiss)
{
    // The fetch&op service runs for PiFetchOp at home and for
    // NetFetchOp: one program, so the MIC misses on it once.
    EXPECT_EQ(programs().entry(MsgType::PiFetchOp, true).program,
              programs().entry(MsgType::NetFetchOp, true).program);
    DirectoryStore dir;
    magic::MagicParams params;
    magic::PpTimingModel model(programs(), dir, params);
    EXPECT_TRUE(model.run(msg(MsgType::PiFetchOp, kLocal), kSelf, kSelf,
                          false)
                    .micColdMiss);
    EXPECT_FALSE(model.run(msg(MsgType::NetFetchOp, kLocal), kSelf, kSelf,
                           false)
                     .micColdMiss);
    // PiFetchOp for a remote line runs the forward-to-home program.
    EXPECT_TRUE(
        model.run(msg(MsgType::PiFetchOp, kRemote), kSelf, 1, false)
            .micColdMiss);
}

} // namespace
} // namespace flashsim::protocol
