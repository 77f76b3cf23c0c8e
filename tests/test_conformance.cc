/**
 * @file
 * Conformance between the authoritative C++ handlers and the PP handler
 * programs: for a sweep of directory states and message types, both
 * implementations must emit the same messages and leave the directory
 * in the same state. This is what justifies using PPsim execution of
 * the handler programs as the timing oracle. The PP engine runs
 * checked, so every program run is also replayed through the
 * reference interpreter.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"

namespace flashsim::protocol
{
namespace
{

constexpr NodeId kSelf = 0;

/** PP memory adapter writing directly into a DirectoryStore. */
struct DirMem : ppisa::PpMemory
{
    DirectoryStore &d;
    explicit DirMem(DirectoryStore &dd) : d(dd) {}
    std::uint64_t
    load(Addr a, Cycles &extra) override
    {
        extra = 0;
        return d.loadWord(a);
    }
    void
    store(Addr a, std::uint64_t v, Cycles &extra) override
    {
        extra = 0;
        d.storeWord(a, v);
    }
};

/** Directory pre-states to sweep. */
enum class DirState
{
    CleanEmpty,
    CleanOneSharer,     // node 3
    CleanThreeSharers,  // nodes 1, 2, 3
    CleanRequesterShares,
    CleanManySharers,   // nodes 1..3 plus requester
    DirtyThirdNode,     // owner 3
    DirtyRequester,
    DirtySelf,
};

const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::CleanEmpty: return "CleanEmpty";
      case DirState::CleanOneSharer: return "CleanOneSharer";
      case DirState::CleanThreeSharers: return "CleanThreeSharers";
      case DirState::CleanRequesterShares: return "CleanReqShares";
      case DirState::CleanManySharers: return "CleanManySharers";
      case DirState::DirtyThirdNode: return "DirtyThird";
      case DirState::DirtyRequester: return "DirtyRequester";
      case DirState::DirtySelf: return "DirtySelf";
    }
    return "?";
}

struct Case
{
    MsgType type;
    NodeId src;
    NodeId requester;
    bool local; // address homed at kSelf?
    DirState state;
    bool cacheDirty;
    std::uint32_t aux = 0;
};

std::string
caseName(const Case &c)
{
    std::string n = msgTypeName(c.type);
    n += c.local ? "_local_" : "_remote_";
    n += dirStateName(c.state);
    n += c.cacheDirty ? "_cdirty" : "_cclean";
    n += "_r" + std::to_string(c.requester);
    return n;
}

std::vector<Case>
makeCases()
{
    std::vector<Case> cases;
    // Home-side GET/GETX over all directory states.
    for (MsgType t : {MsgType::PiGet, MsgType::PiGetx}) {
        for (DirState s :
             {DirState::CleanEmpty, DirState::CleanOneSharer,
              DirState::CleanThreeSharers, DirState::DirtyThirdNode,
              DirState::DirtyRequester}) {
            cases.push_back({t, kSelf, kSelf, true, s, false});
        }
        // Remote home: pure forward.
        cases.push_back(
            {t, kSelf, kSelf, false, DirState::CleanEmpty, false});
    }
    for (MsgType t : {MsgType::NetGet, MsgType::NetGetx}) {
        for (DirState s :
             {DirState::CleanEmpty, DirState::CleanOneSharer,
              DirState::CleanThreeSharers,
              DirState::CleanRequesterShares,
              DirState::CleanManySharers, DirState::DirtyThirdNode,
              DirState::DirtyRequester}) {
            cases.push_back({t, 2, 2, true, s, false});
        }
        cases.push_back({t, 2, 2, true, DirState::DirtySelf, true});
        cases.push_back({t, 2, 2, true, DirState::DirtySelf, false});
    }
    // Owner-side forwards.
    for (MsgType t : {MsgType::NetFwdGet, MsgType::NetFwdGetx}) {
        cases.push_back({t, 1, 2, false, DirState::CleanEmpty, true});
        cases.push_back({t, 1, 2, false, DirState::CleanEmpty, false});
    }
    // Home-side writebacks.
    cases.push_back({MsgType::PiWriteback, kSelf, kSelf, true,
                     DirState::DirtySelf, false});
    cases.push_back({MsgType::PiWriteback, kSelf, kSelf, false,
                     DirState::CleanEmpty, false});
    cases.push_back({MsgType::NetWriteback, 2, 2, true,
                     DirState::DirtyRequester, false});
    cases.push_back({MsgType::NetWriteback, 2, 2, true,
                     DirState::DirtyThirdNode, false}); // stale
    // Hints.
    cases.push_back({MsgType::PiReplaceHint, kSelf, kSelf, false,
                     DirState::CleanEmpty, false});
    cases.push_back({MsgType::NetReplaceHint, 3, 3, true,
                     DirState::CleanOneSharer, false});
    cases.push_back({MsgType::NetReplaceHint, 1, 1, true,
                     DirState::CleanThreeSharers, false});
    cases.push_back({MsgType::NetReplaceHint, 2, 2, true,
                     DirState::CleanOneSharer, false}); // absent node
    // Sharing writeback / ownership transfer.
    cases.push_back(
        {MsgType::NetSwb, 3, 2, true, DirState::DirtyThirdNode, false});
    cases.push_back(
        {MsgType::NetSwb, 3, 3, true, DirState::DirtyThirdNode, false});
    cases.push_back({MsgType::NetOwnXfer, 3, 2, true,
                     DirState::DirtyThirdNode, false});
    // Requester-side replies.
    cases.push_back(
        {MsgType::NetInval, 1, 2, false, DirState::CleanEmpty, false});
    cases.push_back(
        {MsgType::NetInvalAck, 1, kSelf, false, DirState::CleanEmpty,
         false});
    cases.push_back(
        {MsgType::NetPut, 1, kSelf, false, DirState::CleanEmpty, false});
    cases.push_back({MsgType::NetPutx, 1, kSelf, false,
                     DirState::CleanEmpty, false, 3});
    cases.push_back(
        {MsgType::NetNack, 1, kSelf, false, DirState::CleanEmpty, false});
    // Message-passing protocol: middle chunk (aux > 0), final chunk
    // (aux == 0, acks the sender), and the ack itself.
    cases.push_back({MsgType::NetBlockXfer, 1, 1, true,
                     DirState::CleanEmpty, false, 3});
    cases.push_back({MsgType::NetBlockXfer, 1, 1, true,
                     DirState::CleanEmpty, false, 0});
    cases.push_back({MsgType::NetBlockAck, 1, kSelf, false,
                     DirState::CleanEmpty, false});
    return cases;
}

/** Apply a pre-state to a store (identically for both copies). */
void
applyState(DirectoryStore &dir, Addr line, DirState s, NodeId requester)
{
    // Thread the free list so the C++ allocator never takes its
    // lazy-extension path (which the PP program cannot see).
    constexpr Addr scratch = 0x40000;
    for (int i = 0; i < 12; ++i)
        dir.addSharer(scratch, static_cast<NodeId>(i));
    for (int i = 0; i < 12; ++i)
        dir.removeSharer(scratch, static_cast<NodeId>(i));

    DirHeader h = dir.header(line);
    switch (s) {
      case DirState::CleanEmpty:
        break;
      case DirState::CleanOneSharer:
        dir.addSharer(line, 3);
        break;
      case DirState::CleanThreeSharers:
        dir.addSharer(line, 1);
        dir.addSharer(line, 2);
        dir.addSharer(line, 3);
        break;
      case DirState::CleanRequesterShares:
        dir.addSharer(line, requester);
        break;
      case DirState::CleanManySharers:
        dir.addSharer(line, 1);
        dir.addSharer(line, requester);
        dir.addSharer(line, 3);
        break;
      case DirState::DirtyThirdNode:
        h = dir.header(line);
        h.dirty = true;
        h.owner = 3;
        dir.setHeader(line, h);
        break;
      case DirState::DirtyRequester:
        h = dir.header(line);
        h.dirty = true;
        h.owner = requester;
        dir.setHeader(line, h);
        break;
      case DirState::DirtySelf:
        h = dir.header(line);
        h.dirty = true;
        h.owner = kSelf;
        dir.setHeader(line, h);
        break;
    }
}

class ConformanceTest : public ::testing::TestWithParam<Case>
{};

TEST_P(ConformanceTest, CppAndPpAgree)
{
    const Case &c = GetParam();
    const Addr line = c.local ? 0x0000 : 0x1000;
    const NodeId home = c.local ? kSelf : 1;

    Message m;
    m.type = c.type;
    m.src = c.src;
    m.dest = kSelf;
    m.requester = c.requester;
    m.addr = line;
    m.aux = c.aux;

    // Both sides run from the one jump-table entry MAGIC would decode,
    // on the same (message, home, cache dirty) inputs.
    static HandlerPrograms programs = buildHandlerPrograms();
    const HandlerPrograms::Entry &entry =
        programs.dispatch(c.type, home == kSelf);

    // C++ side.
    DirectoryStore dirC;
    applyState(dirC, line, c.state, c.requester);
    ProtocolEngine engine(kSelf, dirC);
    const HandlerResult &res =
        (engine.*entry.handler)(m, home, c.cacheDirty);

    // PP side on an identically prepared store.
    DirectoryStore dirP;
    applyState(dirP, line, c.state, c.requester);
    DirMem mem(dirP);
    ppisa::RegFile regs =
        makeHandlerRegs(m, kSelf, home, c.cacheDirty);
    std::vector<ppisa::SentMessage> sent;
    ppisa::RunStats stats;
    ppisa::PpSim sim(/*checked=*/true);
    sim.run(programs.programs[static_cast<std::size_t>(entry.program)],
            regs, mem, sent, stats);

    // Message-level agreement.
    ASSERT_EQ(sent.size(), res.out.size()) << caseName(c);
    for (std::size_t i = 0; i < sent.size(); ++i) {
        Message pp = decodeSent(sent[i], kSelf);
        const Message &cc = res.out[i].msg;
        EXPECT_EQ(pp.type, cc.type) << caseName(c) << " msg " << i;
        EXPECT_EQ(pp.dest, cc.dest) << caseName(c) << " msg " << i;
        EXPECT_EQ(pp.addr, cc.addr) << caseName(c) << " msg " << i;
        EXPECT_EQ(pp.aux, cc.aux) << caseName(c) << " msg " << i;
        EXPECT_EQ(pp.requester, cc.requester)
            << caseName(c) << " msg " << i;
    }

    // Directory post-state agreement (home-side handlers only; the
    // requester-side programs use MAGIC-local state we do not model in
    // the word store).
    DirHeader hc = dirC.header(line);
    DirHeader hp = dirP.header(line);
    EXPECT_EQ(hp.dirty, hc.dirty) << caseName(c);
    EXPECT_EQ(hp.owner, hc.owner) << caseName(c);
    EXPECT_EQ(dirP.sharers(line), dirC.sharers(line)) << caseName(c);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConformanceTest, ::testing::ValuesIn(makeCases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        std::string n = caseName(info.param);
        n += "_i" + std::to_string(info.index);
        for (char &ch : n)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

TEST(HandlerPrograms, CodeSizeWithinMagicInstructionCache)
{
    // Table 5.2: the full protocol is ~15 KB, well under the 32 KB MIC.
    static HandlerPrograms programs = buildHandlerPrograms();
    EXPECT_LT(programs.totalCodeBytes(), 32u * 1024u);
    EXPECT_GT(programs.totalCodeBytes(), 1024u);
}

TEST(HandlerPrograms, BaselineCompilesAndIsBigger)
{
    HandlerPrograms opt = buildHandlerPrograms({true, true});
    HandlerPrograms base = buildHandlerPrograms({false, false});
    EXPECT_GT(base.totalCodeBytes(), opt.totalCodeBytes());
}

} // namespace
} // namespace flashsim::protocol
