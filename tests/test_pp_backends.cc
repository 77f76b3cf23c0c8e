/**
 * @file
 * Differential conformance between the PP engine and its oracle.
 *
 * PpSim::run (the threaded-code engine, ppisa/threaded.hh) must be
 * architecturally bit-identical to PpSim::runReference, the per-slot
 * reference interpreter: same register/memory/message effects, same
 * cycle charges (including MDC stalls), same statistics, and the same
 * contract panics, in the same order. These tests drive every compiled
 * protocol handler program and a randomized stream of synthetic
 * programs through both and require outcome equality down to the
 * individual memory operation, plus panic-text parity for every
 * contract violation class.
 *
 * Also covers the structural invariants of the threaded lowering and
 * the scheduling contract the compiled handler set must meet.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ppisa/instruction.hh"
#include "ppisa/ppsim.hh"
#include "ppisa/threaded.hh"
#include "protocol/directory.hh"
#include "protocol/pp_programs.hh"
#include "sim/random.hh"

namespace flashsim::ppisa
{
namespace
{

/**
 * PP memory with a deterministic word store, a full access trace, and a
 * deterministic per-address stall pattern (so the cycle comparison
 * covers the memory-stall accounting, not just the 1-cycle-per-pair
 * base). Two instances seeded identically and handed to the engine
 * and the oracle must produce identical traces.
 */
struct TraceMemory : PpMemory
{
    struct Event
    {
        bool isStore = false;
        Addr addr = 0;
        std::uint64_t value = 0;
        Cycles extra = 0;

        bool operator==(const Event &) const = default;
    };

    std::map<Addr, std::uint64_t> words;
    std::vector<Event> log;
    bool stalls = false;

    Cycles
    stallFor(Addr a) const
    {
        return stalls ? static_cast<Cycles>((a >> 3) % 5) : 0;
    }

    std::uint64_t
    load(Addr a, Cycles &extra) override
    {
        auto it = words.find(a);
        std::uint64_t v = it == words.end() ? 0 : it->second;
        extra = stallFor(a);
        log.push_back({false, a, v, extra});
        return v;
    }

    void
    store(Addr a, std::uint64_t v, Cycles &extra) override
    {
        words[a] = v;
        extra = stallFor(a);
        log.push_back({true, a, v, extra});
    }
};

/** The two executors under comparison. */
enum class Engine
{
    Interpreter, ///< PpSim::runReference, the reference interpreter
    Threaded,    ///< PpSim::run, the threaded engine the machine uses
};

Cycles
execute(Engine engine, const Program &prog, RegFile &regs, PpMemory &mem,
        std::vector<SentMessage> &sent, RunStats &stats)
{
    const PpSim sim;
    return engine == Engine::Threaded
               ? sim.run(prog, regs, mem, sent, stats)
               : sim.runReference(prog, regs, mem, sent, stats);
}

struct Outcome
{
    Cycles cycles = 0;
    RegFile regs{};
    std::vector<SentMessage> sent;
    RunStats stats;
    std::vector<TraceMemory::Event> memLog;
    std::map<Addr, std::uint64_t> memWords;
};

Outcome
runEngine(Engine engine, const Program &prog, const RegFile &regs_in,
          const std::map<Addr, std::uint64_t> &words_in, bool stalls)
{
    Outcome o;
    o.regs = regs_in;
    TraceMemory mem;
    mem.words = words_in;
    mem.stalls = stalls;
    o.cycles = execute(engine, prog, o.regs, mem, o.sent, o.stats);
    o.memLog = std::move(mem.log);
    o.memWords = std::move(mem.words);
    return o;
}

void
expectEnginesAgree(const Program &prog, const RegFile &regs_in,
                   const std::map<Addr, std::uint64_t> &words_in,
                   bool stalls, const std::string &what)
{
    Outcome i =
        runEngine(Engine::Interpreter, prog, regs_in, words_in, stalls);
    Outcome t = runEngine(Engine::Threaded, prog, regs_in, words_in, stalls);
    EXPECT_EQ(i.cycles, t.cycles) << what;
    EXPECT_EQ(i.regs, t.regs) << what;
    EXPECT_EQ(i.sent, t.sent) << what;
    EXPECT_TRUE(i.stats == t.stats) << what;
    EXPECT_EQ(i.memLog, t.memLog) << what << " (memory access trace)";
    EXPECT_EQ(i.memWords, t.memWords) << what << " (final memory image)";
}

// ---------------------------------------------------------------------
// Fuzz 1: every compiled handler program over randomized directory
// states and message fields.
// ---------------------------------------------------------------------

constexpr NodeId kSelf = 0;
constexpr int kNodes = 4;

/** Every toolchain configuration: {useSpecialInstrs, dualIssue}. */
const ppc::CompileOptions kAllOptions[] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

/** PP memory adapter over a DirectoryStore, with the same trace. */
struct TraceDirMem : PpMemory
{
    protocol::DirectoryStore &d;
    std::vector<TraceMemory::Event> log;

    explicit TraceDirMem(protocol::DirectoryStore &dd) : d(dd) {}

    std::uint64_t
    load(Addr a, Cycles &extra) override
    {
        std::uint64_t v = d.loadWord(a);
        extra = static_cast<Cycles>((a >> 3) % 5);
        log.push_back({false, a, v, extra});
        return v;
    }

    void
    store(Addr a, std::uint64_t v, Cycles &extra) override
    {
        extra = static_cast<Cycles>((a >> 3) % 5);
        d.storeWord(a, v);
        log.push_back({true, a, v, extra});
    }
};

/**
 * Apply a random but structurally valid directory pre-state. Takes the
 * Rng by value so the two stores can be prepared from identical draw
 * sequences.
 */
void
applyRandomState(protocol::DirectoryStore &dir, Addr line, Rng rng)
{
    // Thread the free list (as the C++/PP conformance sweep does) so
    // link words exist wherever a handler walks.
    constexpr Addr scratch = 0x40000;
    for (int i = 0; i < 12; ++i)
        dir.addSharer(scratch, static_cast<NodeId>(i));
    for (int i = 0; i < 12; ++i)
        dir.removeSharer(scratch, static_cast<NodeId>(i));

    if (rng.below(3) == 0) {
        protocol::DirHeader h = dir.header(line);
        h.dirty = true;
        h.owner = static_cast<NodeId>(rng.below(kNodes));
        dir.setHeader(line, h);
        return;
    }
    // Clean with a random subset of distinct sharers.
    NodeId order[kNodes] = {0, 1, 2, 3};
    for (int i = kNodes - 1; i > 0; --i)
        std::swap(order[i],
                  order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    const int nsharers = static_cast<int>(rng.below(kNodes + 1));
    for (int i = 0; i < nsharers; ++i)
        dir.addSharer(line, order[i]);
}

struct DirOutcome
{
    Cycles cycles = 0;
    RegFile regs{};
    std::vector<SentMessage> sent;
    RunStats stats;
    std::vector<TraceMemory::Event> memLog;
};

DirOutcome
runHandlerCase(Engine engine, const Program &prog,
               const protocol::Message &msg, NodeId home, bool cache_dirty,
               std::uint64_t state_seed, protocol::DirectoryStore &dir)
{
    applyRandomState(dir, msg.addr, Rng(state_seed));
    DirOutcome o;
    o.regs = protocol::makeHandlerRegs(msg, kSelf, home, cache_dirty);
    TraceDirMem mem(dir);
    o.cycles = execute(engine, prog, o.regs, mem, o.sent, o.stats);
    o.memLog = std::move(mem.log);
    return o;
}

TEST(BackendDiff, HandlerFuzzAllProgramsAllOptions)
{
    for (const ppc::CompileOptions &opts : kAllOptions) {
        protocol::HandlerPrograms programs =
            protocol::buildHandlerPrograms(opts);
        Rng rng(0x9d5c0fb1u ^
                (static_cast<std::uint64_t>(opts.useSpecialInstrs) << 1) ^
                static_cast<std::uint64_t>(opts.dualIssue));
        for (int t = 0; t < protocol::kNumMsgTypes; ++t) {
            const auto type = static_cast<protocol::MsgType>(t);
            for (int at_home = 0; at_home < 2; ++at_home) {
                if (programs.table[static_cast<std::size_t>(t)][at_home]
                        .program < 0)
                    continue;
                const Program *prog =
                    &programs.forMessage(type, at_home != 0);
                for (int iter = 0; iter < 8; ++iter) {
                    protocol::Message m;
                    m.type = type;
                    m.src = static_cast<NodeId>(rng.below(kNodes));
                    m.dest = kSelf;
                    m.requester =
                        static_cast<NodeId>(rng.below(kNodes));
                    m.addr = rng.below(64) << 6; // line-aligned
                    m.aux = static_cast<std::uint32_t>(rng.below(8));
                    const NodeId home =
                        at_home != 0
                            ? kSelf
                            : static_cast<NodeId>(
                                  1 + rng.below(kNodes - 1));
                    const bool cache_dirty = rng.below(2) != 0;
                    const std::uint64_t state_seed = rng.next();

                    protocol::DirectoryStore dirI, dirT;
                    DirOutcome i = runHandlerCase(
                        Engine::Interpreter, *prog, m, home, cache_dirty,
                        state_seed, dirI);
                    DirOutcome th = runHandlerCase(
                        Engine::Threaded, *prog, m, home, cache_dirty,
                        state_seed, dirT);

                    const std::string what =
                        prog->name() + " iter " + std::to_string(iter);
                    EXPECT_EQ(i.cycles, th.cycles) << what;
                    EXPECT_EQ(i.regs, th.regs) << what;
                    EXPECT_EQ(i.sent, th.sent) << what;
                    EXPECT_TRUE(i.stats == th.stats) << what;
                    EXPECT_EQ(i.memLog, th.memLog) << what;
                    EXPECT_EQ(dirT.sharers(m.addr), dirI.sharers(m.addr))
                        << what;
                    protocol::DirHeader hi = dirI.header(m.addr);
                    protocol::DirHeader ht = dirT.header(m.addr);
                    EXPECT_EQ(ht.dirty, hi.dirty) << what;
                    EXPECT_EQ(ht.owner, hi.owner) << what;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fuzz 2: randomized synthetic programs covering the whole opcode set
// (single-issue kernels, branches, sends, memory traffic, stalls).
// ---------------------------------------------------------------------

Instr
randomInstr(Rng &rng, int index, int total)
{
    Instr in;
    // Weighted opcode menu: every executable opcode appears, memory and
    // special ops often enough to matter.
    static const Op menu[] = {
        Op::Add,  Op::Sub,  Op::And,  Op::Or,   Op::Xor,  Op::Sllv,
        Op::Srlv, Op::Slt,  Op::Sltu, Op::Addi, Op::Andi, Op::Ori,
        Op::Xori, Op::Slli, Op::Srli, Op::Srai, Op::Slti, Op::Ld,
        Op::Ld,   Op::Sd,   Op::Sd,   Op::Beq,  Op::Bne,  Op::J,
        Op::Ffs,  Op::Bbs,  Op::Bbc,  Op::Ext,  Op::Ins,  Op::Orfi,
        Op::Andfi, Op::Send, Op::Send};
    in.op = menu[rng.below(sizeof(menu) / sizeof(menu[0]))];
    in.rd = static_cast<std::uint8_t>(rng.below(8));
    in.rs = static_cast<std::uint8_t>(rng.below(8));
    in.rt = static_cast<std::uint8_t>(rng.below(8));
    in.lo = static_cast<std::uint8_t>(rng.below(56));
    in.width = static_cast<std::uint8_t>(1 + rng.below(8));
    switch (in.op) {
      case Op::Ld:
      case Op::Sd:
        in.imm = static_cast<std::int64_t>(rng.below(32)) * 8;
        break;
      case Op::Beq:
      case Op::Bne:
      case Op::J:
      case Op::Bbs:
      case Op::Bbc:
        // Forward-only targets keep every random program terminating;
        // target == total branches to the final Halt pair.
        in.imm = static_cast<std::int64_t>(
            index + 1 +
            rng.below(static_cast<std::uint64_t>(total - index)));
        break;
      case Op::Send:
        in.imm = static_cast<std::int64_t>(rng.below(26));
        break;
      default:
        in.imm = static_cast<std::int64_t>(rng.below(4096)) - 2048;
        break;
    }
    return in;
}

Program
makeRandomProgram(Rng &rng, int id)
{
    const int n = 8 + static_cast<int>(rng.below(24));
    std::vector<Instr> instrs;
    instrs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        instrs.push_back(randomInstr(rng, i, n));
    // Runner-style lowering: one instruction per pair with a NOP pair in
    // between, so the load-delay and intra-pair contracts hold by
    // construction; branch targets scale from instruction to pair index.
    std::vector<InstrPair> pairs;
    for (Instr &in : instrs) {
        if (in.isBranch())
            in.imm *= 2;
        pairs.push_back(InstrPair{in, Instr{}});
        pairs.push_back(InstrPair{Instr{}, Instr{}});
    }
    Instr halt;
    halt.op = Op::Halt;
    pairs.push_back(InstrPair{halt, Instr{}});
    return Program("fuzz" + std::to_string(id), std::move(pairs));
}

TEST(BackendDiff, RandomProgramFuzz)
{
    Rng rng(0xfe315ull);
    for (int p = 0; p < 150; ++p) {
        Program prog = makeRandomProgram(rng, p);
        RegFile regs{};
        for (int r = 1; r < 8; ++r)
            regs[static_cast<std::size_t>(r)] = rng.below(32) * 8;
        std::map<Addr, std::uint64_t> words;
        for (Addr a = 0; a < 512; a += 8)
            words[a] = rng.next();
        expectEnginesAgree(prog, regs, words, true, prog.name());
    }
}

// ---------------------------------------------------------------------
// Contract-panic parity: engine and oracle must fail the same way, with the
// same message, for every violation class — and must stay silent for
// violations that are never dynamically reached (lazy checking).
// ---------------------------------------------------------------------

Instr
mk(Op op, int rd, int rs, int rt, std::int64_t imm = 0)
{
    Instr in;
    in.op = op;
    in.rd = static_cast<std::uint8_t>(rd);
    in.rs = static_cast<std::uint8_t>(rs);
    in.rt = static_cast<std::uint8_t>(rt);
    in.imm = imm;
    return in;
}

Program
progOf(std::vector<InstrPair> pairs, const char *name)
{
    return Program(name, std::move(pairs));
}

void
runOn(Engine engine, const Program &prog)
{
    RegFile regs{};
    FlatPpMemory mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    execute(engine, prog, regs, mem, sent, stats);
}

class BackendPanicParity : public ::testing::TestWithParam<Engine>
{};

TEST_P(BackendPanicParity, IntraPairRaw)
{
    Program p = progOf({{mk(Op::Addi, 3, 1, 0, 5), mk(Op::Add, 4, 3, 1)}},
                       "raw");
    EXPECT_DEATH(runOn(GetParam(), p),
                 "intra-pair RAW on r3 at pair 0 of 'raw'");
}

TEST_P(BackendPanicParity, IntraPairWaw)
{
    Program p = progOf({{mk(Op::Addi, 3, 1, 0, 5), mk(Op::Addi, 3, 2, 0, 7)}},
                       "waw");
    EXPECT_DEATH(runOn(GetParam(), p),
                 "intra-pair WAW on r3 at pair 0 of 'waw'");
}

TEST_P(BackendPanicParity, TwoBranches)
{
    Program p = progOf(
        {{mk(Op::Beq, 0, 1, 2, 1), mk(Op::Bne, 0, 1, 2, 1)},
         {mk(Op::Halt, 0, 0, 0), Instr{}}},
        "twobr");
    EXPECT_DEATH(runOn(GetParam(), p), "two branches in pair 0 of 'twobr'");
}

TEST_P(BackendPanicParity, LoadDelayViolation)
{
    Program p = progOf(
        {{mk(Op::Ld, 3, 1, 0, 0), Instr{}},
         {mk(Op::Addi, 4, 3, 0, 1), Instr{}},
         {mk(Op::Halt, 0, 0, 0), Instr{}}},
        "lddelay");
    EXPECT_DEATH(runOn(GetParam(), p),
                 "load-delay violation on r3 at pair 1 of 'lddelay'");
}

TEST_P(BackendPanicParity, IntraPairRawBeatsLoadDelay)
{
    // Pair 1 reads r3, loaded by pair 0, and its slot b reads slot a's
    // r4: the intra-pair RAW is checked first.
    Program p = progOf(
        {{mk(Op::Ld, 3, 1, 0, 0), Instr{}},
         {mk(Op::Addi, 4, 3, 0, 1), mk(Op::Add, 5, 4, 1)},
         {mk(Op::Halt, 0, 0, 0), Instr{}}},
        "rawld");
    EXPECT_DEATH(runOn(GetParam(), p),
                 "intra-pair RAW on r4 at pair 1 of 'rawld'");
}

TEST_P(BackendPanicParity, LoadDelayBeatsTwoBranches)
{
    // Pair 1 holds two branches and reads r3, loaded by pair 0: the
    // load delay is checked before the two-branch rule.
    Program p = progOf(
        {{mk(Op::Ld, 3, 1, 0, 0), Instr{}},
         {mk(Op::Beq, 0, 3, 1, 2), mk(Op::Bne, 0, 1, 2, 2)},
         {mk(Op::Halt, 0, 0, 0), Instr{}}},
        "brld");
    EXPECT_DEATH(runOn(GetParam(), p),
                 "load-delay violation on r3 at pair 1 of 'brld'");
}

TEST_P(BackendPanicParity, FallOffEnd)
{
    Program p =
        progOf({{mk(Op::Addi, 1, 0, 0, 1), Instr{}}}, "falloff");
    EXPECT_DEATH(runOn(GetParam(), p), "pc 1 out of range in 'falloff'");
}

TEST_P(BackendPanicParity, BranchOnePastEnd)
{
    // A branch target of npairs is legal to encode (falls off the end);
    // both engines raise the out-of-range panic when it is taken.
    Program p = progOf(
        {{mk(Op::J, 0, 0, 0, 2), Instr{}},
         {mk(Op::Halt, 0, 0, 0), Instr{}}},
        "pastend");
    EXPECT_DEATH(runOn(GetParam(), p), "pc 2 out of range in 'pastend'");
}

TEST_P(BackendPanicParity, RunawayHandler)
{
    Program p = progOf({{mk(Op::J, 0, 0, 0, 0), Instr{}}}, "spin");
    EXPECT_DEATH(runOn(GetParam(), p), "runaway handler 'spin'");
}

TEST_P(BackendPanicParity, EmptyProgram)
{
    const Program p("empty", {});
    EXPECT_DEATH(runOn(GetParam(), p), "empty program 'empty'");
}

TEST_P(BackendPanicParity, UnreachedViolationStaysSilent)
{
    // Lazy contract checking: a violating pair after the Halt is never
    // reached, so neither engine may panic over it.
    Program p = progOf(
        {{mk(Op::Halt, 0, 0, 0), Instr{}},
         {mk(Op::Addi, 3, 1, 0, 5), mk(Op::Add, 4, 3, 1)}},
        "silent");
    runOn(GetParam(), p); // must not die
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendPanicParity,
    ::testing::Values(Engine::Interpreter, Engine::Threaded),
    [](const ::testing::TestParamInfo<Engine> &info) {
        return std::string(info.param == Engine::Interpreter ? "interpreter"
                                                             : "threaded");
    });

// ---------------------------------------------------------------------
// Structure of the threaded lowering over the production handler set.
// ---------------------------------------------------------------------

TEST(ThreadedLowering, HandlerSetStructureAndCoverage)
{
    for (const ppc::CompileOptions &opts : kAllOptions) {
        protocol::HandlerPrograms programs =
            protocol::buildHandlerPrograms(opts);
        ASSERT_FALSE(programs.all().empty());
        for (const Program *p : programs.all()) {
            const std::vector<ThreadedOp> &ops = p->decoded();
            ASSERT_EQ(ops.size(), p->pairs().size() + 1) << p->name();
            EXPECT_EQ(ops.back().kernel, ThreadedKernel::OutOfRange)
                << p->name();
        }
    }
}

TEST(ThreadedLowering, SingleIssueSetFullySpecialized)
{
    // Every non-padding single-issue pair maps to a per-opcode kernel,
    // never the Generic fallback.
    protocol::HandlerPrograms programs =
        protocol::buildHandlerPrograms({true, false});
    for (const Program *p : programs.all()) {
        const std::vector<ThreadedOp> &ops = p->decoded();
        for (std::size_t i = 0; i + 1 < ops.size(); ++i)
            EXPECT_NE(ops[i].kernel, ThreadedKernel::Generic)
                << p->name() << " pair " << i;
    }
}

// The compiled handlers honour the scheduling contract under every
// toolchain option: no pair carries a decode-time violation verdict,
// and no pair reads a register that a static predecessor (fall-through
// or branch target) loads.
TEST(PpDecode, HandlerSetMeetsSchedulingContract)
{
    for (const ppc::CompileOptions &opts : kAllOptions) {
        protocol::HandlerPrograms programs =
            protocol::buildHandlerPrograms(opts);
        for (const Program *p : programs.all()) {
            const std::vector<ThreadedOp> &ops = p->decoded();
            const std::size_t n = p->pairs().size();
            std::vector<std::uint32_t> predLoad(n, 0);
            for (std::size_t i = 0; i < n; ++i) {
                const ThreadedOp &d = ops[i];
                EXPECT_EQ(d.violation, ThreadedOp::Violation::None)
                    << p->name() << " pair " << i;
                if (d.halts)
                    continue;
                const InstrPair &src = p->pairs()[i];
                const std::pair<const Instr *, const MicroOp *> slots[] = {
                    {&src.a, &d.a}, {&src.b, &d.b}};
                bool jumps = false;
                for (const auto &[in, m] : slots) {
                    if (!in->isBranch())
                        continue;
                    jumps = jumps || in->op == Op::J;
                    if (m->target < n)
                        predLoad[m->target] |= d.loadMask;
                }
                if (!jumps && i + 1 < n)
                    predLoad[i + 1] |= d.loadMask;
            }
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(predLoad[i] & ops[i].srcMask, 0u)
                    << p->name() << " pair " << i;
        }
    }
}

} // namespace
} // namespace flashsim::ppisa
