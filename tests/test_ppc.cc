/**
 * @file
 * Unit tests for the handler compiler (IR, expansion, scheduling).
 * Compiled programs run on a checked PP engine, so each run is also
 * replayed through the reference interpreter.
 */

#include <gtest/gtest.h>

#include "ppc/compiler.hh"
#include "ppc/ir.hh"
#include "ppisa/ppsim.hh"

namespace flashsim::ppc
{
namespace
{

using ppisa::FlatPpMemory;
using ppisa::PpSim;
using ppisa::Program;
using ppisa::RegFile;
using ppisa::RunStats;
using ppisa::SentMessage;

struct RunResult
{
    RegFile regs{};
    std::vector<SentMessage> sent;
    RunStats stats;
    Cycles cycles = 0;
};

RunResult
execute(const Program &prog, const RegFile &in)
{
    RunResult r;
    r.regs = in;
    FlatPpMemory mem;
    PpSim sim(/*checked=*/true);
    r.cycles = sim.run(prog, r.regs, mem, r.sent, r.stats);
    return r;
}

/** All four compiler modes. */
std::vector<CompileOptions>
allModes()
{
    return {{true, true}, {true, false}, {false, true}, {false, false}};
}

/** A function exercising ALU ops, fields, branches and a loop. */
IrFunction
makeTestFunction()
{
    IrFunction f("popcount_low_nibbles");
    Reg in = f.reg();   // r1: input
    Reg out = f.reg();  // r2: result
    Reg tmp = f.reg();
    Reg bit = f.reg();
    Label loop = f.label();
    Label done = f.label();
    Label skip = f.label();

    f.li(out, 0);
    f.mv(tmp, in);
    f.bind(loop);
    f.beq(tmp, Reg{0}, done);
    f.andi(bit, tmp, 1);
    f.beq(bit, Reg{0}, skip);
    f.addi(out, out, 1);
    f.bind(skip);
    f.srli(tmp, tmp, 1);
    f.j(loop);
    f.bind(done);
    f.halt();
    return f;
}

/** A function using every special instruction. */
IrFunction
makeSpecialFunction()
{
    IrFunction f("specials");
    Reg in = f.reg();  // r1
    Reg a = f.reg();   // r2
    Reg b = f.reg();   // r3
    Reg c = f.reg();   // r4
    Reg d = f.reg();   // r5
    Label set = f.label();
    Label done = f.label();

    f.ffs(a, in);                 // a = ffs(in)
    f.ext(b, in, 4, 8);           // b = in[11:4]
    f.orfi(c, in, 20, 3);         // c = in | 0x700000
    f.andfi(d, in, 0, 4);         // d = in & ~0xf
    f.bbs(in, 0, set);
    f.addi(a, a, 100);
    f.j(done);
    f.bind(set);
    f.ins(d, b, 32, 8);           // d[39:32] = b
    f.bind(done);
    f.halt();
    return f;
}

TEST(Compiler, SemanticsIdenticalAcrossModes)
{
    IrFunction f = makeTestFunction();
    RegFile in{};
    for (std::uint64_t v : {0ull, 1ull, 0xffull, 0xa5a5ull, 0x123456ull}) {
        in[1] = v;
        std::uint64_t expect = static_cast<std::uint64_t>(
            __builtin_popcountll(v));
        for (const CompileOptions &opt : allModes()) {
            Program p = compile(f, opt);
            RunResult r = execute(p, in);
            EXPECT_EQ(r.regs[2], expect)
                << "v=" << v << " special=" << opt.useSpecialInstrs
                << " dual=" << opt.dualIssue;
        }
    }
}

TEST(Compiler, SpecialInstructionSemanticsSurviveExpansion)
{
    IrFunction f = makeSpecialFunction();
    RegFile in{};
    for (std::uint64_t v :
         {0x1ull, 0x80ull, 0xdeadbeefull, 0xfff0ull, 0ull}) {
        in[1] = v;
        Program opt = compile(f, {true, true});
        Program base = compile(f, {false, false});
        RunResult a = execute(opt, in);
        RunResult b = execute(base, in);
        for (int reg = 2; reg <= 5; ++reg)
            EXPECT_EQ(a.regs[reg], b.regs[reg])
                << "v=" << v << " reg=" << reg;
    }
}

TEST(Compiler, DualIssuePacksTighterThanSingleIssue)
{
    IrFunction f = makeSpecialFunction();
    Program dual = compile(f, {true, true});
    Program single = compile(f, {true, false});
    EXPECT_LT(dual.pairs().size(), single.pairs().size());
}

TEST(Compiler, ExpansionGrowsCodeSize)
{
    IrFunction f = makeSpecialFunction();
    Program with = compile(f, {true, false});
    Program without = compile(f, {false, false});
    EXPECT_GT(without.codeBytes(), with.codeBytes());
}

TEST(Compiler, BaselineSlowerInCycles)
{
    IrFunction f = makeSpecialFunction();
    RegFile in{};
    in[1] = 0x81;
    RunResult fast = execute(compile(f, {true, true}), in);
    RunResult slow = execute(compile(f, {false, false}), in);
    EXPECT_LT(fast.cycles, slow.cycles);
}

TEST(Compiler, DualIssueEfficiencyAboveOne)
{
    IrFunction f = makeSpecialFunction();
    RegFile in{};
    in[1] = 0x81;
    RunResult r = execute(compile(f, {true, true}), in);
    EXPECT_GT(r.stats.dualIssueEfficiency(), 1.0);
    EXPECT_LE(r.stats.dualIssueEfficiency(), 2.0);
}

TEST(Compiler, NoSpecialsAfterExpansion)
{
    IrFunction f = makeSpecialFunction();
    Program base = compile(f, {false, true});
    for (const auto &pair : base.pairs()) {
        EXPECT_FALSE(pair.a.isSpecial()) << pair.a.toString();
        EXPECT_FALSE(pair.b.isSpecial()) << pair.b.toString();
    }
}

TEST(Compiler, SendsPreserveOrderAcrossModes)
{
    IrFunction f("sends");
    Reg d1 = f.reg();
    Reg d2 = f.reg();
    Reg arg = f.reg();
    f.li(d1, 1);
    f.li(d2, 2);
    f.li(arg, 42);
    f.send(10, d1, arg);
    f.send(11, d2, arg);
    f.send(12, d1, arg);
    f.halt();
    for (const CompileOptions &opt : allModes()) {
        RunResult r = execute(compile(f, opt), RegFile{});
        ASSERT_EQ(r.sent.size(), 3u);
        EXPECT_EQ(r.sent[0].type, 10);
        EXPECT_EQ(r.sent[1].type, 11);
        EXPECT_EQ(r.sent[2].type, 12);
        EXPECT_EQ(r.sent[1].dest, 2u);
    }
}

TEST(Compiler, MemoryOrderPreserved)
{
    IrFunction f("memorder");
    Reg base = f.reg(); // r1
    Reg v1 = f.reg();
    Reg v2 = f.reg();
    f.li(v1, 111);
    f.sd(base, 0, v1);
    f.li(v2, 222);
    f.sd(base, 0, v2);
    f.ld(v1, base, 0); // must observe 222
    f.sd(base, 8, v1);
    f.halt();
    for (const CompileOptions &opt : allModes()) {
        Program p = compile(f, opt);
        RegFile regs{};
        regs[1] = 0x100;
        FlatPpMemory mem;
        PpSim sim(/*checked=*/true);
        std::vector<SentMessage> sent;
        RunStats stats;
        sim.run(p, regs, mem, sent, stats);
        EXPECT_EQ(mem.peek(0x108), 222u)
            << "special=" << opt.useSpecialInstrs
            << " dual=" << opt.dualIssue;
    }
}

TEST(Compiler, ValidateRejectsUnboundLabel)
{
    IrFunction f("bad");
    Reg r = f.reg();
    Label l = f.label();
    f.beq(r, Reg{0}, l);
    f.halt();
    EXPECT_DEATH(f.validate(), "never bound");
}

TEST(Compiler, ValidateRequiresTrailingHalt)
{
    IrFunction f("nohalt");
    Reg r = f.reg();
    f.li(r, 1);
    EXPECT_DEATH(f.validate(), "halt");
}

TEST(Compiler, RegisterExhaustionIsFatal)
{
    IrFunction f("many");
    EXPECT_DEATH(
        {
            for (int i = 0; i < 40; ++i)
                f.reg();
        },
        "out of registers");
}

TEST(Compiler, EmptyLoopBodyBlocks)
{
    // A label directly on halt (empty block) must compile and run.
    IrFunction f("empty_block");
    Reg r = f.reg();
    Label l = f.label();
    f.beq(r, Reg{0}, l);
    f.addi(r, r, 1);
    f.bind(l);
    f.halt();
    for (const CompileOptions &opt : allModes()) {
        RunResult res = execute(compile(f, opt), RegFile{});
        EXPECT_EQ(res.regs[1], 0u); // branch taken, addi skipped
    }
}

/** Property sweep: random ALU/branch programs agree across modes. */
class CompilerPropertyTest : public ::testing::TestWithParam<int>
{};

TEST_P(CompilerPropertyTest, RandomDagsAgree)
{
    // Build a random straight-line function from a seed and check all
    // four compile modes compute identical register state.
    std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
    auto next = [&seed]() {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        return seed * 0x2545f4914f6cdd1dull;
    };

    IrFunction f("random");
    std::vector<Reg> regs;
    for (int i = 0; i < 8; ++i)
        regs.push_back(f.reg());
    for (int i = 0; i < 24; ++i) {
        Reg d = regs[next() % 8];
        Reg a = regs[next() % 8];
        Reg b = regs[next() % 8];
        switch (next() % 8) {
          case 0: f.add(d, a, b); break;
          case 1: f.sub(d, a, b); break;
          case 2: f.xor_(d, a, b); break;
          case 3: f.addi(d, a, static_cast<std::int64_t>(next() % 97)); break;
          case 4: f.ext(d, a, next() % 32, 1 + next() % 16); break;
          case 5: f.orfi(d, a, next() % 32, 1 + next() % 16); break;
          case 6: f.andfi(d, a, next() % 32, 1 + next() % 16); break;
          case 7: f.ins(d, a, next() % 32, 1 + next() % 16); break;
        }
    }
    f.halt();

    RegFile in{};
    for (int i = 1; i <= 8; ++i)
        in[i] = next();

    RunResult ref = execute(compile(f, {true, true}), in);
    for (const CompileOptions &opt : allModes()) {
        RunResult r = execute(compile(f, opt), in);
        for (int i = 1; i <= 8; ++i)
            EXPECT_EQ(r.regs[i], ref.regs[i])
                << "seed=" << GetParam() << " reg=" << i
                << " special=" << opt.useSpecialInstrs
                << " dual=" << opt.dualIssue;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerPropertyTest,
                         ::testing::Range(1, 33));

/** Property sweep with control flow: random forward-branching programs
 *  agree across all compile modes (exercises block scheduling, branch
 *  fixups, and cross-block load-delay padding). */
class BranchyPropertyTest : public ::testing::TestWithParam<int>
{};

TEST_P(BranchyPropertyTest, RandomBranchesAgree)
{
    std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 977 + 5;
    auto next = [&seed]() {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        return seed * 0x2545f4914f6cdd1dull;
    };

    IrFunction f("branchy");
    std::vector<Reg> regs;
    for (int i = 0; i < 6; ++i)
        regs.push_back(f.reg());
    Reg mem_base = f.reg();

    // Blocks of straight-line code separated by forward branches.
    std::vector<Label> pending;
    for (int block = 0; block < 6; ++block) {
        for (int i = 0; i < 6; ++i) {
            Reg d = regs[next() % 6];
            Reg a = regs[next() % 6];
            Reg b = regs[next() % 6];
            switch (next() % 7) {
              case 0: f.add(d, a, b); break;
              case 1: f.xor_(d, a, b); break;
              case 2: f.addi(d, a, static_cast<std::int64_t>(next() % 63)); break;
              case 3: f.ext(d, a, next() % 24, 1 + next() % 8); break;
              case 4: f.orfi(d, a, next() % 24, 1 + next() % 8); break;
              case 5: f.sd(mem_base, 8 * static_cast<std::int64_t>(next() % 4), a); break;
              case 6: f.ld(d, mem_base, 8 * static_cast<std::int64_t>(next() % 4)); break;
            }
        }
        // Forward branch over the next block, sometimes taken.
        Label skip = f.label();
        switch (next() % 3) {
          case 0: f.beq(regs[next() % 6], regs[next() % 6], skip); break;
          case 1: f.bbs(regs[next() % 6], next() % 16, skip); break;
          case 2: f.bbc(regs[next() % 6], next() % 16, skip); break;
        }
        f.addi(regs[next() % 6], regs[next() % 6],
               static_cast<std::int64_t>(next() % 31));
        pending.push_back(skip);
        f.bind(skip);
    }
    f.halt();

    RegFile in{};
    for (int i = 1; i <= 7; ++i)
        in[i] = next();
    in[7] = 0x4000; // mem_base

    RunResult ref = execute(compile(f, {true, true}), in);
    for (const CompileOptions &opt : allModes()) {
        Program p = compile(f, opt);
        RegFile regs2 = in;
        FlatPpMemory mem;
        PpSim sim(/*checked=*/true);
        std::vector<SentMessage> sent;
        RunStats stats;
        sim.run(p, regs2, mem, sent, stats);
        for (int i = 1; i <= 6; ++i)
            EXPECT_EQ(regs2[i], ref.regs[i])
                << "seed=" << GetParam() << " reg=" << i
                << " special=" << opt.useSpecialInstrs
                << " dual=" << opt.dualIssue;
        for (int w = 0; w < 4; ++w)
            EXPECT_EQ(mem.peek(0x4000 + 8 * w),
                      [&] {
                          FlatPpMemory ref_mem;
                          RegFile r2 = in;
                          std::vector<SentMessage> s2;
                          RunStats st2;
                          PpSim s(/*checked=*/true);
                          s.run(compile(f, {true, true}), r2, ref_mem,
                                s2, st2);
                          return ref_mem.peek(0x4000 + 8 * w);
                      }())
                << "seed=" << GetParam() << " word=" << w;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchyPropertyTest,
                         ::testing::Range(1, 25));

} // namespace
} // namespace flashsim::ppc
