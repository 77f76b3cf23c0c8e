/**
 * @file
 * Token-threaded PP executor.
 *
 * Build side: the Program constructor lowers every InstrPair to a
 * ThreadedOp carrying a kernel token, resolving once what the reference
 * interpreter re-derives every pair (operands, masks, statistics,
 * contract verdicts, branch-target bounds). Run side: a computed-goto
 * dispatch loop whose kernels are hand-unrolled copies of exactly one
 * execMicro case each, so a single-issue Addi pair costs one table
 * jump, one add, and the shared epilogue. The dispatch uses the GNU
 * labels-as-values extension, which GCC and Clang (the only supported
 * compilers) provide.
 *
 * Bit-identical semantics with the reference interpreter
 * (PpSim::runReference) are non-negotiable; the
 * quirks worth calling out, all replicated deliberately:
 *  - regs[0] is zeroed after every pair, not before the run, so pair 0
 *    observes the caller's r0;
 *  - write-back is parallel: both slots read pre-pair register values;
 *  - slot a's memory/send op executes before slot b's;
 *  - contract panics come in the order intra-pair RAW, intra-pair WAW,
 *    load delay, two branches;
 *  - a halting pair breaks out before the runaway-cycles check;
 *  - the runaway check runs before the pc bounds check.
 */

#include "ppisa/threaded.hh"

#include <utility>

#include "ppisa/microexec.hh"
#include "sim/logging.hh"

namespace flashsim::ppisa
{

namespace
{

/** Lower one issue slot, precomputing everything execSlot re-derives. */
MicroOp
lowerSlot(const Instr &in)
{
    MicroOp m;
    m.op = in.op;
    m.rd = in.rd;
    m.rs = in.rs;
    m.rt = in.rt;
    m.lo = in.lo;
    m.imm = in.imm;
    if (in.isBranch())
        m.target = static_cast<std::uint32_t>(in.imm);
    switch (in.op) {
      case Op::Ext:
        m.mask = fieldMask(0, in.width);
        break;
      case Op::Ins:
      case Op::Orfi:
      case Op::Andfi:
        m.mask = fieldMask(in.lo, in.width);
        break;
      default:
        break;
    }
    const std::vector<int> srcs = in.srcRegs();
    m.nsrcs = static_cast<std::uint8_t>(srcs.size());
    for (std::size_t i = 0; i < srcs.size(); ++i)
        m.srcs[i] = static_cast<std::uint8_t>(srcs[i]);
    return m;
}

/** Source registers of a lowered slot as a mask, r0 excluded. */
std::uint32_t
srcMaskOf(const MicroOp &m)
{
    std::uint32_t mask = 0;
    for (std::uint8_t i = 0; i < m.nsrcs; ++i)
        if (m.srcs[i] != 0)
            mask |= std::uint32_t{1} << m.srcs[i];
    return mask;
}

/**
 * Pick the kernel for one pair. @p npairs bounds branch targets: a
 * target of exactly npairs lands on the out-of-range sentinel (same
 * panic as the interpreter's bounds check), anything beyond must go
 * through the Generic kernel, which range-checks the computed pc.
 */
ThreadedKernel
selectKernel(const ThreadedOp &p, std::size_t npairs)
{
    using K = ThreadedKernel;
    if (p.violation != ThreadedOp::Violation::None)
        return K::Violation;
    if (p.b.op != Op::Nop)
        return K::Generic;

    // Single issue: slot a holds the only branch, if any.
    const bool targetOk = p.a.target <= npairs;
    switch (p.a.op) {
      case Op::Nop: return K::Nop;
      case Op::Add: return K::Add;
      case Op::Sub: return K::Sub;
      case Op::And: return K::And;
      case Op::Or: return K::Or;
      case Op::Xor: return K::Xor;
      case Op::Sllv: return K::Sllv;
      case Op::Srlv: return K::Srlv;
      case Op::Slt: return K::Slt;
      case Op::Sltu: return K::Sltu;
      case Op::Addi: return K::Addi;
      case Op::Andi: return K::Andi;
      case Op::Ori: return K::Ori;
      case Op::Xori: return K::Xori;
      case Op::Slli: return K::Slli;
      case Op::Srli: return K::Srli;
      case Op::Srai: return K::Srai;
      case Op::Slti: return K::Slti;
      case Op::Ld: return K::Ld;
      case Op::Sd: return K::Sd;
      case Op::Beq: return targetOk ? K::Beq : K::Generic;
      case Op::Bne: return targetOk ? K::Bne : K::Generic;
      case Op::J: return targetOk ? K::J : K::Generic;
      case Op::Ffs: return K::Ffs;
      case Op::Bbs: return targetOk ? K::Bbs : K::Generic;
      case Op::Bbc: return targetOk ? K::Bbc : K::Generic;
      case Op::Ext: return K::Ext;
      case Op::Ins: return K::Ins;
      case Op::Orfi: return K::Orfi;
      case Op::Andfi: return K::Andfi;
      case Op::Send: return K::Send;
      case Op::Halt: return K::Halt;
    }
    return K::Generic;
}

} // namespace

Program::Program(std::string name, std::vector<InstrPair> pairs)
    : name_(std::move(name)), pairs_(std::move(pairs))
{
    using V = ThreadedOp::Violation;
    const std::size_t npairs = pairs_.size();
    ops_.reserve(npairs + 1);
    for (const InstrPair &pair : pairs_) {
        ThreadedOp t;
        t.a = lowerSlot(pair.a);
        t.b = lowerSlot(pair.b);
        t.srcMask = srcMaskOf(t.a) | srcMaskOf(t.b);
        std::uint64_t instrs = 0, specials = 0, aluBranch = 0;
        for (const Instr *in : {&pair.a, &pair.b}) {
            const int dest = in->isLoad() ? in->destReg() : -1;
            if (dest > 0)
                t.loadMask |= std::uint32_t{1} << dest;
            if (!in->isNop()) {
                ++instrs;
                if (in->isSpecial())
                    ++specials;
                if (in->isAluOrBranch())
                    ++aluBranch;
            }
        }
        t.statPackA = instrs | specials << 32;
        t.statPackB = aluBranch | std::uint64_t{1} << 32;
        t.halts = pair.a.op == Op::Halt || pair.b.op == Op::Halt;

        // Resolve the static-scheduling contract, in the interpreter's
        // check order so a multiply-broken pair reports the same
        // violation first.
        const int dest_a = pair.a.destReg();
        if (dest_a > 0) {
            for (std::uint8_t i = 0; i < t.b.nsrcs; ++i) {
                if (t.b.srcs[i] == dest_a && t.violation == V::None) {
                    t.violation = V::IntraRaw;
                    t.violationReg = static_cast<std::uint8_t>(dest_a);
                }
            }
            if (pair.b.destReg() == dest_a && t.violation == V::None) {
                t.violation = V::IntraWaw;
                t.violationReg = static_cast<std::uint8_t>(dest_a);
            }
        }
        if (pair.a.isBranch() && pair.b.isBranch() &&
            t.violation == V::None)
            t.violation = V::TwoBranch;

        t.kernel = selectKernel(t, npairs);
        ops_.push_back(t);
    }

    // Sentinel one past the end: falling through the last pair (or
    // branching to exactly npairs) dispatches here and raises the
    // interpreter's pc-out-of-range panic.
    ThreadedOp sentinel;
    sentinel.kernel = ThreadedKernel::OutOfRange;
    ops_.push_back(sentinel);
}

/** Jump to pair `op`'s kernel (token threading). */
#define JUMP() goto *ktab[static_cast<int>(op->kernel)]

/** Enter pair `op`: the interpreter's load-delay check (one AND of the
 *  pair's sources with the previous pair's load destinations), then the
 *  jump to its kernel. */
#define DISPATCH()                                                        \
    if ((op->srcMask & prevLoadMask) != 0) [[unlikely]]                   \
        goto load_delay;                                                  \
    JUMP()

/** The interpreter's budget test, after every non-halting pair. */
#define RUNAWAY_CHECK()                                                   \
    if (cycles > PpSim::kMaxCycles) [[unlikely]]                          \
    panic("PpSim: runaway handler '%s'", name)

/** Shared per-pair epilogue: zero r0, fold statistics (two packed
 *  adds; see ThreadedOp::statPackA), charge cycles, expose this pair's
 *  load mask, check the budget, step to NEXT_OP, and dispatch. Expects
 *  `t` (the current op) in scope. */
#define STEP_EPILOGUE(STALL, LOADMASK, NEXT_OP)                           \
    regs[0] = 0;                                                          \
    statA += t.statPackA;                                                 \
    statB += t.statPackB;                                                 \
    cycles += 1 + (STALL);                                                \
    memStall += (STALL);                                                  \
    prevLoadMask = (LOADMASK);                                            \
    RUNAWAY_CHECK();                                                      \
    op = (NEXT_OP);                                                       \
    DISPATCH()

/** Single-issue ALU kernel: one value computation plus the epilogue.
 *  EXPR may use `rs`, `rt`, `regs`, and `t.a`. A destination of r0 is
 *  fine: the write lands in regs[0] and the epilogue re-zeroes it,
 *  which is the interpreter's net effect. */
#define ALU_KERNEL(K, EXPR)                                               \
    k_##K : {                                                             \
        const ThreadedOp &t = *op;                                        \
        const std::uint64_t rs = regs[t.a.rs];                            \
        const std::uint64_t rt = regs[t.a.rt];                            \
        (void)rt;                                                         \
        regs[t.a.rd] = (EXPR);                                            \
        STEP_EPILOGUE(0, 0, op + 1);                                      \
    }

/** Single-issue branch kernel: TAKEN may use `regs` and `t.a`. */
#define BRANCH_KERNEL(K, TAKEN)                                           \
    k_##K : {                                                             \
        const ThreadedOp &t = *op;                                        \
        const bool taken = (TAKEN);                                       \
        STEP_EPILOGUE(0, 0, taken ? base + t.a.target : op + 1);          \
    }

Cycles
runThreaded(const Program &prog, RegFile &regs, PpMemory &mem,
            std::vector<SentMessage> &sent, RunStats &stats)
{
    const std::vector<ThreadedOp> &ops = prog.decoded();
    const ThreadedOp *const base = ops.data();
    const std::size_t npairs = ops.size() - 1; // excluding the sentinel
    const ThreadedOp *op = base;
    const char *const name = prog.name().c_str();

    Cycles cycles = 0;
    Cycles memStall = 0;
    std::uint32_t prevLoadMask = 0;
    // Packed statistics accumulators (layout in ThreadedOp::statPackA).
    std::uint64_t statA = 0, statB = 0;

    // One entry per ThreadedKernel enumerator, in declaration order.
    static const void *const ktab[] = {
        &&k_Generic, &&k_Violation, &&k_OutOfRange, &&k_Halt, &&k_Nop,
        &&k_Add, &&k_Sub, &&k_And, &&k_Or, &&k_Xor, &&k_Sllv, &&k_Srlv,
        &&k_Slt, &&k_Sltu, &&k_Addi, &&k_Andi, &&k_Ori, &&k_Xori,
        &&k_Slli, &&k_Srli, &&k_Srai, &&k_Slti, &&k_Ld, &&k_Sd, &&k_Beq,
        &&k_Bne, &&k_J, &&k_Ffs, &&k_Bbs, &&k_Bbc, &&k_Ext, &&k_Ins,
        &&k_Orfi, &&k_Andfi, &&k_Send,
    };
    static_assert(sizeof(ktab) / sizeof(ktab[0]) ==
                      static_cast<std::size_t>(ThreadedKernel::Count_),
                  "dispatch table out of sync with ThreadedKernel");
    JUMP(); // pair 0 has no predecessor load

    // A full lowered-pair step: generic two-slot execution and a
    // bounds-checked next pc. Every pair a specialized kernel cannot
    // take (lowering-time contract violations excepted) lands here, so
    // the threaded engine is never less capable than the reference
    // interpreter.
    k_Generic : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        detail::MicroResult ra =
            detail::execMicro(t.a, regs, mem, sent, stall);
        detail::MicroResult rb;
        if (t.b.op != Op::Nop)
            rb = detail::execMicro(t.b, regs, mem, sent, stall);
        if (ra.destReg > 0)
            regs[ra.destReg] = ra.destVal;
        if (rb.destReg > 0)
            regs[rb.destReg] = rb.destVal;
        regs[0] = 0;
        statA += t.statPackA;
        statB += t.statPackB;
        cycles += 1 + stall;
        memStall += stall;
        prevLoadMask = t.loadMask;
        if (t.halts)
            goto done;
        std::size_t next;
        if (ra.branchTaken)
            next = ra.target;
        else if (rb.branchTaken)
            next = rb.target;
        else
            next = static_cast<std::size_t>(op - base) + 1;
        RUNAWAY_CHECK();
        if (next > npairs) [[unlikely]]
            panic("PpSim: pc %zu out of range in '%s'", next, name);
        op = base + next;
        DISPATCH();
    }

    k_Violation : {
        // DISPATCH found no load-delay hit, so the lowering-time verdict
        // is what the interpreter reports here.
        detail::panicViolation(op->violation, op->violationReg,
                               static_cast<std::size_t>(op - base), name);
    }

    k_OutOfRange : {
        panic("PpSim: pc %zu out of range in '%s'",
              static_cast<std::size_t>(op - base), name);
    }

    k_Halt : {
        // {Halt, Nop}: the interpreter executes the (effect-free) pair,
        // zeroes r0, folds statistics, charges the cycle, and breaks
        // before checking its budget.
        const ThreadedOp &t = *op;
        regs[0] = 0;
        statA += t.statPackA;
        statB += t.statPackB;
        cycles += 1;
        goto done;
    }

    k_Nop : {
        const ThreadedOp &t = *op;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    ALU_KERNEL(Add, rs + rt)
    ALU_KERNEL(Sub, rs - rt)
    ALU_KERNEL(And, rs & rt)
    ALU_KERNEL(Or, rs | rt)
    ALU_KERNEL(Xor, rs ^ rt)
    ALU_KERNEL(Sllv, rs << (rt & 63))
    ALU_KERNEL(Srlv, rs >> (rt & 63))
    ALU_KERNEL(Slt, static_cast<std::int64_t>(rs) <
                            static_cast<std::int64_t>(rt)
                        ? 1
                        : 0)
    ALU_KERNEL(Sltu, rs < rt ? 1 : 0)
    ALU_KERNEL(Addi, rs + static_cast<std::uint64_t>(t.a.imm))
    ALU_KERNEL(Andi, rs & static_cast<std::uint64_t>(t.a.imm))
    ALU_KERNEL(Ori, rs | static_cast<std::uint64_t>(t.a.imm))
    ALU_KERNEL(Xori, rs ^ static_cast<std::uint64_t>(t.a.imm))
    ALU_KERNEL(Slli, rs << (t.a.imm & 63))
    ALU_KERNEL(Srli, rs >> (t.a.imm & 63))
    ALU_KERNEL(Srai, static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(rs) >> (t.a.imm & 63)))
    ALU_KERNEL(Slti, static_cast<std::int64_t>(rs) < t.a.imm ? 1 : 0)
    ALU_KERNEL(Ffs, rs == 0
                        ? 64
                        : static_cast<std::uint64_t>(__builtin_ctzll(rs)))
    ALU_KERNEL(Ext, (rs >> t.a.lo) & t.a.mask)
    ALU_KERNEL(Ins, (regs[t.a.rd] & ~t.a.mask) |
                        ((rs << t.a.lo) & t.a.mask))
    ALU_KERNEL(Orfi, rs | t.a.mask)
    ALU_KERNEL(Andfi, rs & ~t.a.mask)

    k_Ld : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t v = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        regs[t.a.rd] = v;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    k_Sd : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        mem.store(regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm),
                  regs[t.a.rt], stall);
        STEP_EPILOGUE(stall, 0, op + 1);
    }

    BRANCH_KERNEL(Beq, regs[t.a.rs] == regs[t.a.rt])
    BRANCH_KERNEL(Bne, regs[t.a.rs] != regs[t.a.rt])
    BRANCH_KERNEL(J, true)
    BRANCH_KERNEL(Bbs, ((regs[t.a.rs] >> t.a.lo) & 1) != 0)
    BRANCH_KERNEL(Bbc, ((regs[t.a.rs] >> t.a.lo) & 1) == 0)

    k_Send : {
        const ThreadedOp &t = *op;
        sent.push_back(SentMessage{static_cast<int>(t.a.imm),
                                   regs[t.a.rs], regs[t.a.rt]});
        STEP_EPILOGUE(0, 0, op + 1);
    }

load_delay : {
    // Pair `op` reads a register the previous pair loaded. The
    // interpreter reports an intra-pair RAW or WAW on the same pair
    // first.
    const std::size_t pc = static_cast<std::size_t>(op - base);
    if (op->violation == ThreadedOp::Violation::IntraRaw ||
        op->violation == ThreadedOp::Violation::IntraWaw)
        detail::panicViolation(op->violation, op->violationReg, pc, name);
    detail::panicLoadDelay(op->a, op->b, pc, name, prevLoadMask);
}

done:
    stats.instrs += statA & 0xffffffffu;
    stats.specials += statA >> 32;
    stats.aluBranch += statB & 0xffffffffu;
    stats.pairs += statB >> 32;
    stats.memStall += memStall;
    stats.cycles += cycles;
    ++stats.invocations;
    return cycles;
}

#undef STEP_EPILOGUE
#undef RUNAWAY_CHECK
#undef ALU_KERNEL
#undef BRANCH_KERNEL
#undef DISPATCH
#undef JUMP

} // namespace flashsim::ppisa
