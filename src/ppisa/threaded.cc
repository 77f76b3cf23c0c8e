/**
 * @file
 * Token-threaded PP executor.
 *
 * Build side: lower every DecodedPair to a ThreadedOp carrying a kernel
 * token, resolving at build time what the reference interpreter
 * re-checks every pair (contract verdicts, branch-target bounds, load-delay
 * reachability). Run side: a computed-goto dispatch loop whose kernels
 * are hand-unrolled copies of exactly one execMicro case each, so a
 * single-issue Addi pair costs one table jump, one add, and the shared
 * epilogue. On compilers without the labels-as-values extension the
 * same kernel bodies compile into a for/switch loop (see the KERNEL /
 * DISPATCH macros).
 *
 * Bit-identical semantics with the reference interpreter
 * (PpSim::runReference) are non-negotiable; the
 * quirks worth calling out, all replicated deliberately:
 *  - regs[0] is zeroed after every pair, not before the run, so pair 0
 *    observes the caller's r0;
 *  - write-back is parallel: both slots read pre-pair register values;
 *  - slot a's memory/send op executes before slot b's;
 *  - a halting pair breaks out before the runaway-cycles check;
 *  - the runaway check runs before the pc bounds check.
 *
 * The runaway-cycles test itself is deferred from straight-line pairs
 * to control-transfer and terminal kernels; see RUNAWAY_CHECK below for
 * the argument that this is externally indistinguishable.
 */

#include "ppisa/threaded.hh"

#include "ppisa/microexec.hh"
#include "sim/logging.hh"

namespace flashsim::ppisa
{

namespace
{

bool
isBranchOp(Op op)
{
    switch (op) {
      case Op::Beq:
      case Op::Bne:
      case Op::J:
      case Op::Bbs:
      case Op::Bbc:
        return true;
      default:
        return false;
    }
}

/** Register-to-register ops with no memory, branch, send, or halt side
 *  effects — the slots the fused dual-issue kernels can evaluate with a
 *  plain value computation. */
bool
isPureAlu(Op op)
{
    switch (op) {
      case Op::Add:
      case Op::Sub:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Sllv:
      case Op::Srlv:
      case Op::Slt:
      case Op::Sltu:
      case Op::Addi:
      case Op::Andi:
      case Op::Ori:
      case Op::Xori:
      case Op::Slli:
      case Op::Srli:
      case Op::Srai:
      case Op::Slti:
      case Op::Ffs:
      case Op::Ext:
      case Op::Ins:
      case Op::Orfi:
      case Op::Andfi:
        return true;
      default:
        return false;
    }
}

/** Value computed by a pure-ALU micro-op over the pre-pair register
 *  file. Reads only; the caller does the (parallel) write-back. */
[[gnu::always_inline]] inline std::uint64_t
evalAlu(const MicroOp &m, const RegFile &regs)
{
    const std::uint64_t rs = regs[m.rs];
    const std::uint64_t rt = regs[m.rt];
    switch (m.op) {
      case Op::Add: return rs + rt;
      case Op::Sub: return rs - rt;
      case Op::And: return rs & rt;
      case Op::Or: return rs | rt;
      case Op::Xor: return rs ^ rt;
      case Op::Sllv: return rs << (rt & 63);
      case Op::Srlv: return rs >> (rt & 63);
      case Op::Slt:
        return static_cast<std::int64_t>(rs) < static_cast<std::int64_t>(rt)
                   ? 1
                   : 0;
      case Op::Sltu: return rs < rt ? 1 : 0;
      case Op::Addi: return rs + static_cast<std::uint64_t>(m.imm);
      case Op::Andi: return rs & static_cast<std::uint64_t>(m.imm);
      case Op::Ori: return rs | static_cast<std::uint64_t>(m.imm);
      case Op::Xori: return rs ^ static_cast<std::uint64_t>(m.imm);
      case Op::Slli: return rs << (m.imm & 63);
      case Op::Srli: return rs >> (m.imm & 63);
      case Op::Srai:
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(rs) >>
                                          (m.imm & 63));
      case Op::Slti: return static_cast<std::int64_t>(rs) < m.imm ? 1 : 0;
      case Op::Ffs:
        return rs == 0 ? 64
                       : static_cast<std::uint64_t>(__builtin_ctzll(rs));
      case Op::Ext: return (rs >> m.lo) & m.mask;
      case Op::Ins: return (regs[m.rd] & ~m.mask) | ((rs << m.lo) & m.mask);
      case Op::Orfi: return rs | m.mask;
      case Op::Andfi: return rs & ~m.mask;
      default:
        // Build-time selection only routes pure-ALU ops here.
        return 0;
    }
}

/** Branch decision over the pre-pair register file. */
[[gnu::always_inline]] inline bool
evalBranchTaken(const MicroOp &m, const RegFile &regs)
{
    switch (m.op) {
      case Op::Beq: return regs[m.rs] == regs[m.rt];
      case Op::Bne: return regs[m.rs] != regs[m.rt];
      case Op::J: return true;
      case Op::Bbs: return ((regs[m.rs] >> m.lo) & 1) != 0;
      case Op::Bbc: return ((regs[m.rs] >> m.lo) & 1) == 0;
      default: return false;
    }
}

/**
 * Pick the kernel for one pair. @p npairs bounds branch targets: a
 * target of exactly npairs lands on the out-of-range sentinel (same
 * panic as the interpreter's bounds check), anything beyond must go
 * through the Generic kernel, which range-checks the computed pc.
 */
ThreadedKernel
selectKernel(const DecodedPair &p, bool check_load_delay,
             std::size_t npairs)
{
    using K = ThreadedKernel;
    if (p.violation != DecodedPair::Violation::None)
        return K::Violation;
    if (check_load_delay)
        return K::Generic;
    if (p.halts)
        return (p.a.op == Op::Halt && p.b.op == Op::Nop) ? K::Halt
                                                         : K::Generic;

    const bool targetOk = [&](const MicroOp &m) {
        return m.target <= npairs;
    }(isBranchOp(p.b.op) ? p.b : p.a);

    if (p.b.op == Op::Nop) {
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
          case Op::Halt: return K::Generic; // unreachable: halts above
        }
        return K::Generic;
    }

    // Dual-issue fusions, most specific first. The named pairs are the
    // hottest combinations in the static micro-op profile over the
    // protocol handler set (ppc/profile.hh); the class-based fusions
    // cover the long tail of ALU-heavy pairs.
    const bool aluA = isPureAlu(p.a.op);
    const bool aluB = isPureAlu(p.b.op);
    if (p.a.op == Op::Addi && p.b.op == Op::Addi)
        return K::FuseAddiAddi;
    if (p.a.op == Op::Ld) {
        if (p.b.op == Op::Addi)
            return K::FuseLdAddi;
        if (aluB)
            return K::FuseLdAlu;
        if (p.b.op == Op::Send)
            return K::FuseLdSend;
        return K::Generic;
    }
    if (p.a.op == Op::Sd && p.b.op == Op::Send)
        return K::FuseSdSend;
    if (p.a.op == Op::Send && aluB)
        return K::FuseSendAlu;
    if (aluA) {
        if (aluB)
            return K::FuseAluAlu;
        if (p.b.op == Op::Ld)
            return K::FuseAluLd;
        if (p.b.op == Op::Send)
            return K::FuseAluSend;
        if (isBranchOp(p.b.op))
            return targetOk ? K::FuseAluBr : K::Generic;
    }
    return K::Generic;
}

} // namespace

ThreadedProgram::ThreadedProgram(const std::string &name,
                                 const std::vector<DecodedPair> &pairs)
{
    (void)name;
    const std::size_t npairs = pairs.size();

    // Static load-delay reachability: collect, per pair, the union of
    // load masks of every static predecessor (fall-through and branch
    // targets; a halting pair has no successors and a J pair never
    // falls through). Only pairs where that union overlaps the source
    // mask need the runtime load-delay check — in correctly scheduled
    // code, none do. The runtime check itself stays exact (it tests the
    // dynamic prevLoadMask), so over-approximation here costs a check,
    // never a spurious panic.
    std::vector<std::uint32_t> predLoad(npairs, 0);
    for (std::size_t i = 0; i < npairs; ++i) {
        const DecodedPair &p = pairs[i];
        if (p.halts)
            continue;
        bool unconditional = false;
        for (const MicroOp *m : {&p.a, &p.b}) {
            if (!isBranchOp(m->op))
                continue;
            if (m->op == Op::J)
                unconditional = true;
            if (m->target < npairs)
                predLoad[m->target] |= p.loadMask;
        }
        if (!unconditional && i + 1 < npairs)
            predLoad[i + 1] |= p.loadMask;
    }

    ops_.reserve(npairs + 1);
    for (std::size_t i = 0; i < npairs; ++i) {
        const DecodedPair &p = pairs[i];
        ThreadedOp t;
        t.a = p.a;
        t.b = p.b;
        t.srcMask = p.srcMask;
        t.loadMask = p.loadMask;
        t.instrsInc = p.instrsInc;
        t.specialsInc = p.specialsInc;
        t.aluBranchInc = p.aluBranchInc;
        t.statPackA = static_cast<std::uint64_t>(p.instrsInc) |
                      static_cast<std::uint64_t>(p.specialsInc) << 32;
        t.statPackB = static_cast<std::uint64_t>(p.aluBranchInc) |
                      std::uint64_t{1} << 32;
        t.halts = p.halts;
        t.violation = p.violation;
        t.violationReg = p.violationReg;
        t.checkLoadDelay = (predLoad[i] & p.srcMask) != 0;
        t.kernel = selectKernel(p, t.checkLoadDelay, npairs);
        ops_.push_back(t);
    }

    // Sentinel one past the end: falling through the last pair (or
    // branching to exactly npairs) dispatches here and raises the
    // interpreter's pc-out-of-range panic.
    ThreadedOp sentinel;
    sentinel.kernel = ThreadedKernel::OutOfRange;
    ops_.push_back(sentinel);
}

double
ThreadedProgram::specializedFraction() const
{
    std::size_t total = 0, specialized = 0;
    for (std::size_t i = 0; i + 1 < ops_.size(); ++i) {
        if (ops_[i].kernel == ThreadedKernel::Nop)
            continue; // padding: nothing to specialize
        ++total;
        if (ops_[i].kernel != ThreadedKernel::Generic)
            ++specialized;
    }
    return total ? static_cast<double>(specialized) / total : 1.0;
}

// Token threading needs the GNU labels-as-values extension; elsewhere
// the same kernel bodies become cases of a for/switch loop.
#if defined(__GNUC__) || defined(__clang__)
#define FLASHSIM_THREADED_GOTO 1
#endif

#if FLASHSIM_THREADED_GOTO
#define KERNEL(n) k_##n
#define DISPATCH() goto *ktab[static_cast<int>(op->kernel)]
#else
#define KERNEL(n) case ThreadedKernel::n
#define DISPATCH() continue
#endif

/** Shared per-pair epilogue: zero r0, fold statistics (two packed
 *  adds; see ThreadedOp::statPackA), charge cycles, expose this pair's
 *  load mask, step to NEXT_OP, and re-dispatch. Expects `t` (the
 *  current op) in scope.
 *
 *  Unlike the interpreter, straight-line kernels do NOT test the
 *  runaway-cycles budget here: the check runs at every control
 *  transfer (branch kernels, Generic) and on entry to every terminal
 *  kernel (Halt, OutOfRange, Violation) instead — see RUNAWAY_CHECK
 *  below for why that is externally indistinguishable. */
#define STEP_EPILOGUE_BASE(STALL, LOADMASK, NEXT_OP)                      \
    regs[0] = 0;                                                          \
    statA += t.statPackA;                                                 \
    statB += t.statPackB;                                                 \
    cycles += 1 + (STALL);                                                \
    memStall += (STALL);                                                  \
    prevLoadMask = (LOADMASK);                                            \
    op = (NEXT_OP)

#define STEP_EPILOGUE(STALL, LOADMASK, NEXT_OP)                           \
    STEP_EPILOGUE_BASE(STALL, LOADMASK, NEXT_OP);                         \
    DISPATCH()

/** Epilogue for control-transfer kernels: same, plus the deferred
 *  runaway test (after this pair's cycle charge, like the
 *  interpreter's own post-pair check). */
#define STEP_EPILOGUE_CHECKED(STALL, LOADMASK, NEXT_OP)                   \
    STEP_EPILOGUE_BASE(STALL, LOADMASK, NEXT_OP);                         \
    RUNAWAY_CHECK();                                                      \
    DISPATCH()

/**
 * Deferred runaway test. The interpreter checks `cycles > kMaxCycles`
 * after every executed non-halting pair; the threaded executor checks
 * only where it matters for observable behaviour:
 *
 *  - cycles are monotone, so "some earlier non-halting pair crossed
 *    the budget" is exactly "cycles > kMaxCycles now";
 *  - a crossing inside a straight-line stretch is always followed by a
 *    checked kernel (every loop needs a taken branch or Generic, and
 *    every run ends in Halt / OutOfRange / Violation / Generic, all of
 *    which check on entry before raising any other panic — preserving
 *    the interpreter's runaway-before-bounds-check ordering);
 *  - panic() aborts the process with a message that carries no pair
 *    index, so reporting the runaway a few ALU pairs late is
 *    indistinguishable from outside.
 */
#define RUNAWAY_CHECK()                                                   \
    if (cycles > PpSim::kMaxCycles) [[unlikely]]                          \
    panic("PpSim: runaway handler '%s'", name)

/** Single-issue ALU kernel: one value computation plus the epilogue.
 *  EXPR may use `rs`, `rt`, `regs`, and `t.a`. A destination of r0 is
 *  fine: the write lands in regs[0] and the epilogue re-zeroes it,
 *  which is the interpreter's net effect. */
#define ALU_KERNEL(K, EXPR)                                               \
    KERNEL(K) : {                                                         \
        const ThreadedOp &t = *op;                                        \
        const std::uint64_t rs = regs[t.a.rs];                            \
        const std::uint64_t rt = regs[t.a.rt];                            \
        (void)rt;                                                         \
        regs[t.a.rd] = (EXPR);                                            \
        STEP_EPILOGUE(0, 0, op + 1);                                      \
    }

/** Single-issue branch kernel: TAKEN may use `regs` and `t.a`. */
#define BRANCH_KERNEL(K, TAKEN)                                           \
    KERNEL(K) : {                                                         \
        const ThreadedOp &t = *op;                                        \
        const bool taken = (TAKEN);                                       \
        STEP_EPILOGUE_CHECKED(0, 0, taken ? base + t.a.target : op + 1);  \
    }

/**
 * The executor, statically typed on the memory implementation: the
 * FlatPpMemory instantiation (benches, tests) inlines every memory op
 * into its kernel; the PpMemory instantiation keeps the virtual calls
 * for every other implementation (MDC shadow memory, oracle recorder).
 */
template <class Mem>
Cycles
runThreadedImpl(const DecodedProgram &d, RegFile &regs, Mem &mem,
                std::vector<SentMessage> &sent, RunStats &stats)
{
    const ThreadedProgram &tp = d.threaded();
    const ThreadedOp *const base = tp.ops().data();
    const std::size_t npairs = tp.size();
    const ThreadedOp *op = base;
    const char *const name = d.name().c_str();

    Cycles cycles = 0;
    Cycles memStall = 0;
    std::uint32_t prevLoadMask = 0;
    // Packed statistics accumulators (layout in ThreadedOp::statPackA).
    std::uint64_t statA = 0, statB = 0;

#if FLASHSIM_THREADED_GOTO
    // One entry per ThreadedKernel enumerator, in declaration order.
    static const void *const ktab[] = {
        &&k_Generic, &&k_Violation, &&k_OutOfRange, &&k_Halt, &&k_Nop,
        &&k_Add, &&k_Sub, &&k_And, &&k_Or, &&k_Xor, &&k_Sllv, &&k_Srlv,
        &&k_Slt, &&k_Sltu, &&k_Addi, &&k_Andi, &&k_Ori, &&k_Xori,
        &&k_Slli, &&k_Srli, &&k_Srai, &&k_Slti, &&k_Ld, &&k_Sd, &&k_Beq,
        &&k_Bne, &&k_J, &&k_Ffs, &&k_Bbs, &&k_Bbc, &&k_Ext, &&k_Ins,
        &&k_Orfi, &&k_Andfi, &&k_Send, &&k_FuseAddiAddi, &&k_FuseLdAddi,
        &&k_FuseLdAlu, &&k_FuseLdSend, &&k_FuseSdSend, &&k_FuseAluAlu,
        &&k_FuseAluLd, &&k_FuseAluSend, &&k_FuseSendAlu, &&k_FuseAluBr,
    };
    static_assert(sizeof(ktab) / sizeof(ktab[0]) ==
                      static_cast<std::size_t>(ThreadedKernel::Count_),
                  "dispatch table out of sync with ThreadedKernel");
    DISPATCH();
#else
    for (;;) {
        switch (op->kernel) {
#endif

    // A full decoded-pair step: contract checking, generic two-slot
    // execution, bounds-checked next pc. Every pair a specialized
    // kernel cannot take (decode-time contract violations excepted)
    // lands here, so the threaded engine is never less capable than
    // the reference interpreter.
    KERNEL(Generic) : {
        const ThreadedOp &t = *op;
        RUNAWAY_CHECK(); // deferred from preceding straight-line pairs
        if ((t.srcMask & prevLoadMask) != 0) [[unlikely]]
            detail::panicLoadDelay(t.a, t.b,
                                   static_cast<std::size_t>(op - base),
                                   name, prevLoadMask);
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
        if (cycles > PpSim::kMaxCycles) [[unlikely]]
            panic("PpSim: runaway handler '%s'", name);
        if (next > npairs) [[unlikely]]
            panic("PpSim: pc %zu out of range in '%s'", next, name);
        op = base + next;
        DISPATCH();
    }

    KERNEL(Violation) : {
        const ThreadedOp &t = *op;
        // An exhausted budget would have stopped the interpreter before
        // it ever reached (and reported) this pair.
        RUNAWAY_CHECK();
        const std::size_t pc = static_cast<std::size_t>(op - base);
        using V = DecodedPair::Violation;
        // Interpreter check order: intra-pair RAW/WAW first, then the
        // load-delay check, then two-branch.
        if (t.violation == V::IntraRaw || t.violation == V::IntraWaw)
            detail::panicViolation(t.violation, t.violationReg, pc, name);
        if ((t.srcMask & prevLoadMask) != 0)
            detail::panicLoadDelay(t.a, t.b, pc, name, prevLoadMask);
        detail::panicViolation(t.violation, t.violationReg, pc, name);
    }

    KERNEL(OutOfRange) : {
        // Runaway before bounds, the interpreter's check order.
        RUNAWAY_CHECK();
        panic("PpSim: pc %zu out of range in '%s'",
              static_cast<std::size_t>(op - base), name);
    }

    KERNEL(Halt) : {
        // {Halt, Nop}: the interpreter executes the (effect-free) pair,
        // zeroes r0, folds statistics, charges the cycle, and breaks
        // before checking its own budget — but it did check after every
        // earlier pair, which the deferred test reproduces exactly
        // (entry cycles here are the cycles after the last pre-halt
        // pair).
        const ThreadedOp &t = *op;
        RUNAWAY_CHECK();
        regs[0] = 0;
        statA += t.statPackA;
        statB += t.statPackB;
        cycles += 1;
        goto done;
    }

    KERNEL(Nop) : {
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

    KERNEL(Ld) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t v = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        regs[t.a.rd] = v;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(Sd) : {
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

    KERNEL(Send) : {
        const ThreadedOp &t = *op;
        sent.push_back(SentMessage{static_cast<int>(t.a.imm),
                                   regs[t.a.rs], regs[t.a.rt]});
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseAddiAddi) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va =
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm);
        const std::uint64_t vb =
            regs[t.b.rs] + static_cast<std::uint64_t>(t.b.imm);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseLdAddi) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t va = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        const std::uint64_t vb =
            regs[t.b.rs] + static_cast<std::uint64_t>(t.b.imm);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(FuseLdAlu) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t va = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        const std::uint64_t vb = evalAlu(t.b, regs);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(FuseLdSend) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t va = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        sent.push_back(SentMessage{static_cast<int>(t.b.imm),
                                   regs[t.b.rs], regs[t.b.rt]});
        regs[t.a.rd] = va;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(FuseSdSend) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        mem.store(regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm),
                  regs[t.a.rt], stall);
        sent.push_back(SentMessage{static_cast<int>(t.b.imm),
                                   regs[t.b.rs], regs[t.b.rt]});
        STEP_EPILOGUE(stall, 0, op + 1);
    }

    KERNEL(FuseAluAlu) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va = evalAlu(t.a, regs);
        const std::uint64_t vb = evalAlu(t.b, regs);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseAluLd) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va = evalAlu(t.a, regs);
        Cycles stall = 0;
        const std::uint64_t vb = mem.load(
            regs[t.b.rs] + static_cast<std::uint64_t>(t.b.imm), stall);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(FuseAluSend) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va = evalAlu(t.a, regs);
        sent.push_back(SentMessage{static_cast<int>(t.b.imm),
                                   regs[t.b.rs], regs[t.b.rt]});
        regs[t.a.rd] = va;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseSendAlu) : {
        const ThreadedOp &t = *op;
        sent.push_back(SentMessage{static_cast<int>(t.a.imm),
                                   regs[t.a.rs], regs[t.a.rt]});
        const std::uint64_t vb = evalAlu(t.b, regs);
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseAluBr) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va = evalAlu(t.a, regs);
        const bool taken = evalBranchTaken(t.b, regs);
        regs[t.a.rd] = va;
        STEP_EPILOGUE_CHECKED(0, 0, taken ? base + t.b.target : op + 1);
    }

#if !FLASHSIM_THREADED_GOTO
        case ThreadedKernel::Count_:
            panic("PpSim: corrupt kernel token in '%s'", name);
        }
    }
#endif

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

Cycles
runThreaded(const DecodedProgram &d, RegFile &regs, PpMemory &mem,
            std::vector<SentMessage> &sent, RunStats &stats)
{
    if (mem.isFlat())
        return runThreadedFlat(d, regs, static_cast<FlatPpMemory &>(mem),
                               sent, stats);
    return runThreadedImpl(d, regs, mem, sent, stats);
}

Cycles
runThreadedFlat(const DecodedProgram &d, RegFile &regs, FlatPpMemory &mem,
                std::vector<SentMessage> &sent, RunStats &stats)
{
    return runThreadedImpl(d, regs, mem, sent, stats);
}

#undef STEP_EPILOGUE_BASE
#undef STEP_EPILOGUE
#undef STEP_EPILOGUE_CHECKED
#undef RUNAWAY_CHECK
#undef ALU_KERNEL
#undef BRANCH_KERNEL
#undef KERNEL
#undef DISPATCH

} // namespace flashsim::ppisa
