/**
 * @file
 * Threaded-code PP execution engine: the one engine PpSim::run uses.
 *
 * A plain loop over scheduled pairs would re-derive every operand,
 * pay one indirect switch dispatch, and run a generic two-slot
 * executor per pair. Instead, every Program is lowered once, when it is
 * built, into ThreadedOps tagged with a *kernel id*: the executor is a
 * single function whose kernels are computed-goto labels (token
 * threading), so every pair jumps straight to a block specialized for
 * its shape — per-opcode kernels for single-issue pairs, and a generic
 * kernel that runs the shared execMicro (microexec.hh) on both slots
 * for every dual-issue pair.
 *
 * Work the reference interpreter re-does every pair is resolved at
 * lowering time:
 *  - bitfield masks, branch targets, source/load-destination register
 *    masks and the per-pair statistics increments are precomputed;
 *  - static contract verdicts become a dedicated panic kernel, so clean
 *    pairs carry no violation branches at all;
 *  - the pc bounds check disappears — branch targets are validated at
 *    lowering time and fall-through off the end lands on a sentinel op
 *    that raises the reference interpreter's exact out-of-range panic.
 * The load-delay check (one AND at dispatch) and the runaway-cycles
 * check (after every pair) stay dynamic, in the reference's order.
 *
 * Architectural behaviour — register/memory/message effects, cycle
 * charges, statistics, and every contract panic text — is bit-identical
 * to the oracle, PpSim::runReference. This is enforced by the checked
 * run() in ppsim.cc, which every --verify machine and the engine tests
 * use, and by the differential fuzz suite in tests/test_pp_backends.cc.
 */

#ifndef FLASHSIM_PPISA_THREADED_HH_
#define FLASHSIM_PPISA_THREADED_HH_

#include <cstdint>
#include <vector>

#include "ppisa/instruction.hh"
#include "sim/types.hh"

namespace flashsim::ppisa
{

class Program;
class PpMemory;
struct SentMessage;
struct RunStats;

/** A fully lowered issue slot. */
struct MicroOp
{
    Op op = Op::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rs = 0;
    std::uint8_t rt = 0;
    std::uint8_t lo = 0;     ///< bit number for Bbs/Bbc
    std::uint8_t nsrcs = 0;  ///< entries used in srcs (panic reporting)
    std::uint8_t srcs[2] = {0, 0}; ///< source regs in srcRegs() order
    std::uint32_t target = 0;///< resolved branch target (pair index)
    std::int64_t imm = 0;    ///< non-branch immediate / Send type
    std::uint64_t mask = 0;  ///< precomputed fieldMask for Ext/Ins/
                             ///< Orfi/Andfi (Ext: width mask at bit 0)
};

/**
 * Kernel ids for the token-threaded executor. Every ThreadedOp names
 * one; the executor's dispatch table maps ids to computed-goto labels.
 */
enum class ThreadedKernel : std::uint8_t
{
    Generic,    ///< every dual-issue pair, and single-issue pairs no
                ///< kernel below takes: two-slot execMicro with a
                ///< bounds-checked next pc
    Violation,  ///< lowering-time contract violation; panics when reached
    OutOfRange, ///< sentinel one past the last pair (fall-off panic)
    Halt,       ///< {Halt, Nop}: fold stats and return
    Nop,        ///< {Nop, Nop} padding pair

    // --- single-issue (slot b == Nop, rd != 0 where one is written) ---
    Add, Sub, And, Or, Xor, Sllv, Srlv, Slt, Sltu,
    Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti,
    Ld, Sd,
    Beq, Bne, J,
    Ffs, Bbs, Bbc, Ext, Ins, Orfi, Andfi,
    Send,

    Count_, ///< number of kernels (dispatch table size)
};

/** One lowered pair: the two micro-ops plus the kernel token. */
struct ThreadedOp
{
    /**
     * Static-scheduling contract verdict from lowering time. The
     * reference interpreter checks a pair only when it is dynamically
     * reached, so a violation is recorded rather than reported eagerly
     * and the executor panics on arrival — unreachable bad pairs stay
     * silent.
     */
    enum class Violation : std::uint8_t
    {
        None,
        IntraRaw,  ///< slot b reads what slot a writes
        IntraWaw,  ///< both slots write the same register
        TwoBranch, ///< two branches in one pair
    };

    MicroOp a, b;
    std::uint32_t srcMask = 0;  ///< union of source regs, r0 excluded
    std::uint32_t loadMask = 0; ///< load destination regs, r0 excluded
    /**
     * The pair's statistics deltas packed into two words so the
     * executor folds all four counters with two adds per pair:
     *   statPackA = instrs    | specials << 32
     *   statPackB = aluBranch | 1 << 32   (the pair count)
     * (Table 5.2's non-NOP, special and ALU/branch instruction counts.)
     * 32-bit lanes cannot carry into each other: the runaway-cycles
     * cap bounds a run at kMaxCycles + 1 pairs, two instructions each,
     * far below 2^32.
     */
    std::uint64_t statPackA = 0;
    std::uint64_t statPackB = 0;
    ThreadedKernel kernel = ThreadedKernel::Generic;
    bool halts = false; ///< either slot is Halt (for the generic kernel)
    Violation violation = Violation::None;
    std::uint8_t violationReg = 0; ///< register named in the panic
};

/**
 * Execute @p prog's threaded image (Program::decoded()) from pair 0
 * until Halt. Exact same contract as PpSim::run (which forwards here);
 * see ppsim.hh.
 */
Cycles runThreaded(const Program &prog, RegFile &regs, PpMemory &mem,
                   std::vector<SentMessage> &sent, RunStats &stats);

} // namespace flashsim::ppisa

#endif // FLASHSIM_PPISA_THREADED_HH_
