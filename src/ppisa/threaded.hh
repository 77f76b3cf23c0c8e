/**
 * @file
 * Threaded-code PP execution engine: the one engine PpSim::run uses.
 *
 * A plain decoded-pair loop would pay one indirect switch dispatch, a
 * generic two-slot executor, and a by-value result/writeback dance per
 * pair. This engine lowers each DecodedPair once more, into a
 * ThreadedOp tagged with a *kernel id*: the executor is a single
 * function whose kernels are computed-goto labels (token threading), so
 * every pair jumps straight to a block specialized for its shape —
 * per-opcode kernels for single-issue pairs, and a generic kernel that
 * runs the shared execMicro (microexec.hh) on both slots for every
 * dual-issue pair.
 *
 * Work the reference interpreter re-does every pair is resolved at
 * build time:
 *  - static contract verdicts become a dedicated panic kernel, so clean
 *    pairs carry no violation branches at all;
 *  - the pc bounds check disappears — branch targets are validated at
 *    build time and fall-through off the end lands on a sentinel op
 *    that raises the reference interpreter's exact out-of-range panic.
 * The load-delay check (one AND at dispatch) and the runaway-cycles
 * check (after every pair) stay dynamic, in the reference's order.
 *
 * Architectural behaviour — register/memory/message effects, cycle
 * charges, statistics, and every contract panic text — is bit-identical
 * to the oracle, PpSim::runReference. This is enforced by the
 * conformance oracle in ppsim.cc (FS_PP_ORACLE), the differential fuzz
 * suite in tests/test_pp_backends.cc, and the coherence sentinel
 * running full workloads in CI.
 */

#ifndef FLASHSIM_PPISA_THREADED_HH_
#define FLASHSIM_PPISA_THREADED_HH_

#include <cstdint>
#include <vector>

#include "ppisa/decode.hh"

namespace flashsim::ppisa
{

/**
 * Kernel ids for the token-threaded executor. Every ThreadedOp names
 * one; the executor's dispatch table maps ids to computed-goto labels.
 */
enum class ThreadedKernel : std::uint8_t
{
    Generic,    ///< every dual-issue pair, and single-issue pairs no
                ///< kernel below takes: two-slot execMicro with a
                ///< bounds-checked next pc
    Violation,  ///< decode-time contract violation; panics when reached
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

/** One lowered pair: the decoded operands plus the kernel token. */
struct ThreadedOp
{
    MicroOp a, b;
    std::uint32_t srcMask = 0;
    std::uint32_t loadMask = 0;
    /**
     * The pair's statistics deltas packed into two words so the
     * executor folds all four counters with two adds per pair:
     *   statPackA = instrsInc    | specialsInc << 32
     *   statPackB = aluBranchInc | 1 << 32   (the pair count)
     * 32-bit lanes cannot carry into each other: the runaway-cycles
     * cap bounds a run at kMaxCycles + 1 pairs, two instructions each,
     * far below 2^32.
     */
    std::uint64_t statPackA = 0;
    std::uint64_t statPackB = 0;
    ThreadedKernel kernel = ThreadedKernel::Generic;
    bool halts = false; ///< for the generic kernel
    DecodedPair::Violation violation = DecodedPair::Violation::None;
    std::uint8_t violationReg = 0;
};

/**
 * The threaded-code image of one program. Built by DecodedProgram
 * alongside the micro-op decode (eagerly, so pre-decoded shared handler
 * sets publish it race-free) and immutable afterwards.
 */
class ThreadedProgram
{
  public:
    explicit ThreadedProgram(const std::vector<DecodedPair> &pairs);

    /** Lowered ops; ops()[pairs.size()] is the out-of-range sentinel. */
    const std::vector<ThreadedOp> &ops() const { return ops_; }

    /** Executable pairs (excluding the sentinel). */
    std::size_t size() const { return ops_.size() - 1; }

    /** Fraction of non-padding ops mapped to a specialized (non-
     *  Generic) kernel: 1.0 for single-issue code. */
    double specializedFraction() const;

  private:
    std::vector<ThreadedOp> ops_;
};

/**
 * Execute @p d's threaded image from pair 0 until Halt. Exact same
 * contract as PpSim::run (which forwards here); see ppsim.hh.
 */
Cycles runThreaded(const DecodedProgram &d, RegFile &regs, PpMemory &mem,
                   std::vector<SentMessage> &sent, RunStats &stats);

} // namespace flashsim::ppisa

#endif // FLASHSIM_PPISA_THREADED_HH_
