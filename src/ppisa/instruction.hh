/**
 * @file
 * The MAGIC protocol processor (PP) instruction set.
 *
 * The PP is a 64-bit dual-issue core based on DLX, extended (Section 5.3
 * of the paper) with:
 *   - find-first-set-bit (Ffs)
 *   - branch on bit set / clear (Bbs / Bbc)
 *   - general ALU field-immediate instructions whose immediate is a run of
 *     consecutive ones (Orfi / Andfi, the latter clearing the field)
 *   - bitfield insert / extract (Ins / Ext)
 *
 * The PP is statically scheduled: instruction pairs must be free of
 * intra-pair dependencies and loads have a one-pair load-delay before
 * their result may be used. The ppc scheduler enforces both; the emulator
 * assumes correctly scheduled code, exactly like the real PP (which has
 * no interlock hardware).
 */

#ifndef FLASHSIM_PPISA_INSTRUCTION_HH_
#define FLASHSIM_PPISA_INSTRUCTION_HH_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace flashsim::ppisa
{

/** Number of general-purpose PP registers. r0 is hardwired to zero. */
inline constexpr int kNumRegs = 32;

/** Register file contents passed into / out of a handler run. */
using RegFile = std::array<std::uint64_t, kNumRegs>;

/** PP opcodes. */
enum class Op : std::uint8_t
{
    Nop,
    // ALU register-register
    Add, Sub, And, Or, Xor, Sllv, Srlv, Slt, Sltu,
    // ALU register-immediate
    Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti,
    // Memory (8-byte accesses through the MAGIC data cache)
    Ld, Sd,
    // Control
    Beq, Bne, J,
    // Handler terminator (return to inbox dispatch)
    Halt,
    // --- FLASH special extensions ---
    Ffs,   ///< rd = index of lowest set bit in rs (64 if rs == 0)
    Bbs,   ///< branch to target if bit 'bit' of rs is set
    Bbc,   ///< branch to target if bit 'bit' of rs is clear
    Ext,   ///< rd = (rs >> lo) & mask(width)
    Ins,   ///< rd = rd with bits [lo, lo+width) replaced by low bits of rs
    Orfi,  ///< rd = rs | fieldMask(lo, width)
    Andfi, ///< rd = rs & ~fieldMask(lo, width)
    // --- MAGIC I/O operations (outbox / data-transfer control) ---
    Send,  ///< launch outgoing message: type=imm, dest=rs, addr=rt
};

/** Number of opcodes (Send is the last enumerator). */
inline constexpr int kNumOps = static_cast<int>(Op::Send) + 1;

/** A single PP instruction (one issue slot). */
struct Instr
{
    Op op = Op::Nop;
    std::uint8_t rd = 0;  ///< destination register
    std::uint8_t rs = 0;  ///< first source register
    std::uint8_t rt = 0;  ///< second source register
    std::int64_t imm = 0; ///< immediate / branch target (pair index) / msg type
    std::uint8_t lo = 0;  ///< bitfield low position (Ext/Ins/Orfi/Andfi) or
                          ///< bit number (Bbs/Bbc)
    std::uint8_t width = 0; ///< bitfield width

    bool isBranch() const;
    bool isLoad() const { return op == Op::Ld; }
    bool isStore() const { return op == Op::Sd; }
    bool isNop() const { return op == Op::Nop; }
    /** True for the FLASH ISA extensions (Table 5.3 instructions). */
    bool isSpecial() const;
    /** True for instructions counted as "ALU or branch" in Table 5.2. */
    bool isAluOrBranch() const;
    /** Register written by this instruction, or -1. */
    int destReg() const;
    /** Registers read by this instruction. */
    std::vector<int> srcRegs() const;

    std::string toString() const;
};

/** A statically scheduled dual-issue pair; executes in one PP cycle. */
struct InstrPair
{
    Instr a;
    Instr b;
};

/** Bit mask with @p width ones starting at bit @p lo. */
constexpr std::uint64_t
fieldMask(unsigned lo, unsigned width)
{
    std::uint64_t ones =
        width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
    return ones << lo;
}

/** Human-readable opcode name. */
const char *opName(Op op);

} // namespace flashsim::ppisa

#endif // FLASHSIM_PPISA_INSTRUCTION_HH_
