/**
 * @file
 * The handler compiler driver: IR -> executable PP program.
 *
 * Two independent knobs reproduce the Section 5.3 ablation:
 *   - useSpecialInstrs: keep the FLASH ISA extensions, or expand each into
 *     the DLX substitution sequence of Table 5.3.
 *   - dualIssue: statically schedule into dual-issue pairs (the PPtwine
 *     analogue), or emit single-issue code with explicit load-delay NOPs.
 */

#ifndef FLASHSIM_PPC_COMPILER_HH_
#define FLASHSIM_PPC_COMPILER_HH_

#include <string>
#include <vector>

#include "ppc/ir.hh"
#include "ppisa/ppsim.hh"

namespace flashsim::ppc
{

/** Linearized code between compiler passes. */
struct LinearCode
{
    std::string name;
    std::vector<IrInstr> instrs;
    std::vector<int> labelPos;

    static LinearCode fromFunction(const IrFunction &f);
};

/** Expand FLASH special instructions into DLX substitution sequences. */
LinearCode expandSpecials(const LinearCode &code);

/** Statically schedule into dual-issue pairs (optimized PP). */
ppisa::Program scheduleDualIssue(const LinearCode &code);

/** Emit single-issue pairs with load-delay NOPs (baseline PP). */
ppisa::Program scheduleSingleIssue(const LinearCode &code);

struct CompileOptions
{
    bool useSpecialInstrs = true;
    bool dualIssue = true;

    bool operator==(const CompileOptions &) const = default;
};

/** Full pipeline: validate, optionally expand, schedule. */
ppisa::Program compile(const IrFunction &f,
                       const CompileOptions &opts = {});

} // namespace flashsim::ppc

#endif // FLASHSIM_PPC_COMPILER_HH_
