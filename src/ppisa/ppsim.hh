/**
 * @file
 * PPsim: the instruction-set emulator for the MAGIC protocol processor.
 *
 * The paper (Section 3.3) integrates an instruction-set emulator for the
 * PP with FlashLite so that protocol handler timing comes from executing
 * the real handler code. This emulator plays that role: it executes
 * scheduled dual-issue handler programs, reporting dynamic cycle counts
 * and the instruction-usage statistics of Table 5.2, and routes all
 * memory operations through a pluggable interface so the MAGIC data
 * cache model can charge its 29-cycle miss penalty.
 */

#ifndef FLASHSIM_PPISA_PPSIM_HH_
#define FLASHSIM_PPISA_PPSIM_HH_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ppisa/instruction.hh"
#include "ppisa/threaded.hh"
#include "sim/types.hh"

namespace flashsim::ppisa
{

/**
 * A fully scheduled PP handler program, immutable once built.
 *
 * Branch targets are pair indices. Each pair executes in one PP cycle
 * (plus any memory stall charged by the PpMemory implementation).
 */
class Program
{
  public:
    /** An empty, unnamed program; running it panics. */
    Program() = default;

    /** Take @p pairs and lower them, once, to the threaded image the
     *  engine runs (threaded.hh). Copies and moves copy or move the
     *  image; nothing is ever lowered again. */
    Program(std::string name, std::vector<InstrPair> pairs);

    const std::string &name() const { return name_; }

    /** The scheduled instruction pairs. */
    const std::vector<InstrPair> &pairs() const { return pairs_; }

    /** The threaded image: one op per pair, then the out-of-range
     *  sentinel. Empty for a default-constructed program. */
    const std::vector<ThreadedOp> &decoded() const { return ops_; }

    /** Static code size in bytes (two 4-byte instruction words per pair),
     *  NOP slots included, matching Table 5.2's "with NOPs" metric. */
    std::size_t codeBytes() const { return pairs_.size() * 8; }

    std::string toString() const;

  private:
    std::string name_;
    std::vector<InstrPair> pairs_;
    std::vector<ThreadedOp> ops_;
};

/**
 * Memory seen by the PP: protocol data structures in main memory,
 * accessed through the MAGIC data cache. Implementations return the
 * extra stall cycles (0 on an MDC hit, the miss penalty otherwise).
 */
class PpMemory
{
  public:
    virtual ~PpMemory() = default;
    virtual std::uint64_t load(Addr addr, Cycles &extra_cycles) = 0;
    virtual void store(Addr addr, std::uint64_t value,
                       Cycles &extra_cycles) = 0;
};

/** Trivial PpMemory for tests and benches: every access hits (0 stall)
 *  and unwritten words read 0. The words written live in one (address,
 *  word) entry each; a handler touches a handful, so a linear scan is
 *  all a lookup needs. */
class FlatPpMemory final : public PpMemory
{
  public:
    std::uint64_t
    load(Addr addr, Cycles &extra_cycles) override
    {
        extra_cycles = 0;
        return peek(addr);
    }

    void
    store(Addr addr, std::uint64_t value, Cycles &extra_cycles) override
    {
        extra_cycles = 0;
        poke(addr, value);
    }

    /** Direct (non-timed) backdoor access for test setup. */
    std::uint64_t
    peek(Addr addr) const
    {
        for (const auto &[at, word] : words_)
            if (at == addr)
                return word;
        return 0;
    }

    void
    poke(Addr addr, std::uint64_t value)
    {
        for (auto &[at, word] : words_) {
            if (at == addr) {
                word = value;
                return;
            }
        }
        words_.emplace_back(addr, value);
    }

  private:
    std::vector<std::pair<Addr, std::uint64_t>> words_;
};

/** An outgoing message launched by a Send instruction. */
struct SentMessage
{
    int type;           ///< protocol message type (Send immediate)
    std::uint64_t dest; ///< destination (node id or interface code)
    std::uint64_t arg;  ///< packed argument word (address + aux fields)

    bool operator==(const SentMessage &) const = default;
};

/** Dynamic statistics from one or more handler executions. */
struct RunStats
{
    Cycles cycles = 0;        ///< total PP cycles including memory stalls
    std::uint64_t pairs = 0;  ///< dual-issue pairs executed
    std::uint64_t instrs = 0; ///< non-NOP instructions executed
    std::uint64_t specials = 0;   ///< special (FLASH-extension) instructions
    std::uint64_t aluBranch = 0;  ///< ALU + branch instructions
    std::uint64_t memStall = 0;   ///< cycles of MDC stall included in cycles
    std::uint64_t invocations = 0; ///< handler invocations accumulated

    bool operator==(const RunStats &) const = default;

    void accumulate(const RunStats &other);

    /** Table 5.2: non-NOP instructions per pair (2.0 is perfect). */
    double dualIssueEfficiency() const;
    /** Table 5.2: fraction of ALU/branch instructions that are special. */
    double specialFraction() const;
    /** Table 5.2: mean instruction pairs per handler invocation. */
    double pairsPerInvocation() const;
};

/**
 * The PP emulator. Stateless between runs; all architectural state lives
 * in the RegFile and PpMemory passed to run().
 */
class PpSim
{
  public:
    /** Upper bound on cycles per handler; exceeded => runaway handler. */
    static constexpr Cycles kMaxCycles = 1 << 20;

    /** With @p checked, run() cross-checks every invocation against
     *  runReference() and panics ("PpSim oracle: ...") on the first
     *  divergence. A machine turns this on with its coherence oracle
     *  (verify.check); off, run() is the threaded engine alone. */
    explicit PpSim(bool checked = false) : checkThreaded_(checked) {}

    bool checked() const { return checkThreaded_; }

    /**
     * Execute @p prog from pair 0 until Halt.
     *
     * Enforces the PP's static-scheduling contract: an intra-pair
     * dependency or a use of a load result in the pair immediately after
     * the load is a panic (the real PP has no interlocks, so such code is
     * simply broken).
     *
     * Runs the token-threaded engine (threaded.hh) over the image the
     * program was lowered to when it was built; the architectural
     * behaviour — register/memory/message effects, cycle charges,
     * statistics, and every contract panic — is identical to
     * runReference().
     *
     * @param regs     register file (r0 forced to zero); updated in place.
     * @param mem      protocol-data memory (MDC timing hook).
     * @param sent     messages launched by Send, in order.
     * @param stats    dynamic statistics, accumulated (not reset).
     * @return cycles consumed by this invocation.
     */
    Cycles run(const Program &prog, RegFile &regs, PpMemory &mem,
               std::vector<SentMessage> &sent, RunStats &stats) const;

    /**
     * The original per-issue-slot interpreter, which re-decodes each
     * instruction (bitfields, source/dest sets, contract checks) every
     * time it executes. Kept as the conformance oracle for run(): the
     * checked run() and the differential tests require identical
     * results from both.
     */
    Cycles runReference(const Program &prog, RegFile &regs, PpMemory &mem,
                        std::vector<SentMessage> &sent,
                        RunStats &stats) const;

  private:
    Cycles runThreadedChecked(const Program &prog, RegFile &regs,
                              PpMemory &mem,
                              std::vector<SentMessage> &sent,
                              RunStats &stats) const;

    /** Cross-check every run() against runReference(). */
    bool checkThreaded_ = false;
};

} // namespace flashsim::ppisa

#endif // FLASHSIM_PPISA_PPSIM_HH_
