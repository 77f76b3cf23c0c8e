/**
 * @file
 * The compute processor model.
 *
 * A 400 MIPS processor (four instructions per 10 ns system cycle) with
 * blocking reads and non-blocking writes, driven by a workload
 * coroutine. The processor keeps a local time cursor; memory operations
 * synchronize with the global event queue at the cursor, and all stall
 * time is attributed to the execution-time categories of Figure 4.1:
 * Busy, Cont (cache contention with MAGIC), Read, Write and Sync.
 */

#ifndef FLASHSIM_CPU_PROCESSOR_HH_
#define FLASHSIM_CPU_PROCESSOR_HH_

#include <coroutine>
#include <cstdint>

#include "cpu/cache.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flashsim::cpu
{

class Processor
{
  public:
    /** Instructions issued per system clock cycle (400 MIPS / 100 MHz). */
    static constexpr std::uint64_t kIssueWidth = 4;

    /** Execution-time breakdown (all values in cycles). */
    struct Breakdown
    {
        Tick busy = 0;
        Tick cont = 0;
        Tick read = 0;
        Tick write = 0;
        Tick sync = 0;

        Tick
        total() const
        {
            return busy + cont + read + write + sync;
        }
    };

    Processor(EventQueue &eq, NodeId self, Cache &cache)
        : eq_(eq), self_(self), cache_(cache)
    {}

    /** Execute @p instrs instructions of pure compute. Synchronous. */
    void
    busy(std::uint64_t instrs, bool in_sync)
    {
        instrCarry_ += instrs;
        Tick cycles = instrCarry_ / kIssueWidth;
        instrCarry_ %= kIssueWidth;
        cursor_ += cycles;
        if (in_sync)
            bd_.sync += cycles;
        else
            bd_.busy += cycles;
        // Roughly one in three instructions is a memory reference;
        // compute phases touch registers and primary-cache-resident
        // data, so these references hit and only enter the miss-rate
        // denominator.
        bgRefCarry_ += instrs;
        cache_.backgroundHits += bgRefCarry_ / 3;
        bgRefCarry_ %= 3;
    }

    /** Cycles the cursor would advance over @p instrs more
     *  instructions (the sub-cycle carry included). */
    Tick
    cyclesFor(std::uint64_t instrs) const
    {
        return (instrCarry_ + instrs) / kIssueWidth;
    }

    /** The most whole repetitions of @p instrs instructions that
     *  advance the cursor by at most @p cycles. */
    std::uint64_t
    repetitionsWithin(Tick cycles, std::uint64_t instrs) const
    {
        return (cycles * kIssueWidth + kIssueWidth - 1 - instrCarry_) /
               instrs;
    }

    /** Blocking read; @p done is resumed when the processor may
     *  proceed. */
    void read(Addr addr, bool in_sync, std::coroutine_handle<> done);

    /** Non-blocking write; @p done is resumed when the processor may
     *  proceed (immediately unless an MSHR conflict stalls the
     *  pipeline). */
    void write(Addr addr, bool in_sync, std::coroutine_handle<> done);

    /** The workload coroutine completed. */
    void markFinished();

    /**
     * An external event (message-passing completion, block arrival)
     * resumed the workload: jump the cursor to the present, charging
     * the gap as read stall (or sync inside synchronization).
     */
    void absorbExternalWait(bool in_sync);

    Tick cursor() const { return cursor_; }
    bool finished() const { return finished_; }
    Tick finishTime() const { return finishTime_; }
    NodeId id() const { return self_; }
    const Breakdown &breakdown() const { return bd_; }
    Cache &cache() { return cache_; }

  private:
    /** Advance the cursor over the cache-contention window; returns the
     *  cycles waited. */
    Tick absorbContention();
    void chargeStall(Tick cycles, bool in_sync, Tick Breakdown::*slot);
    void attemptRead(Addr addr, bool in_sync, Tick stall_start,
                     std::coroutine_handle<> done);
    void attemptWrite(Addr addr, bool in_sync, Tick stall_start,
                      std::coroutine_handle<> done);

    EventQueue &eq_;
    NodeId self_;
    Cache &cache_;

    Tick cursor_ = 0;
    std::uint64_t instrCarry_ = 0; ///< sub-cycle instruction remainder
    std::uint64_t bgRefCarry_ = 0; ///< background-reference remainder
    Breakdown bd_;
    bool finished_ = false;
    Tick finishTime_ = 0;
};

} // namespace flashsim::cpu

#endif // FLASHSIM_CPU_PROCESSOR_HH_
