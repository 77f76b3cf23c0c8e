/**
 * @file
 * MAGIC and machine timing/configuration parameters.
 *
 * Latencies are the sub-operation latencies of Table 3.2 (10 ns system
 * clock cycles, taken by the authors from the MAGIC Verilog model). Of
 * Table 3.1's limits only the 16 data buffers are modelled; the PP
 * itself runs one handler at a time, and every other queue is unbounded
 * (see DESIGN 5a). The `ideal` flag selects the paper's ideal machine:
 * all macropipeline sub-operations (jump table, handler, outbox, MDC)
 * take zero time, PI outbound processing drops from 4 to 2 cycles, and
 * the data buffers are unlimited.
 */

#ifndef FLASHSIM_MAGIC_PARAMS_HH_
#define FLASHSIM_MAGIC_PARAMS_HH_

#include "sim/types.hh"
#include "verify/params.hh"

namespace flashsim::magic
{

struct MagicParams
{
    /** Ideal (zero-time hardwired) controller instead of the PP. */
    bool ideal = false;
    /** Inbox-initiated speculative memory operations (Section 5.1). */
    bool speculation = true;
    /** Use the PP emulator for handler timing (vs the Table 3.4 table). */
    bool usePpEmulator = true;

    // ---- Table 3.2 sub-operation latencies ------------------------------
    Cycles missDetect = 5;   ///< miss detect to request on bus
    Cycles busTransit = 1;
    Cycles piInbound = 1;
    Cycles piOutbound = 4;      ///< FLASH value
    Cycles piOutboundIdeal = 2; ///< ideal-machine value
    Cycles busArb = 1;
    Cycles cacheStateRetrieve = 15; ///< retrieve state from proc cache
    Cycles cacheDataRetrieve = 20;  ///< first double word from proc cache
    Cycles niInbound = 8;
    Cycles niOutbound = 4;
    Cycles inboxArb = 1;  ///< queue selection and arbitration
    Cycles jumpTable = 2;
    Cycles outbox = 1;
    Cycles mdcMissPenalty = 29;
    Cycles memAccess = 14;   ///< time to first 8 bytes
    /** Memory controller service interval per line: the 128-byte line
     *  streams over the 64-bit path for 16 cycles plus bank turnaround
     *  (calibrated so the Section 4.3 node-0 occupancies match the
     *  paper's 82% PP / 68% memory). */
    Cycles memBusy = 20;
    /** Cold-miss penalty charged on a handler's first invocation (MIC). */
    Cycles micColdMiss = 20;

    // ---- Table 3.1 data buffers ------------------------------------------
    int dataBuffers = 16;

    // ---- MDC geometry (Section 5.2) --------------------------------------
    std::uint32_t mdcBytes = 64 * 1024;
    std::uint32_t mdcAssoc = 2;
    std::uint32_t mdcLineBytes = 128;

    /** NACKed requests retry after this backoff (not in the paper). */
    Cycles nackRetryBackoff = 16;

    /** log2(page size), for the per-page access monitoring that backs
     *  the Section 4.4 hot-spot detection (set by the machine). */
    unsigned pageShift = 12;
    /** Count per-page remote accesses at the home node (the kind of
     *  performance monitoring the paper cites as a flexibility win;
     *  costs a couple of PP cycles per monitored handler). */
    bool monitorPages = false;
    /** Extra PP cycles per monitored request. */
    Cycles monitorCost = 2;

    /** Verification layer (oracle / watchdog / fault injection); all
     *  off by default, see verify/params.hh. */
    verify::VerifyParams verify;

    bool operator==(const MagicParams &) const = default;

    Cycles
    piOut() const
    {
        return ideal ? piOutboundIdeal : piOutbound;
    }
};

} // namespace flashsim::magic

#endif // FLASHSIM_MAGIC_PARAMS_HH_
