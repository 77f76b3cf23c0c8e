/**
 * @file
 * MAGIC timing constants and the controller settings that experiments
 * vary.
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

namespace flashsim::magic
{

// ---- Table 3.2 sub-operation latencies ----------------------------------
inline constexpr Cycles kMissDetect = 5; ///< miss detect to request on bus
inline constexpr Cycles kBusTransit = 1;
inline constexpr Cycles kPiInbound = 1;
inline constexpr Cycles kPiOutbound = 4;      ///< FLASH value
inline constexpr Cycles kPiOutboundIdeal = 2; ///< ideal-machine value
inline constexpr Cycles kBusArb = 1;
inline constexpr Cycles kCacheStateRetrieve = 15; ///< state from proc cache
inline constexpr Cycles kCacheDataRetrieve = 20;  ///< first double word
inline constexpr Cycles kNiInbound = 8;
inline constexpr Cycles kNiOutbound = 4;
inline constexpr Cycles kInboxArb = 1; ///< queue selection and arbitration
inline constexpr Cycles kJumpLookup = 2; ///< jump table lookup
inline constexpr Cycles kOutbox = 1;
inline constexpr Cycles kMemAccess = 14; ///< time to first 8 bytes
/** Memory controller service interval per line: the 128-byte line
 *  streams over the 64-bit path for 16 cycles plus bank turnaround
 *  (calibrated so the Section 4.3 node-0 occupancies match the paper's
 *  82% PP / 68% memory). */
inline constexpr Cycles kMemBusy = 20;

/** Table 3.1 data buffers. */
inline constexpr int kDataBuffers = 16;

/** MDC associativity and line size (Section 5.2). */
inline constexpr std::uint32_t kMdcAssoc = 2;
inline constexpr std::uint32_t kMdcLineBytes = 128;

/** Extra PP cycles per request counted by page monitoring. */
inline constexpr Cycles kMonitorCost = 2;

struct MagicParams
{
    /** Ideal (zero-time hardwired) controller instead of the PP. */
    bool ideal = false;
    /** Inbox-initiated speculative memory operations (Section 5.1). */
    bool speculation = true;
    /** Use the PP emulator for handler timing (vs the Table 3.4 table). */
    bool usePpEmulator = true;

    /** MDC miss penalty (Table 3.2; zeroed by the Section 5.2 sweep). */
    Cycles mdcMissPenalty = 29;
    /** Cold-miss penalty charged on a handler's first invocation (MIC). */
    Cycles micColdMiss = 20;

    /** MDC capacity (Section 5.2). */
    std::uint32_t mdcBytes = 64 * 1024;

    /** NACKed requests retry after this backoff (not in the paper). */
    Cycles nackRetryBackoff = 16;

    /** Count per-page remote accesses at the home node (the kind of
     *  performance monitoring the paper cites as a flexibility win;
     *  costs kMonitorCost PP cycles per monitored request), for the
     *  Section 4.4 hot-spot detection. */
    bool monitorPages = false;

    bool operator==(const MagicParams &) const = default;
};

} // namespace flashsim::magic

#endif // FLASHSIM_MAGIC_PARAMS_HH_
