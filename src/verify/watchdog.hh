/**
 * @file
 * Deadlock / NACK-livelock watchdog.
 *
 * Tracks every outstanding processor transaction (MSHR allocation to
 * completion) and samples the machine at a fixed interval. Two trip
 * conditions:
 *
 *  - a single transaction older than the age limit (a wedged or
 *    starved request — deadlock, or a pathological NACK storm that
 *    never lets one requester win);
 *
 *  - no transaction has retired for the progress window while some
 *    are outstanding and events keep firing (global NACK livelock: the
 *    machine is busy going nowhere).
 *
 * The watchdog arms itself on the first outstanding transaction and
 * stops rescheduling once none remain, so a quiescing run's event queue
 * still drains and Machine::drain() terminates. Its sampling events sit
 * on ticks of their own and never reorder protocol events, so enabling
 * it does not perturb simulated timing.
 */

#ifndef FLASHSIM_VERIFY_WATCHDOG_HH_
#define FLASHSIM_VERIFY_WATCHDOG_HH_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flashsim::verify
{

// The machine's limits (the Sentinel's; tests pass short ones): far
// above any legitimate latency (the worst miss is hundreds of cycles)
// but low enough to kill a hung run quickly.
inline constexpr Cycles kWatchdogInterval = 20000;  ///< sampling interval
inline constexpr Cycles kMaxTransactionAge = 400000; ///< per-txn age limit
inline constexpr Cycles kNoProgressWindow = 200000; ///< global progress

class Watchdog
{
  public:
    Watchdog(EventQueue &eq, Cycles interval, Cycles max_age,
             Cycles no_progress_window);

    /** A processor transaction for @p addr's line left node @p node. */
    void txnStart(NodeId node, Addr addr);
    /** The transaction completed (data returned to the processor). */
    void txnRetire(NodeId node, Addr addr);

    Counter trips() const { return trips_; }
    Counter retired() const { return retired_; }
    std::size_t outstanding() const { return txns_.size(); }

    /** Called once per trip with a human-readable reason; the policy
     *  (post-mortem dump, fatal()) lives in the Sentinel. */
    std::function<void(const std::string &reason)> onTrip;

    /** Outstanding-transaction table, for the post-mortem dump. */
    void writeStatus(std::ostream &os) const;

  private:
    static std::uint64_t
    key(NodeId node, Addr addr)
    {
        return (static_cast<std::uint64_t>(node) << 48) | lineNumber(addr);
    }

    void arm();
    void check(std::uint64_t gen);
    void trip(std::string reason);

    EventQueue &eq_;
    Cycles interval_;
    Cycles maxAge_;
    Cycles noProgressWindow_;

    /** key -> start tick. */
    std::unordered_map<std::uint64_t, Tick> txns_;
    Tick lastProgress_ = 0;
    bool armed_ = false;
    /** Bumped on disarm so already-scheduled checks become no-ops. */
    std::uint64_t gen_ = 0;
    Counter trips_ = 0;
    Counter retired_ = 0;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_WATCHDOG_HH_
