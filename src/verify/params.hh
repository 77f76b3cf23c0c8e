/**
 * @file
 * Configuration of the verification layer (src/verify): the coherence
 * oracle, the deadlock/livelock watchdog, and the deterministic fault
 * injector. Everything here is off by default, so a machine built
 * without touching these knobs behaves (and times) exactly as before.
 *
 * Scalars only: this header is embedded in magic::MagicParams and must
 * not pull protocol or machine types.
 */

#ifndef FLASHSIM_VERIFY_PARAMS_HH_
#define FLASHSIM_VERIFY_PARAMS_HH_

#include "sim/types.hh"

namespace flashsim::verify
{

/** Largest meshJitter and inboundStall: a draw in [0, max] must not
 *  wrap, and a stalled arrival time must not overflow Tick. */
inline constexpr Cycles kMaxPerturbCycles = 0xffffffff;

/**
 * Seeded, deterministic protocol perturbations. Every decision comes
 * from one xorshift64* stream drawn in event order, so a (seed, config)
 * pair replays bit-identically. All perturbations preserve the
 * point-to-point FIFO ordering the NACK/retry protocol depends on:
 * delay jitter and inbound stalls are clamped so no message overtakes
 * an earlier one on the same (src, dest) pair or MAGIC queue.
 */
struct FaultParams
{
    bool enabled = false;
    std::uint64_t seed = 1;

    /** Max extra mesh transit cycles added per message (0 = off). */
    Cycles meshJitter = 0;
    /** Probability a home-node GET/GETX is NACKed outright instead of
     *  serviced (forces the retry paths; 0 = off). */
    double extraNackProb = 0.0;
    /** Probability a replacement hint is dropped on arrival (leaves a
     *  stale sharer pointer for later invalidation to clean up). */
    double dropHintProb = 0.0;
    /** Probability a replacement hint is duplicated on arrival. */
    double dupHintProb = 0.0;
    /** Max extra cycles a message stalls entering a MAGIC inbound
     *  queue, modelling queue-full backpressure (0 = off). */
    Cycles inboundStall = 0;

    bool operator==(const FaultParams &) const = default;
};

/** The verification layer proper. */
struct VerifyParams
{
    /** Maintain the golden shadow state and cross-check the directory
     *  and processor caches at every handler completion. */
    bool oracle = false;
    /** Track per-transaction ages and global protocol progress. */
    bool watchdog = false;

    /** fatal() on the first oracle violation (otherwise record and
     *  continue; the run's violation log is inspected afterwards). */
    bool haltOnViolation = false;
    /** fatal() on a watchdog trip. A trip means the simulation is
     *  hanging, so dying loudly (with the post-mortem dump) is usually
     *  better than letting the run wedge; record-only is for tests. */
    bool haltOnTrip = true;

    /** Watchdog sampling interval. */
    Cycles watchdogInterval = 20000;
    /** A single transaction older than this trips the watchdog. */
    Cycles maxTransactionAge = 400000;
    /** Trip when transactions are outstanding and events keep firing
     *  but nothing has retired for this many cycles (NACK livelock). */
    Cycles noProgressWindow = 200000;

    /** Entries kept in each node's message/handler trace ring. */
    std::uint32_t traceDepth = 64;

    FaultParams fault;

    bool operator==(const VerifyParams &) const = default;

    /** True when any component needs a Sentinel constructed. */
    bool
    any() const
    {
        return oracle || watchdog || fault.enabled;
    }
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_PARAMS_HH_
