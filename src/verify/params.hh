/**
 * @file
 * Configuration of the verification layer (src/verify), carried by
 * machine::MachineConfig::verify: one switch for the coherence oracle,
 * its halt policy, and the deterministic fault injector's seed and
 * classes. Everything here is off by default, so a machine built
 * without touching these settings behaves (and times) exactly as
 * before. The per-node trace rings are always on and take no setting
 * (their depth is a constant, verify/trace.hh). Hang detection is not
 * configured here either: every machine checks its caches' MSHRs for
 * wedged misses and lost progress on every run (machine/machine.hh).
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

    /** True when some class can perturb the run: the injector exists
     *  only then, so a seed alone injects nothing and moves nothing. */
    bool
    any() const
    {
        return meshJitter != 0 || extraNackProb > 0.0 ||
               dropHintProb > 0.0 || dupHintProb > 0.0 || inboundStall != 0;
    }
};

/** The verification layer proper. */
struct VerifyParams
{
    /** Maintain the golden shadow state and cross-check the directory
     *  and processor caches at every handler completion (the oracle). */
    bool check = false;

    /** fatal() on the first oracle violation (otherwise record and
     *  continue; the run's violation log is inspected afterwards). */
    bool haltOnViolation = false;

    FaultParams fault;

    bool operator==(const VerifyParams &) const = default;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_PARAMS_HH_
