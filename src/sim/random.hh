/**
 * @file
 * Deterministic PRNG for workload generators.
 *
 * Simulation results must be reproducible across platforms, so workloads
 * use this xorshift64* generator rather than std::mt19937 (whose
 * distribution implementations vary across standard libraries).
 */

#ifndef FLASHSIM_SIM_RANDOM_HH_
#define FLASHSIM_SIM_RANDOM_HH_

#include <cstdint>

#include "sim/logging.hh"

namespace flashsim
{

/** xorshift64* pseudo-random generator with helper draws. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state_(seed ? seed : 1)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state_;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state_ = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /**
     * Uniform integer in [0, bound). @p bound must be nonzero — with a
     * zero bound there is no value to return, and the old modulo
     * implementation hit undefined behaviour (integer division by
     * zero), so a zero bound from a shrunken workload parameter could
     * crash or return garbage depending on platform. Callers with
     * possibly-degenerate ranges must guard (see apps/os_workload.cc).
     *
     * Uses the widening-multiply (Lemire) reduction rather than
     * `next() % bound`: one multiply instead of a 64-bit division, no
     * modulo bias for bounds that don't divide 2^64 (the old reduction
     * skewed toward low values by up to bound/2^64), and still exactly
     * one next() draw per call, so seeded draw sequences keep their
     * draw counts and replay determinism.
     */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            panic("Rng::below requires a nonzero bound");
        const auto wide =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(wide >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t state_;
};

} // namespace flashsim

#endif // FLASHSIM_SIM_RANDOM_HH_
