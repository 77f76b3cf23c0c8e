/**
 * @file
 * Lightweight statistics primitives.
 *
 * Hardware units own their statistics as plain members built from these
 * primitives; machine::Report walks them to produce the paper's tables.
 */

#ifndef FLASHSIM_SIM_STATS_HH_
#define FLASHSIM_SIM_STATS_HH_

#include <cstdint>

#include "sim/types.hh"

namespace flashsim
{

/** Simple monotonically increasing event counter. */
using Counter = std::uint64_t;

/**
 * Running mean/min/max/sum of a sampled quantity.
 */
class Distribution
{
  public:
    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double last() const { return last_; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double last_ = 0.0;
};

/**
 * Tracks what fraction of simulated time a resource is busy.
 *
 * The paper reports "occupancy" for the protocol processor and the memory
 * system: busy cycles divided by total elapsed cycles.
 */
class Occupancy
{
  public:
    /** Record @p cycles of busy time. */
    void addBusy(Cycles cycles) { busy_ += cycles; }

    Cycles busyCycles() const { return busy_; }

    /** Occupancy over an interval of @p total cycles (0..1). */
    double
    fraction(Tick total) const
    {
        return total ? static_cast<double>(busy_) / total : 0.0;
    }

    void reset() { busy_ = 0; }

  private:
    Cycles busy_ = 0;
};

/** Percentage helper: 100 * num / denom, 0 when denom == 0. */
double pct(double num, double denom);

/** Ratio helper: num / denom, 0 when denom == 0. */
double ratio(double num, double denom);

} // namespace flashsim

#endif // FLASHSIM_SIM_STATS_HH_
