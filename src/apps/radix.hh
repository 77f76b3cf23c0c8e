/**
 * @file
 * Radix: parallel radix sort (Table 3.5: 256K integer keys, radix 256).
 *
 * Each pass builds per-processor histograms of the local key block,
 * computes global rank prefixes (reading every other processor's
 * histogram), then permutes keys to their destination positions in the
 * other buffer. The permutation writes land all over the machine, so
 * the next pass's local reads find their own lines dirty in remote
 * caches — the paper's striking 76% "local, dirty remote" class.
 */

#ifndef FLASHSIM_APPS_RADIX_HH_
#define FLASHSIM_APPS_RADIX_HH_

#include <cstdint>

#include "apps/workload.hh"
#include "sim/random.hh"

namespace flashsim::apps
{

struct RadixParams
{
    std::uint32_t keys = 1u << 18; ///< paper: 256K
    int radix = 256;               ///< paper: 256
    int passes = 2;                ///< digits sorted
    std::uint64_t seed = 12345;
    std::uint64_t instrsPerKey = 10;

    bool operator==(const RadixParams &) const = default;

    static RadixParams
    paper()
    {
        return RadixParams{};
    }
};

class Radix : public Workload
{
  public:
    explicit Radix(RadixParams params = {}) : p_(params) {}

    std::string name() const override { return "radix"; }
    void setup(machine::Machine &m) override;
    tango::Task run(tango::Env &env) override;

    /** Host-side result after run (buffer written by the last pass). */
    const std::vector<std::uint32_t> &
    result() const
    {
        return (p_.passes & 1) ? keysB_ : keysA_;
    }

    int passes() const { return p_.passes; }
    int radix() const { return p_.radix; }

  private:
    Addr keyAddr(const std::vector<Addr> &bases, std::uint32_t idx) const;

    RadixParams p_;
    int nprocs_ = 0;
    std::uint32_t keysPerProc_ = 0;
    std::vector<Addr> aBase_;    ///< per-proc key blocks, buffer A
    std::vector<Addr> bBase_;    ///< buffer B
    std::vector<Addr> histBase_; ///< per-proc histogram arrays
    tango::BarrierVar bar_;

    // Host-side sort state.
    std::vector<std::uint32_t> keysA_;
    std::vector<std::uint32_t> keysB_;
    std::vector<std::vector<std::uint32_t>> hist_; ///< [proc][digit]
    std::vector<std::vector<std::uint32_t>> rankBase_;
};

} // namespace flashsim::apps

#endif // FLASHSIM_APPS_RADIX_HH_
