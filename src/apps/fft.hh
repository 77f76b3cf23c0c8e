/**
 * @file
 * FFT: radix-sqrt(N) six-step 1-D FFT (Table 3.5: 64K complex points).
 *
 * The N points live in a sqrt(N) x sqrt(N) matrix of 16-byte complex
 * values, row blocks distributed across the node memories. Each
 * processor FFTs its own rows (local, compute-heavy), then the matrix
 * is transposed (every processor reads columns out of every other
 * processor's freshly-written rows — the misses are predominantly
 * "remote, dirty in the home node's cache", which is why the paper's
 * Table 4.1 shows 62% of FFT misses in that class).
 */

#ifndef FLASHSIM_APPS_FFT_HH_
#define FLASHSIM_APPS_FFT_HH_

#include "apps/workload.hh"

namespace flashsim::apps
{

struct FftParams
{
    int logN = 14;  ///< log2 of total complex points (paper: 16)
    /** Compute instructions per point per butterfly pass. */
    std::uint64_t instrsPerPoint = 60;
    /** Butterfly passes per 1-D FFT phase (radix-sqrt(N) FFTs make
     *  several passes over each row; this is what turns the row data
     *  into local capacity misses when the cache is small). */
    int passesPerFft = 3;

    static FftParams
    paper()
    {
        FftParams p;
        p.logN = 16; // 64K complex points
        return p;
    }
};

class Fft : public Workload
{
  public:
    explicit Fft(FftParams params = {}) : p_(params) {}

    std::string name() const override { return "fft"; }
    /** At least one matrix row per processor. */
    bool
    acceptsProcs(int nprocs) const override
    {
        return nprocs <= 1 << (p_.logN / 2);
    }
    void setup(machine::Machine &m) override;
    tango::Task run(tango::Env &env) override;

  private:
    /** Address of complex element (row, col). */
    Addr elem(int row, int col) const;

    FftParams p_;
    int side_ = 0;         ///< sqrt(N)
    int rowsPerProc_ = 0;
    int nprocs_ = 0;
    std::vector<Addr> aBase_; ///< per-proc row block of matrix A
    std::vector<Addr> bBase_; ///< per-proc row block of matrix B
    tango::BarrierVar bar_;
};

} // namespace flashsim::apps

#endif // FLASHSIM_APPS_FFT_HH_
