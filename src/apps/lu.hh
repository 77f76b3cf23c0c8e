/**
 * @file
 * LU: blocked dense LU factorization (Table 3.5: 512x512 matrix,
 * 16x16 blocks).
 *
 * Blocks are assigned to processors in a 2-D scatter and allocated in
 * their owner's local memory (the SPLASH-2 contiguous-blocks layout).
 * Each step factors the diagonal block, updates the perimeter, then
 * updates the interior; consumers read the pivot blocks of remote
 * owners after they are written, so misses are mostly remote (Table
 * 4.1: 67% remote clean, 32% remote dirty at home) but rare — LU's
 * computation-to-communication ratio keeps the miss rate at ~0.05%.
 */

#ifndef FLASHSIM_APPS_LU_HH_
#define FLASHSIM_APPS_LU_HH_

#include "apps/workload.hh"

namespace flashsim::apps
{

struct LuParams
{
    int n = 256;        ///< matrix dimension (paper: 512)
    int blockSize = 16; ///< paper: 16
    /** Instructions per multiply-add in the block update kernels. */
    std::uint64_t instrsPerFlop = 4;

    static LuParams
    paper()
    {
        LuParams p;
        p.n = 512;
        return p;
    }
};

class Lu : public Workload
{
  public:
    explicit Lu(LuParams params = {}) : p_(params) {}

    std::string name() const override { return "lu"; }
    bool acceptsProcs(int n) const override { return gridSide(n) != 0; }
    void setup(machine::Machine &m) override;
    tango::Task run(tango::Env &env) override;

  private:
    int owner(int bi, int bj) const;
    Addr blockBase(int bi, int bj) const;
    /** Read every line of a block (consumer side). */
    tango::Task touchBlock(tango::Env &env, int bi, int bj);
    /** Read-modify-write every element of a block with compute. */
    tango::Task updateBlock(tango::Env &env, int bi, int bj,
                            std::uint64_t instrs_per_elem);

    LuParams p_;
    int nblocks_ = 0;
    int procSide_ = 0; ///< processor grid side
    int nprocs_ = 0;
    std::vector<Addr> blockAddr_; ///< base address per block
    tango::BarrierVar bar_;
};

} // namespace flashsim::apps

#endif // FLASHSIM_APPS_LU_HH_
