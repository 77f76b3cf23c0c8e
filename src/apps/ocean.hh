/**
 * @file
 * Ocean: regular-grid iterative red-black relaxation (Table 3.5:
 * 258x258 grids, 25 grids).
 *
 * The grid is partitioned into square subgrids, each allocated in its
 * owner's local memory (the SPLASH-2 4-D array layout). Sweeps are
 * near-neighbor 5-point stencils: interior points are local (51.7% of
 * misses are local clean in Table 4.1 — cold and capacity), and the
 * subgrid boundary rows/columns are fetched from the four neighbors'
 * caches (remote dirty at home, 37.8%). Several auxiliary grids model
 * the multigrid solver's footprint.
 */

#ifndef FLASHSIM_APPS_OCEAN_HH_
#define FLASHSIM_APPS_OCEAN_HH_

#include "apps/workload.hh"

namespace flashsim::apps
{

struct OceanParams
{
    int n = 130;   ///< grid side including boundary (paper: 258)
    int iters = 6; ///< red/black iteration pairs
    int grids = 12; ///< auxiliary grids contributing footprint (paper: 25)
    std::uint64_t instrsPerPoint = 44; ///< stencil flops per point

    static OceanParams
    paper()
    {
        OceanParams p;
        p.n = 258;
        p.grids = 25;
        p.iters = 6;
        return p;
    }
};

class Ocean : public Workload
{
  public:
    explicit Ocean(OceanParams params = {}) : p_(params) {}

    std::string name() const override { return "ocean"; }
    /** A square processor grid whose side divides the interior. */
    bool
    acceptsProcs(int nprocs) const override
    {
        const int side = gridSide(nprocs);
        return side != 0 && (p_.n - 2) % side == 0;
    }
    void setup(machine::Machine &m) override;
    tango::Task run(tango::Env &env) override;

  private:
    /** Address of point (r, c) of grid g (owner-block layout). */
    Addr elem(int g, int r, int c) const;

    OceanParams p_;
    int nprocs_ = 0;
    int procSide_ = 0;
    int sub_ = 0; ///< interior points per subgrid side
    std::vector<Addr> base_; ///< [grid][proc] subgrid base
    tango::BarrierVar bar_;
};

} // namespace flashsim::apps

#endif // FLASHSIM_APPS_OCEAN_HH_
