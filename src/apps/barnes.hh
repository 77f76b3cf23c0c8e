/**
 * @file
 * Barnes: hierarchical Barnes-Hut N-body (Table 3.5: 8192 particles,
 * theta = 1.0).
 *
 * Each step builds an octree over the particles (cells are written by
 * their builder and land dirty in its cache), then every processor
 * computes forces on its particle block by walking the tree with the
 * opening criterion theta: cells near the root are read by everyone
 * (remote clean after the first reader downgrades them), deeper cells
 * less so — giving the read-mostly sharing mix of Table 4.1 (52.6%
 * remote dirty remote, 38.7% remote clean at 1 MB).
 */

#ifndef FLASHSIM_APPS_BARNES_HH_
#define FLASHSIM_APPS_BARNES_HH_

#include <array>
#include <cstdint>

#include "apps/workload.hh"
#include "sim/random.hh"

namespace flashsim::apps
{

struct BarnesParams
{
    int particles = 4096; ///< paper: 8192
    int steps = 3;
    double theta = 1.0;   ///< opening criterion (paper: 1.0)
    std::uint64_t seed = 99;
    std::uint64_t instrsPerInteraction = 170;

    static BarnesParams
    paper()
    {
        BarnesParams p;
        p.particles = 8192;
        return p;
    }
};

class Barnes : public Workload
{
  public:
    explicit Barnes(BarnesParams params = {}) : p_(params) {}

    std::string name() const override { return "barnes"; }
    /** At least one particle per processor. */
    bool
    acceptsProcs(int nprocs) const override
    {
        return nprocs <= p_.particles;
    }
    void setup(machine::Machine &m) override;
    tango::Task run(tango::Env &env) override;

  private:
    struct Cell
    {
        double cx = 0, cy = 0, cz = 0; ///< center of mass
        double size = 0;               ///< spatial extent
        double mass = 0;
        std::array<int, 8> child{};    ///< child cell ids (-1: none)
        int body = -1;                 ///< particle id for leaves
        Addr addr = 0;                 ///< simulated cell record line
    };

    void buildTree();
    int insert(int cell, int body, double x, double y, double z,
               double size, int depth);
    void summarize(int cell);
    /** Collect the cells a traversal from @p body touches. */
    void walk(int cell, int body, std::vector<int> &out) const;

    BarnesParams p_;
    int nprocs_ = 0;
    int perProc_ = 0;

    std::vector<double> px_, py_, pz_;
    std::vector<Addr> bodyAddr_;  ///< particle records (per-proc blocks)
    std::vector<Cell> cells_;
    std::vector<Addr> cellPool_;  ///< simulated cell lines, round-robin
    tango::BarrierVar bar_;
    Rng rng_{99};
};

} // namespace flashsim::apps

#endif // FLASHSIM_APPS_BARNES_HH_
