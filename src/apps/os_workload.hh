/**
 * @file
 * OS: multiprogramming workload (Table 3.5: 8 "makes" of a small C
 * program under IRIX 5.2).
 *
 * We cannot boot IRIX, so the workload is a synthetic multiprogrammed
 * compile modeled on what the paper reports about it: eight processes
 * each alternating user-mode compilation phases (private working sets,
 * compute heavy) with kernel phases (~50% of time) that take
 * fine-grained kernel locks, walk shared kernel tables homed across
 * the machine (remote clean, 58.6% of misses), allocate and zero fresh
 * pages from the machine-wide pool (where the page-placement policy —
 * round-robin vs first-fit — creates the Section 4.3 hot-spotting),
 * and touch the file cache.
 */

#ifndef FLASHSIM_APPS_OS_WORKLOAD_HH_
#define FLASHSIM_APPS_OS_WORKLOAD_HH_

#include <cstdint>

#include "apps/workload.hh"
#include "sim/random.hh"

namespace flashsim::apps
{

struct OsParams
{
    int tasks = 6;            ///< compile tasks per processor
    int userLines = 320;      ///< private working set lines per process
    int kernelTableLines = 2048; ///< shared kernel structures
    int hotLines = 16;           ///< intensively write-shared counters
    int hotOpsPerTask = 80;      ///< scheduler-tick style RMW bursts
    int fileCacheLines = 1024;
    int pagesPerTask = 6;    ///< fresh pages allocated+zeroed per task
    std::uint64_t userInstrsPerLine = 520;
    std::uint64_t kernelInstrsPerOp = 90;
    std::uint64_t seed = 5150;

    static OsParams
    paper()
    {
        OsParams p;
        p.tasks = 8;
        return p;
    }
};

class OsWorkload : public Workload
{
  public:
    explicit OsWorkload(OsParams params = {}) : p_(params) {}

    std::string name() const override { return "os"; }
    void setup(machine::Machine &m) override;
    tango::Task run(tango::Env &env) override;

  private:
    OsParams p_;
    int nprocs_ = 0;
    std::vector<Addr> userBase_;  ///< per-process private memory
    Addr kernelBase_ = 0;         ///< shared kernel tables
    Addr hotBase_ = 0;            ///< hot scheduler/VM counter lines
    Addr fileBase_ = 0;           ///< file cache
    std::vector<Addr> freshPages_;///< page pool (placement-policy homed)
    std::vector<tango::LockVar> locks_; ///< fs / vm / proc-table locks
    tango::BarrierVar bar_;
};

} // namespace flashsim::apps

#endif // FLASHSIM_APPS_OS_WORKLOAD_HH_
