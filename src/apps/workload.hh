/**
 * @file
 * Workload interface and registry.
 *
 * The paper drives FlashLite with six parallel scientific applications
 * (Table 3.5) plus an OS multiprogramming workload. Here each workload
 * implements the computational kernel itself as a per-processor
 * coroutine issuing timed loads/stores/synchronization against the
 * simulated machine, reproducing the reference patterns the paper's
 * Tables 4.1/4.2 depend on (locality, sharing, communication and
 * computation/communication ratio).
 *
 * Every workload has two operating points: the default problem size
 * (scaled down from the paper for simulation cost, like the paper
 * itself scales down from production sizes) and the paper's size
 * (Table 3.5), selected by Scale::Paper.
 */

#ifndef FLASHSIM_APPS_WORKLOAD_HH_
#define FLASHSIM_APPS_WORKLOAD_HH_

#include <memory>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "tango/runtime.hh"
#include "tango/task.hh"

namespace flashsim::apps
{

enum class Scale
{
    Default, ///< reduced problem size (fast simulation)
    Paper,   ///< Table 3.5 problem size
};

/** A parallel application or OS workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Whether the workload runs on @p nprocs processors; setup()
     *  fatal()s on a count this rejects. */
    virtual bool acceptsProcs(int /*nprocs*/) const { return true; }

    /** Allocate simulated memory and host state. Called exactly once,
     *  before run. */
    virtual void setup(machine::Machine &m) = 0;

    /** The per-processor body. */
    virtual tango::Task run(tango::Env &env) = 0;

    /** Adapter for Machine::run. */
    machine::Workload
    body()
    {
        return [this](tango::Env &env) { return run(env); };
    }
};

/** Side of a square grid of @p nprocs processors, or 0 when @p nprocs
 *  is not a perfect square. */
int gridSide(int nprocs);

/** Factory: fft, lu, ocean, radix, barnes, mp3d, os. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       Scale scale = Scale::Default);

/** The six parallel applications (no OS), in the paper's order. */
std::vector<std::string> parallelAppNames();

/** All seven workloads. */
std::vector<std::string> allWorkloadNames();

/**
 * Convenience: construct a machine from @p cfg, set up @p w, run it to
 * completion and drain.
 * @return the machine (for summarize()).
 */
std::unique_ptr<machine::Machine> runWorkload(
    const machine::MachineConfig &cfg, Workload &w);

} // namespace flashsim::apps

#endif // FLASHSIM_APPS_WORKLOAD_HH_
