#include "apps/workload.hh"

#include "apps/barnes.hh"
#include "apps/fft.hh"
#include "apps/lu.hh"
#include "apps/mp3d.hh"
#include "apps/ocean.hh"
#include "apps/os_workload.hh"
#include "apps/radix.hh"
#include "sim/logging.hh"

namespace flashsim::apps
{

int
gridSide(int nprocs)
{
    int side = 1;
    while (side * side < nprocs)
        ++side;
    return side * side == nprocs ? side : 0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, Scale scale)
{
    const bool paper = scale == Scale::Paper;
    if (name == "fft")
        return std::make_unique<Fft>(paper ? FftParams::paper()
                                           : FftParams{});
    if (name == "lu")
        return std::make_unique<Lu>(paper ? LuParams::paper()
                                          : LuParams{});
    if (name == "ocean")
        return std::make_unique<Ocean>(paper ? OceanParams::paper()
                                             : OceanParams{});
    if (name == "radix")
        return std::make_unique<Radix>(paper ? RadixParams::paper()
                                             : RadixParams{});
    if (name == "barnes")
        return std::make_unique<Barnes>(paper ? BarnesParams::paper()
                                              : BarnesParams{});
    if (name == "mp3d")
        return std::make_unique<Mp3d>(paper ? Mp3dParams::paper()
                                            : Mp3dParams{});
    if (name == "os")
        return std::make_unique<OsWorkload>(paper ? OsParams::paper()
                                                  : OsParams{});
    fatal("makeWorkload: unknown workload '%s'", name.c_str());
}

std::vector<std::string>
parallelAppNames()
{
    return {"barnes", "fft", "lu", "mp3d", "ocean", "radix"};
}

std::vector<std::string>
allWorkloadNames()
{
    auto names = parallelAppNames();
    names.push_back("os");
    return names;
}

std::unique_ptr<machine::Machine>
runWorkload(const machine::MachineConfig &cfg, Workload &w)
{
    auto m = std::make_unique<machine::Machine>(cfg);
    w.setup(*m);
    m->run(w.body());
    m->drain();
    return m;
}

} // namespace flashsim::apps
