/**
 * @file
 * Whole-machine configuration: FLASH vs the ideal machine, cache sizes,
 * page placement, and the PP toolchain knobs.
 */

#ifndef FLASHSIM_MACHINE_CONFIG_HH_
#define FLASHSIM_MACHINE_CONFIG_HH_

#include <cstdint>
#include <functional>

#include "cpu/cache.hh"
#include "magic/params.hh"
#include "network/mesh.hh"
#include "ppc/compiler.hh"
#include "verify/params.hh"

namespace flashsim::machine
{

/** Physical page placement policy (Sections 3.4 and 4.3). */
enum class Placement
{
    RoundRobinPages, ///< pages striped across node memories (default)
    Node0,           ///< everything in node 0's memory (FFT hot-spot run)
    FirstFit,        ///< fill one node's memory before the next (old IRIX)
};

/** Per-node memory filled before moving on under FirstFit. */
inline constexpr std::uint64_t kFirstFitNodeBytes = std::uint64_t{8} << 20;

struct MachineConfig
{
    int numProcs = 16;
    magic::MagicParams magic;
    cpu::CacheParams cache;
    network::MeshParams net;
    ppc::CompileOptions ppCompile;
    /** Verification layer; off by default, read only by Machine. */
    verify::VerifyParams verify;

    Placement placement = Placement::RoundRobinPages;

    /**
     * Page remapping hook (Section 4.4): when set it overrides every
     * allocation's home, explicit hints included, with
     * placementHook(page index) modulo numProcs. Allocation order is
     * deterministic and Machine::pageHeat() is indexed by the same page
     * index (Machine::pageIndexOf), so a map derived from a prior run's
     * heat re-homes exactly the pages it measured — the "automatic page
     * remapping" the paper proposes building on flexibility.
     */
    std::function<NodeId(std::uint64_t page_index)> placementHook;

    /**
     * Every member except placementHook (a std::function cannot be
     * compared): equal configs without a hook build identical
     * machines. A new member must be added here.
     */
    bool
    operator==(const MachineConfig &o) const
    {
        return numProcs == o.numProcs && magic == o.magic &&
               cache == o.cache && net == o.net &&
               ppCompile == o.ppCompile && verify == o.verify &&
               placement == o.placement;
    }

    /** FLASH machine with @p cache_bytes processor caches. */
    static MachineConfig
    flash(int nprocs, std::uint32_t cache_bytes = 1u << 20)
    {
        MachineConfig c;
        c.numProcs = nprocs;
        c.cache.sizeBytes = cache_bytes;
        return c;
    }

    /** The idealized hardwired machine of Section 3.1. */
    static MachineConfig
    ideal(int nprocs, std::uint32_t cache_bytes = 1u << 20)
    {
        MachineConfig c = flash(nprocs, cache_bytes);
        c.magic.ideal = true;
        c.magic.usePpEmulator = false;
        return c;
    }
};

} // namespace flashsim::machine

#endif // FLASHSIM_MACHINE_CONFIG_HH_
