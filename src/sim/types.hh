/**
 * @file
 * Fundamental scalar types shared by every FlashSim module.
 *
 * All latencies in the simulator are expressed in 10 ns system clock
 * cycles (MAGIC runs at 100 MHz), matching the unit used throughout the
 * ASPLOS'94 FLASH flexibility paper.
 */

#ifndef FLASHSIM_SIM_TYPES_HH_
#define FLASHSIM_SIM_TYPES_HH_

#include <cstdint>

namespace flashsim
{

/** Simulation time in 10 ns system clock cycles. */
using Tick = std::uint64_t;

/** A duration in system clock cycles. */
using Cycles = std::uint64_t;

/** Physical address within the machine's shared address space. */
using Addr = std::uint64_t;

/** Node (processor/MAGIC/memory tuple) identifier. */
using NodeId = std::uint32_t;

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/** Cache line size used by both the processor caches and MAGIC (bytes). */
inline constexpr Addr kLineSize = 128;

/** log2(kLineSize). */
inline constexpr int kLineShift = 7;

/** Page size (4 KB) of the page table and MAGIC's page monitor. */
inline constexpr int kPageShift = 12;
inline constexpr Addr kPageBytes = Addr{1} << kPageShift;

/** Align an address down to its cache-line base. */
constexpr Addr
lineBase(Addr a)
{
    return a & ~(kLineSize - 1);
}

/** Cache-line index of an address. */
constexpr Addr
lineNumber(Addr a)
{
    return a >> kLineShift;
}

} // namespace flashsim

#endif // FLASHSIM_SIM_TYPES_HH_
