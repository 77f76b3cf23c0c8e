/**
 * @file
 * Run summaries: the quantities the paper's tables and figures report,
 * extracted from a finished Machine.
 */

#ifndef FLASHSIM_MACHINE_REPORT_HH_
#define FLASHSIM_MACHINE_REPORT_HH_

#include <cstdint>
#include <string>

#include "machine/machine.hh"
#include "sim/stats.hh"

namespace flashsim::machine
{

/** Read-miss distribution as fractions summing to ~1 (Table 4.1). */
struct ReadMissDistribution
{
    double localClean = 0;
    double localDirtyRemote = 0;
    double remoteClean = 0;
    double remoteDirtyHome = 0;
    double remoteDirtyRemote = 0;
};

/** No-contention read-miss latencies per class (Table 3.3). */
struct MissLatencies
{
    double localClean = 0;
    double localDirtyRemote = 0;
    double remoteClean = 0;
    double remoteDirtyHome = 0;
    double remoteDirtyRemote = 0;

    /** Contentionless read miss time for a distribution (Section 4.1). */
    double crmt(const ReadMissDistribution &d) const;
};

/** Everything the paper reports about one run. */
struct Summary
{
    Tick execTime = 0;

    // Execution-time breakdown, as fractions of aggregate processor time
    // (Figure 4.1's Busy / Cont / Read / Write / Sync categories).
    double busy = 0;
    double cont = 0;
    double read = 0;
    double write = 0;
    double sync = 0;

    double missRate = 0; ///< processor cache misses / references
    ReadMissDistribution dist;

    double avgMemOcc = 0;
    double maxMemOcc = 0;
    double avgPpOcc = 0;
    double maxPpOcc = 0;

    std::uint64_t cacheReads = 0;
    std::uint64_t cacheWrites = 0;
    std::uint64_t backgroundRefs = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t handlerInvocations = 0;
    double handlersPerMiss = 0;

    std::uint64_t specIssued = 0;
    double specUselessFrac = 0;

    double mdcMissRate = 0;
    double mdcReadMissRate = 0;
    std::uint64_t mdcProtocolMemOps = 0; ///< MDC fills + writebacks

    std::uint64_t nacksSent = 0;

    /** Always 0: no transaction can fail to complete. Kept because
     *  the perfbench run records still carry it. */
    std::uint64_t degradedTxns = 0;
};

/** Collect a Summary from a machine that has finished run(). */
Summary summarize(const Machine &m);

/** Figure 4.1-style row: normalized total plus category percentages. */
std::string breakdownRow(const std::string &label, const Summary &s,
                         double norm_exec_time);

/** Header matching breakdownRow. */
std::string breakdownHeader();

} // namespace flashsim::machine

#endif // FLASHSIM_MACHINE_REPORT_HH_
