/**
 * @file
 * The whole simulated multiprocessor: nodes, mesh, shared address space
 * with page placement, and the run loop.
 *
 * The run loop is also the one hang detector. The requesting node's
 * MSHRs are its record of every miss in flight (Section 3.2), so every
 * kWatchdogInterval cycles the loop reads each cache's MSHRs and its
 * retired-miss count and stops the run with fatal() when
 *
 *  - one miss is older than kMaxTransactionAge (a wedged or starved
 *    request: deadlock, or NACKs that never let one requester win), or
 *
 *  - no miss has retired machine-wide for kNoProgressWindow while some
 *    are outstanding (NACK livelock: the machine is busy going nowhere).
 *
 * drain() also stops if the event queue empties while a miss is still
 * outstanding (its reply was lost). The check only reads state, so it
 * never moves a simulated result, and it runs with or without
 * verification.
 *
 * The machine also owns the verification layer (src/verify): one trace
 * ring per node, which that node's MAGIC fills on every run, plus the
 * coherence oracle (cfg.verify.check) and the fault injector (some
 * cfg.verify.fault class nonzero) when asked for. Every machine
 * registers one post-mortem dumper, replayed by any fatal()/panic() on
 * its thread: each processor's local time, the oldest outstanding
 * misses, the oracle's violation log, the injector's counters and
 * every node's recent activity.
 */

#ifndef FLASHSIM_MACHINE_MACHINE_HH_
#define FLASHSIM_MACHINE_MACHINE_HH_

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "machine/config.hh"
#include "machine/node.hh"
#include "network/mesh.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"
#include "sim/event_queue.hh"
#include "tango/runtime.hh"
#include "tango/sync_phase.hh"
#include "tango/task.hh"
#include "verify/fault.hh"
#include "verify/oracle.hh"
#include "verify/trace.hh"

namespace flashsim::machine
{

// Hang limits: far above any legitimate miss (the oldest seen over the
// tests and the paper driver took about 22000 cycles) but low enough
// to stop a hung run quickly.
inline constexpr Cycles kWatchdogInterval = 20000;  ///< check interval
inline constexpr Cycles kMaxTransactionAge = 400000; ///< per-miss age
inline constexpr Cycles kNoProgressWindow = 200000; ///< machine-wide

/** Workload body run on every processor. */
using Workload = std::function<tango::Task(tango::Env &)>;

class Machine : public protocol::AddressMap
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine() override;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // -- Address space ------------------------------------------------------
    /** Allocate @p bytes homed on @p node; returns a line-aligned base. */
    Addr alloc(std::uint64_t bytes, NodeId node);
    /** Allocate with the configured placement policy. */
    Addr allocAuto(std::uint64_t bytes);
    NodeId homeOf(Addr addr) const override;

    /** Allocate the lines of a barrier (placed on node 0, the classic
     *  hot spot) and size it for all processors. */
    tango::BarrierVar makeBarrier();
    /** Allocate a lock line homed on @p node. */
    tango::LockVar makeLock(NodeId node = 0);

    /** Index of @p addr's page in allocation order (the key space of
     *  MachineConfig::placementHook). */
    std::uint64_t pageIndexOf(Addr addr) const override;

    /**
     * Sum the MAGIC page-monitoring counters machine-wide (requires
     * cfg.magic.monitorPages): remote requests per page, indexed by
     * page index, up to the highest page any node counted; a page with
     * no remote traffic reads 0. Feed this into a placementHook on a
     * fresh machine to implement the paper's Section 4.4 page
     * remapping.
     */
    std::vector<Counter> pageHeat() const;

    // -- Execution ------------------------------------------------------------
    /**
     * Run @p workload on every processor to completion.
     * @return machine execution time in cycles (max processor finish).
     */
    Tick run(const Workload &workload);

    /** Drain remaining protocol events (trailing writebacks, acks);
     *  fatal() if a miss is still outstanding once none are left. */
    void drain();

    /**
     * Bit-exact fingerprint of the final architectural state: every
     * allocated line's directory header and sharer list at its home,
     * plus each node's cache state for it. Two drained runs that agree
     * here reached the same caches and directory bit for bit (the golden
     * run records pin it). Call after drain().
     */
    std::uint64_t stateDigest() const;

    // -- Access ----------------------------------------------------------------
    EventQueue &eq() { return eq_; }
    /** Always 1 (one machine, one thread); perfbench's stamp reports it. */
    int shards() const { return 1; }
    int numProcs() const { return cfg_.numProcs; }
    Node &node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
    const Node &node(int i) const
    {
        return *nodes_[static_cast<std::size_t>(i)];
    }
    network::MeshNetwork &network() { return *net_; }
    const network::MeshNetwork &network() const { return *net_; }
    const MachineConfig &config() const { return cfg_; }
    const protocol::HandlerPrograms &programs() const { return *programs_; }
    Tick executionTime() const { return execTime_; }

    /** The coherence oracle, or null unless cfg.verify.check. */
    const verify::CoherenceOracle *oracle() const { return oracle_.get(); }
    /** The fault injector, or null unless some cfg.verify.fault class
     *  is nonzero (a seed alone builds none). */
    const verify::FaultInjector *injector() const { return injector_.get(); }

    /** The post-mortem: each processor's local time, outstanding
     *  misses, oracle violations, injector counters and every node's
     *  trace ring, headed by @p reason. */
    void writePostMortem(std::ostream &os, const char *reason) const;

    /** Test-only: see magic::HandlerMutator. Empty in normal use. */
    magic::HandlerMutator testMutator;

  private:
    /** Run ticks (each tick's events, then its sync phase) until
     *  @p done() holds; false if nothing was left to run first. */
    template <typename Done> bool tickUntil(Done done);
    /** The hang check: fatal() on a wedged miss or lost progress. */
    void checkProgress();
    /** The outstanding misses, oldest first, for the post-mortem. */
    void writeMisses(std::ostream &os) const;
    /** The oracle's violation policy: fatal() under haltOnViolation,
     *  else warn() and dump one post-mortem at the first. */
    void onViolation(const verify::Violation &v);

    MachineConfig cfg_;
    EventQueue eq_;
    /** Deferred tango lock/barrier operations (see tango/sync_phase.hh). */
    tango::SyncPhase sync_;
    /** Shared, immutable, already-lowered program set (process-wide cache:
     *  see protocol::sharedHandlerPrograms). */
    std::shared_ptr<const protocol::HandlerPrograms> programs_;
    std::unique_ptr<network::MeshNetwork> net_;
    std::vector<std::unique_ptr<Node>> nodes_;
    /** One per node, allocated together: see Magic::attachTrace. */
    std::vector<verify::TraceRing> rings_;
    std::unique_ptr<verify::FaultInjector> injector_;
    std::unique_ptr<verify::CoherenceOracle> oracle_;

    /** Page table: page index -> home node. */
    std::vector<NodeId> pageHome_;
    Addr next_;
    std::uint64_t rrCounter_ = 0;
    std::uint64_t firstFitAllocated_ = 0;
    Tick execTime_ = 0;

    Tick nextCheck_ = 0;
    /** Last check that saw a miss retire or none outstanding. */
    Tick lastProgress_ = 0;
    Counter lastRetired_ = 0;
    int postMortemToken_ = -1;
};

} // namespace flashsim::machine

#endif // FLASHSIM_MACHINE_MACHINE_HH_
