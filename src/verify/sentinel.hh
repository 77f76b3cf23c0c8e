/**
 * @file
 * The coherence sentinel: composition root of the verification layer.
 *
 * One Sentinel per Machine owns the two cooperating pieces —
 * CoherenceOracle (golden shadow state, invariant checks) and
 * FaultInjector (seeded perturbations) — plus the per-node trace rings
 * they dump from. The hardware models only ever talk to the Sentinel
 * through narrow hooks (observeHandler, injector()); policy (dump
 * post-mortems, halt or record) lives entirely here. Hang detection is
 * not part of it: the machine checks the caches' own MSHRs on every
 * run (machine::Machine).
 *
 * The Sentinel registers itself with the logging layer's thread-local
 * post-mortem registry, so any fatal()/panic() on the machine's thread
 * replays the trace rings before dying.
 */

#ifndef FLASHSIM_VERIFY_SENTINEL_HH_
#define FLASHSIM_VERIFY_SENTINEL_HH_

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "verify/fault.hh"
#include "verify/oracle.hh"
#include "verify/params.hh"
#include "verify/trace.hh"

namespace flashsim::verify
{

class Sentinel
{
  public:
    Sentinel(EventQueue &eq, const VerifyParams &params, int num_nodes);
    ~Sentinel();

    Sentinel(const Sentinel &) = delete;
    Sentinel &operator=(const Sentinel &) = delete;

    /** Construct the oracle (under check) over the live machine. Called
     *  by machine::Machine once all nodes exist. */
    void wireOracle(CoherenceOracle::Wiring wiring);

    // -- Hooks from the hardware models -------------------------------------

    /** A protocol handler completed (all its cache operations applied).
     *  Records the trace entry and runs the oracle transition+checks. */
    void observeHandler(NodeId node, bool at_home, Tick now,
                        const protocol::Message &msg,
                        const protocol::HandlerResult &res);

    /** An injector action happened at @p node (trace only). */
    void recordInjected(NodeId node, Tick now, const protocol::Message &msg,
                        TraceEntry::Kind kind);

    /** The fault injector, or null when every fault class is zero. */
    FaultInjector *injector() { return injector_.get(); }
    const FaultInjector *injector() const { return injector_.get(); }

    /**
     * Test-only hook: runs after a handler's directory transition and
     * before the oracle check, free to corrupt machine state (e.g. via
     * a captured DirectoryStore) so tests can prove the oracle catches
     * a broken handler. Null in normal operation.
     */
    std::function<void(NodeId node, const protocol::Message &msg,
                       protocol::HandlerResult &res)>
        testMutator;

    // -- Whole-run checks and reporting -------------------------------------

    /** Oracle whole-machine check on a quiesced machine. */
    void finalCheck();

    Counter violations() const
    {
        return oracle_ ? oracle_->violations() : 0;
    }
    bool dumped() const { return dumped_; }

    const CoherenceOracle *oracle() const { return oracle_.get(); }

    /** One-line component summary for the CLI. */
    void writeSummary(std::ostream &os) const;

    /** Full post-mortem: oracle violations, injector counters,
     *  per-node trace rings. */
    void writePostMortem(std::ostream &os, const char *reason) const;

  private:
    void onViolation(const Violation &v);

    EventQueue &eq_;
    VerifyParams params_;

    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<CoherenceOracle> oracle_;
    std::vector<TraceRing> rings_;

    bool dumped_ = false;
    /** The header reason of the registered post-mortem. */
    const char *dumpReason_ = "fatal";
    int postMortemToken_ = -1;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_SENTINEL_HH_
