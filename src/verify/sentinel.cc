#include "verify/sentinel.hh"

#include <iostream>

#include "sim/logging.hh"

namespace flashsim::verify
{

Sentinel::Sentinel(EventQueue &eq, const VerifyParams &params,
                   int num_nodes)
    : eq_(eq), params_(params), rings_(static_cast<std::size_t>(num_nodes))
{
    if (params_.fault.any())
        injector_ = std::make_unique<FaultInjector>(params_.fault, num_nodes);

    postMortemToken_ = registerPostMortem(
        [this](std::ostream &os) { writePostMortem(os, dumpReason_); });
}

Sentinel::~Sentinel()
{
    if (postMortemToken_ >= 0)
        unregisterPostMortem(postMortemToken_);
}

void
Sentinel::wireOracle(CoherenceOracle::Wiring wiring)
{
    if (!params_.check)
        return;
    oracle_ = std::make_unique<CoherenceOracle>(
        std::move(wiring), injector_ && injector_->perturbsHints());
    oracle_->onViolation = [this](const Violation &v) { onViolation(v); };
}

void
Sentinel::observeHandler(NodeId node, bool at_home, Tick now,
                         const protocol::Message &msg,
                         const protocol::HandlerResult &res)
{
    TraceEntry e;
    e.tick = now;
    e.kind = TraceEntry::Kind::Handler;
    e.type = msg.type;
    e.handler = res.id;
    e.src = msg.src;
    e.requester = msg.requester;
    e.addr = msg.addr;
    e.aux = msg.aux;
    rings_[node].record(e);

    if (oracle_)
        oracle_->onHandler(node, at_home, now, msg, res);
}

void
Sentinel::recordInjected(NodeId node, Tick now, const protocol::Message &msg,
                         TraceEntry::Kind kind)
{
    TraceEntry e;
    e.tick = now;
    e.kind = kind;
    e.type = msg.type;
    e.src = msg.src;
    e.requester = msg.requester;
    e.addr = msg.addr;
    e.aux = msg.aux;
    rings_[node].record(e);
}

void
Sentinel::finalCheck()
{
    if (oracle_)
        oracle_->finalCheck(eq_.now());
}

void
Sentinel::onViolation(const Violation &v)
{
    if (params_.haltOnViolation) {
        // fatal() replays the registered post-mortems (outstanding
        // misses, trace rings) before aborting.
        fatal("coherence violation [%s] at t=%llu node %u line %#llx: %s",
              v.kind.c_str(), static_cast<unsigned long long>(v.tick),
              v.node, static_cast<unsigned long long>(v.addr),
              v.detail.c_str());
    }
    warn("coherence violation [%s] at t=%llu node %u line %#llx: %s",
         v.kind.c_str(), static_cast<unsigned long long>(v.tick), v.node,
         static_cast<unsigned long long>(v.addr), v.detail.c_str());
    if (dumped_)
        return;
    dumped_ = true;
    // Replay every dumper on this thread, as fatal() would, so the
    // machine's outstanding misses come with the trace rings.
    dumpReason_ = "coherence violation";
    runPostMortems(std::cerr);
    dumpReason_ = "fatal";
    std::cerr.flush();
}

void
Sentinel::writeSummary(std::ostream &os) const
{
    os << "sentinel:";
    if (oracle_)
        os << " oracle(" << oracle_->trackedLines() << " lines, "
           << oracle_->violations() << " violations)";
    if (injector_)
        os << " injector(seed " << injector_->params().seed << ": "
           << injector_->nacksInjected() << " nacks, "
           << injector_->hintsDropped() << " hints dropped, "
           << injector_->hintsDuped() << " duped, "
           << injector_->jitterCycles() << " jitter cyc, "
           << injector_->stallCycles() << " stall cyc)";
    os << "\n";
}

void
Sentinel::writePostMortem(std::ostream &os, const char *reason) const
{
    os << "=== sentinel post-mortem (" << reason << ") t=" << eq_.now()
       << " ===\n";
    if (oracle_) {
        os << "oracle: " << oracle_->violations() << " violation(s), "
           << oracle_->trackedLines() << " line(s) tracked\n";
        for (const Violation &v : oracle_->violationLog())
            os << "  [" << v.kind << "] t=" << v.tick << " node " << v.node
               << " line 0x" << std::hex << v.addr << std::dec << ": "
               << v.detail << "\n";
    }
    if (injector_)
        os << "injector: seed " << injector_->params().seed << ", "
           << injector_->nacksInjected() << " nack(s) injected, "
           << injector_->hintsDropped() << " hint(s) dropped, "
           << injector_->hintsDuped() << " duplicated, "
           << injector_->jitterCycles() << " jitter cycle(s), "
           << injector_->stallCycles() << " stall cycle(s)\n";
    os << "recent activity (oldest first, ring depth " << kTraceDepth
       << "):\n";
    for (std::size_t n = 0; n < rings_.size(); ++n)
        rings_[n].dump(os, static_cast<NodeId>(n));
    os << "=== end post-mortem ===\n";
}

} // namespace flashsim::verify
