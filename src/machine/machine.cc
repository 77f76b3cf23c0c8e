#include "machine/machine.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace flashsim::machine
{

namespace
{
/** Base of the application address space (must stay clear of the
 *  protocol-data regions at 1<<44 and above); page-aligned, so
 *  pageIndexOf numbers whole pages from 0. */
constexpr Addr kAppBase = Addr{1} << 20;
static_assert(kAppBase % kPageBytes == 0);

/** The machine's outstanding misses at one instant. */
struct MissCensus
{
    int outstanding = 0;
    Counter retired = 0;
    NodeId oldestNode = 0;
    const cpu::Cache::Mshr *oldest = nullptr;
};

MissCensus
census(const std::vector<std::unique_ptr<Node>> &nodes)
{
    MissCensus c;
    for (const auto &n : nodes) {
        c.retired += n->cache().retiredMisses();
        for (const cpu::Cache::Mshr &m : n->cache().mshrs()) {
            if (!m.valid)
                continue;
            ++c.outstanding;
            if (c.oldest == nullptr || m.issued < c.oldest->issued) {
                c.oldest = &m;
                c.oldestNode = n->id();
            }
        }
    }
    return c;
}

/** The oldest miss of @p c (which has one), for a fatal() message. */
std::string
describeOldest(const MissCensus &c, Tick now)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "node %u line 0x%llx outstanding for %llu cycles "
                  "(limit %llu) after %u NACKs",
                  c.oldestNode,
                  static_cast<unsigned long long>(c.oldest->line),
                  static_cast<unsigned long long>(now - c.oldest->issued),
                  static_cast<unsigned long long>(kMaxTransactionAge),
                  c.oldest->nackCount);
    return buf;
}
} // namespace

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), sync_(cfg.numProcs),
      programs_(protocol::sharedHandlerPrograms(cfg.ppCompile)),
      next_(kAppBase)
{
    net_ = std::make_unique<network::MeshNetwork>(eq_, cfg_.numProcs,
                                                  cfg_.net);
    nodes_.reserve(static_cast<std::size_t>(cfg_.numProcs));
    for (int i = 0; i < cfg_.numProcs; ++i) {
        nodes_.push_back(std::make_unique<Node>(
            eq_, static_cast<NodeId>(i), cfg_, *this, *programs_,
            *net_));
        // Route every shared host-state access in the tango sync
        // primitives through the per-tick sync phase.
        nodes_.back()->env().syncPhase = &sync_;
    }

    setLogTickSource([this] { return eq_.now(); });
    postMortemToken_ = registerPostMortem(
        [this](std::ostream &os) { writePostMortem(os, "fatal"); });

    rings_.resize(static_cast<std::size_t>(cfg_.numProcs));
    if (cfg_.verify.fault.any()) {
        injector_ = std::make_unique<verify::FaultInjector>(cfg_.verify.fault,
                                                            cfg_.numProcs);
        // Jitter draws come from the sending node's stream. Installed
        // whenever the injector is on — not only when the jitter class
        // is nonzero — so every send consumes exactly one draw and
        // turning on another class (NACKs, hint fates) can never shift
        // the per-node stream positions.
        net_->setPerturb([inj = injector_.get()](const protocol::Message &m) {
            return inj->meshJitter(m.src);
        });
    }
    if (cfg_.verify.check) {
        verify::CoherenceOracle::Wiring w;
        w.numNodes = cfg_.numProcs;
        w.homeOf = [this](Addr a) { return homeOf(a); };
        w.header = [this](NodeId home, Addr line) {
            return nodes_[home]->magic().directory().header(line);
        };
        w.sharers = [this](NodeId home, Addr line) {
            return nodes_[home]->magic().directory().sharers(line);
        };
        w.cacheState = [this](NodeId n, Addr line) {
            switch (nodes_[n]->cache().state(line)) {
              case cpu::Cache::State::Invalid: return 0;
              case cpu::Cache::State::Shared: return 1;
              case cpu::Cache::State::Exclusive: return 2;
            }
            return 0;
        };
        oracle_ = std::make_unique<verify::CoherenceOracle>(
            std::move(w), injector_ && injector_->perturbsHints());
        oracle_->onViolation = [this](const verify::Violation &v) {
            onViolation(v);
        };
    }
    for (auto &n : nodes_)
        n->magic().attachTrace(rings_[n->id()], oracle_.get(),
                               injector_.get(), testMutator);
}

Machine::~Machine()
{
    unregisterPostMortem(postMortemToken_);
    setLogTickSource({});
}

Addr
Machine::alloc(std::uint64_t bytes, NodeId node)
{
    if (node >= static_cast<NodeId>(cfg_.numProcs))
        fatal("Machine::alloc: node %u out of range", node);
    // Under the Section 4.3 hot-spot policies the physical allocator
    // ignores NUMA placement hints: first-fit is the original
    // bus-oriented IRIX port, Node0 the all-memory-on-one-node FFT
    // experiment. Round-robin (the tuned kernel) honors explicit hints.
    if (cfg_.placement == Placement::Node0 ||
        cfg_.placement == Placement::FirstFit || cfg_.placementHook)
        return allocAuto(bytes);
    Addr start = next_;
    std::uint64_t pages = (bytes + kPageBytes - 1) >> kPageShift;
    if (pages == 0)
        pages = 1;
    for (std::uint64_t p = 0; p < pages; ++p)
        pageHome_.push_back(node);
    next_ += pages * kPageBytes;
    return start;
}

Addr
Machine::allocAuto(std::uint64_t bytes)
{
    Addr start = next_;
    std::uint64_t pages = (bytes + kPageBytes - 1) >> kPageShift;
    if (pages == 0)
        pages = 1;
    for (std::uint64_t p = 0; p < pages; ++p) {
        if (cfg_.placementHook) {
            pageHome_.push_back(cfg_.placementHook(pageHome_.size()) %
                                static_cast<NodeId>(cfg_.numProcs));
            continue;
        }
        NodeId home = 0;
        switch (cfg_.placement) {
          case Placement::RoundRobinPages:
            home = static_cast<NodeId>(rrCounter_++ %
                                       static_cast<std::uint64_t>(
                                           cfg_.numProcs));
            break;
          case Placement::Node0:
            home = 0;
            break;
          case Placement::FirstFit:
            home = static_cast<NodeId>(
                (firstFitAllocated_ / kFirstFitNodeBytes) %
                static_cast<std::uint64_t>(cfg_.numProcs));
            firstFitAllocated_ += kPageBytes;
            break;
        }
        pageHome_.push_back(home);
    }
    next_ += pages * kPageBytes;
    return start;
}

NodeId
Machine::homeOf(Addr addr) const
{
    if (addr < kAppBase)
        panic("homeOf: address 0x%llx below app base",
              static_cast<unsigned long long>(addr));
    const std::uint64_t page = (addr - kAppBase) >> kPageShift;
    if (page >= pageHome_.size())
        panic("homeOf: address 0x%llx was never allocated",
              static_cast<unsigned long long>(addr));
    return pageHome_[page];
}

tango::BarrierVar
Machine::makeBarrier()
{
    tango::BarrierVar b;
    b.parties = cfg_.numProcs;
    int ngroups = (cfg_.numProcs + tango::BarrierVar::kArity - 1) /
                  tango::BarrierVar::kArity;
    for (int g = 0; g < ngroups; ++g) {
        tango::BarrierVar::Group grp;
        // Each group's lines live on one of its members' nodes.
        NodeId home = static_cast<NodeId>(
            (g * tango::BarrierVar::kArity) % cfg_.numProcs);
        grp.countAddr = alloc(kLineSize, home);
        grp.flagAddr = alloc(kLineSize, home);
        grp.size = std::min(tango::BarrierVar::kArity,
                            cfg_.numProcs -
                                g * tango::BarrierVar::kArity);
        b.groups.push_back(grp);
    }
    b.rootCountAddr = alloc(kLineSize, 0);
    return b;
}

tango::LockVar
Machine::makeLock(NodeId node)
{
    tango::LockVar l;
    l.addr = alloc(kLineSize, node);
    return l;
}

std::uint64_t
Machine::pageIndexOf(Addr addr) const
{
    return (addr - kAppBase) >> kPageShift;
}

std::vector<Counter>
Machine::pageHeat() const
{
    std::vector<Counter> heat;
    for (const auto &n : nodes_) {
        const std::vector<Counter> &pages = n->magic().pageRemoteAccesses;
        if (pages.size() > heat.size())
            heat.resize(pages.size());
        for (std::size_t p = 0; p < pages.size(); ++p)
            heat[p] += pages[p];
    }
    return heat;
}

template <typename Done>
bool
Machine::tickUntil(Done done)
{
    // Tick by tick: the tick's events (mesh deliveries first), then its
    // sync phase, with the hang check every kWatchdogInterval cycles.
    while (!done()) {
        const Tick tq = eq_.nextTick();
        const Tick u = std::min(tq, sync_.minPending());
        if (u == EventQueue::kNever)
            return false;
        if (u >= nextCheck_) {
            checkProgress();
            nextCheck_ = u + kWatchdogInterval;
        }
        if (tq == u)
            eq_.drainTick(u);
        if (sync_.minPending() == u)
            sync_.run(u, eq_);
    }
    return true;
}

void
Machine::checkProgress()
{
    const Tick now = eq_.now();
    const MissCensus c = census(nodes_);
    if (c.outstanding == 0 || c.retired != lastRetired_) {
        lastRetired_ = c.retired;
        lastProgress_ = now;
    }
    if (c.oldest == nullptr)
        return;
    if (now - c.oldest->issued > kMaxTransactionAge)
        fatal("Machine: wedged or starved miss: %s",
              describeOldest(c, now).c_str());
    if (now - lastProgress_ > kNoProgressWindow)
        fatal("Machine: no miss retired for %llu cycles (limit %llu) "
              "with %d outstanding, NACK livelock or deadlock; oldest: %s",
              static_cast<unsigned long long>(now - lastProgress_),
              static_cast<unsigned long long>(kNoProgressWindow),
              c.outstanding, describeOldest(c, now).c_str());
}

void
Machine::writeMisses(std::ostream &os) const
{
    const Tick now = eq_.now();
    struct Row
    {
        NodeId node;
        const cpu::Cache::Mshr *m;
    };
    std::vector<Row> rows;
    Counter retired = 0;
    for (const auto &n : nodes_) {
        retired += n->cache().retiredMisses();
        for (const cpu::Cache::Mshr &m : n->cache().mshrs())
            if (m.valid)
                rows.push_back({n->id(), &m});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.m->issued != b.m->issued)
            return a.m->issued < b.m->issued;
        return a.node < b.node;
    });
    os << "outstanding misses: " << rows.size() << ", " << retired
       << " retired, last progress at t=" << lastProgress_ << " (now t="
       << now << ")\n";
    const std::size_t shown = std::min<std::size_t>(rows.size(), 16);
    for (std::size_t i = 0; i < shown; ++i)
        os << "  node " << rows[i].node << " line 0x" << std::hex
           << rows[i].m->line << std::dec << " age "
           << (now - rows[i].m->issued) << " nacks "
           << rows[i].m->nackCount << "\n";
    if (rows.size() > shown)
        os << "  ... and " << (rows.size() - shown) << " more\n";
}

void
Machine::onViolation(const verify::Violation &v)
{
    if (cfg_.verify.haltOnViolation) {
        // fatal() replays the post-mortem before aborting.
        fatal("coherence violation [%s] at t=%llu node %u line %#llx: %s",
              v.kind.c_str(), static_cast<unsigned long long>(v.tick),
              v.node, static_cast<unsigned long long>(v.addr),
              v.detail.c_str());
    }
    warn("coherence violation [%s] at t=%llu node %u line %#llx: %s",
         v.kind.c_str(), static_cast<unsigned long long>(v.tick), v.node,
         static_cast<unsigned long long>(v.addr), v.detail.c_str());
    if (oracle_->violations() == 1) {
        // One write, so a sweep worker's dump never interleaves with
        // another thread's output.
        std::ostringstream pm;
        writePostMortem(pm, "coherence violation");
        std::cerr << pm.str() << std::flush;
    }
}

void
Machine::writePostMortem(std::ostream &os, const char *reason) const
{
    os << "=== post-mortem (" << reason << ") t=" << eq_.now() << " ===\n";
    // A workload runs ahead of the event queue: its own time may be
    // later than the t= above.
    os << "processor local times:";
    for (const auto &n : nodes_) {
        os << (n->id() == 0 ? " node " : ", node ") << n->id();
        if (n->proc().finished())
            os << " finished";
        else
            os << " t=" << n->proc().cursor();
    }
    os << "\n";
    writeMisses(os);
    if (oracle_) {
        os << "oracle: " << oracle_->violations() << " violation(s), "
           << oracle_->trackedLines() << " line(s) tracked\n";
        for (const verify::Violation &v : oracle_->violationLog())
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
    os << "recent activity (oldest first, ring depth " << verify::kTraceDepth
       << "):\n";
    for (std::size_t n = 0; n < rings_.size(); ++n)
        rings_[n].dump(os, static_cast<NodeId>(n));
    os << "=== end post-mortem ===\n";
}

Tick
Machine::run(const Workload &workload)
{
    for (auto &n : nodes_)
        n->startWorkload(workload);

    // finished() is monotone, so it suffices to watch one unfinished
    // processor at a time: the scan resumes where it left off instead
    // of walking every node on every tick.
    std::size_t watch = 0;
    const bool finished = tickUntil([&] {
        while (watch < nodes_.size() && nodes_[watch]->proc().finished())
            ++watch;
        return watch == nodes_.size();
    });
    if (!finished) {
        // Nothing is scheduled, so no parked spin waiter can ever be
        // woken: without parking they would spin forever.
        int unfinished = 0, parked = 0;
        for (auto &n : nodes_) {
            unfinished += n->proc().finished() ? 0 : 1;
            parked += n->env().spinParked() ? 1 : 0;
        }
        fatal("Machine::run: deadlock — event queue empty with %d "
              "processors unfinished, %d of them parked in barrier or "
              "lock waits",
              unfinished, parked);
    }

    execTime_ = 0;
    for (auto &n : nodes_)
        execTime_ = std::max(execTime_, n->proc().finishTime());
    return execTime_;
}

void
Machine::drain()
{
    tickUntil([] { return false; });
    // Nothing is left to deliver, so a miss still outstanding lost its
    // reply.
    const MissCensus c = census(nodes_);
    if (c.oldest != nullptr)
        fatal("Machine::drain: event queue empty with %d miss(es) "
              "outstanding, a reply was lost; oldest: %s",
              c.outstanding, describeOldest(c, eq_.now()).c_str());
    // The machine is quiesced: every in-flight message has landed, so
    // the oracle can hold it to the strict (no transient windows)
    // whole-machine invariants.
    if (oracle_)
        oracle_->finalCheck(eq_.now());
}

std::uint64_t
Machine::stateDigest() const
{
    // FNV-1a over every allocated line's directory header + sharer
    // list at its home plus each node's cache state for that line: a
    // bit-exact fingerprint of the final architectural state, for the
    // golden run records.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (Addr line = kAppBase; line < next_; line += kLineSize) {
        const NodeId home = homeOf(line);
        const auto hdr = nodes_[home]->magic().directory().header(line);
        mix(hdr.pack());
        for (NodeId s : nodes_[home]->magic().directory().sharers(line))
            mix(s);
        for (const auto &n : nodes_)
            mix(static_cast<std::uint64_t>(n->cache().state(line)));
    }
    return h;
}

} // namespace flashsim::machine
