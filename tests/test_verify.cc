/**
 * @file
 * Verification-layer tests: the coherence oracle must stay silent on
 * correct runs and catch deliberately broken handlers (with a
 * post-mortem dump); the machine's hang check must stop a run whose
 * miss lost its reply, with or without the oracle; fault injection must be
 * seeded-deterministic and never provoke a real violation; fatal()
 * must report tick/node context and replay post-mortem dumpers.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "machine/machine.hh"
#include "sim/logging.hh"
#include "verify/oracle.hh"

namespace flashsim::machine
{
namespace
{

using protocol::HandlerId;
using protocol::HandlerResult;
using protocol::Message;

/** Verification-on config: record-only violations so tests can assert
 *  on the counters instead of dying. */
MachineConfig
verifyConfig(int procs)
{
    MachineConfig cfg = MachineConfig::flash(procs);
    cfg.verify.check = true;
    cfg.verify.haltOnViolation = false;
    return cfg;
}

/** Record-mode post-mortems in @p err (captured stderr). */
int
postMortems(const std::string &err)
{
    const std::string header = "=== post-mortem (coherence violation)";
    int n = 0;
    for (std::size_t at = err.find(header); at != std::string::npos;
         at = err.find(header, at + 1))
        ++n;
    return n;
}

/** All nodes hammer a 64-line region spread across every node's memory
 *  with a deterministic mixed read/write pattern: plenty of sharing,
 *  invalidations, 3-hop transfers and (with small caches) evictions. */
void
runContention(Machine &m, Addr base, int iters = 4)
{
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int it = 0; it < iters; ++it) {
            for (int i = 0; i < 64; ++i) {
                Addr a = base +
                         static_cast<Addr>((i * 7 + env.id() * 13) % 64) *
                             kLineSize;
                if ((i + it + env.id()) % 3 == 0)
                    co_await env.write(a);
                else
                    co_await env.read(a);
            }
        }
    });
    m.drain();
}

/** Allocate one page of lines on each node so the contention pattern
 *  crosses every home. */
Addr
allocSpread(Machine &m)
{
    Addr base = m.alloc(16 * kLineSize, 0);
    for (int n = 1; n < m.numProcs(); ++n)
        m.alloc(16 * kLineSize, static_cast<NodeId>(n % m.numProcs()));
    return base;
}

// ---------------------------------------------------------------------------
// Oracle: silent on correct protocol execution.

TEST(OracleTest, CleanRunHasNoViolations)
{
    MachineConfig cfg = verifyConfig(4);
    Machine m(cfg);
    Addr base = allocSpread(m);
    testing::internal::CaptureStderr();
    runContention(m, base);
    const std::string err = testing::internal::GetCapturedStderr();

    ASSERT_NE(m.oracle(), nullptr);
    EXPECT_EQ(m.oracle()->violations(), 0u);
    EXPECT_EQ(err.find("post-mortem"), std::string::npos);
    EXPECT_GT(m.oracle()->trackedLines(), 0u);
    Counter retired = 0;
    for (int n = 0; n < m.numProcs(); ++n) {
        retired += m.node(n).cache().retiredMisses();
        EXPECT_TRUE(m.node(n).cache().quiet());
    }
    EXPECT_GT(retired, 0u);
}

// One switch: verify.check turns on the coherence oracle and, with it,
// every node's PP engine check; without it neither runs.
TEST(OracleTest, VerifyChecksEveryPpEngine)
{
    for (bool check : {false, true}) {
        MachineConfig cfg = MachineConfig::flash(4);
        cfg.verify.check = check;
        Machine m(cfg);
        EXPECT_EQ(m.oracle() != nullptr, check);
        for (int n = 0; n < m.numProcs(); ++n) {
            const magic::PpTimingModel *pp = m.node(n).magic().ppModel();
            ASSERT_NE(pp, nullptr);
            EXPECT_EQ(pp->engineChecked(), check) << "node " << n;
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle: a deliberately broken handler is caught at the handler that
// introduced the bug, and a post-mortem dump is produced.

TEST(OracleTest, CatchesDroppedSharerInBrokenHandler)
{
    MachineConfig cfg = verifyConfig(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0); // homed at node 0

    // The "broken handler": ServeReadMemory adds the requester to the
    // sharer list, and this mutator immediately undoes it — the classic
    // forgotten-addSharer bug.
    bool corrupted = false;
    m.testMutator = [&](NodeId node, const Message &msg,
                        HandlerResult &res) {
        if (corrupted || res.id != HandlerId::ServeReadMemory)
            return;
        corrupted = true;
        m.node(node).magic().directory().removeSharer(msg.addr,
                                                      msg.requester);
    };

    testing::internal::CaptureStderr();
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1)
            co_await env.read(a);
    });
    m.drain();
    const std::string err = testing::internal::GetCapturedStderr();

    ASSERT_TRUE(corrupted);
    ASSERT_GE(m.oracle()->violations(), 1u);
    const auto &log = m.oracle()->violationLog();
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log[0].kind, "dir-mismatch");
    EXPECT_EQ(log[0].node, 0u);         // blamed at the home node
    EXPECT_EQ(log[0].addr, lineBase(a)); // and the corrupted line
    // Record-only policy still dumps a post-mortem (once).
    EXPECT_EQ(postMortems(err), 1);

    std::ostringstream pm;
    m.writePostMortem(pm, "test");
    EXPECT_NE(pm.str().find("dir-mismatch"), std::string::npos);
    EXPECT_NE(pm.str().find("recent activity"), std::string::npos);
    EXPECT_NE(pm.str().find("ServeReadMemory"), std::string::npos);
}

TEST(OracleTest, CatchesCorruptedOwnerInBrokenHandler)
{
    MachineConfig cfg = verifyConfig(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);

    // The "broken handler": ServeWriteMemory records the wrong owner —
    // the directory claims home owns the line while the requester's
    // cache goes Exclusive.
    bool corrupted = false;
    m.testMutator = [&](NodeId node, const Message &msg,
                        HandlerResult &res) {
        if (corrupted || res.id != HandlerId::ServeWriteMemory)
            return;
        corrupted = true;
        auto &dir = m.node(node).magic().directory();
        protocol::DirHeader h = dir.header(msg.addr);
        h.owner = static_cast<NodeId>(h.owner == 0 ? 1 : 0);
        dir.setHeader(msg.addr, h);
    };

    testing::internal::CaptureStderr();
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1)
            co_await env.write(a);
    });
    m.drain();
    const std::string err = testing::internal::GetCapturedStderr();

    ASSERT_TRUE(corrupted);
    ASSERT_GE(m.oracle()->violations(), 1u);
    EXPECT_EQ(m.oracle()->violationLog()[0].kind, "dir-mismatch");
    EXPECT_EQ(postMortems(err), 1);
}

// ---------------------------------------------------------------------------
// Oracle: a replacement hint crossing an invalidation on the mesh is a
// benign race (hints are imprecise by design), forgiven exactly once
// per invalidated sharer -- a second hint is still a violation.

TEST(OracleTest, HintCrossingInvalidationIsForgivenOnce)
{
    // A stub home directory (node 0) that each step below sets to what
    // the real handler leaves behind; no cache holds the line.
    protocol::DirHeader dir;
    std::vector<NodeId> sharers;
    verify::CoherenceOracle::Wiring w;
    w.numNodes = 4;
    w.homeOf = [](Addr) { return NodeId{0}; };
    w.header = [&dir](NodeId, Addr) { return dir; };
    w.sharers = [&sharers](NodeId, Addr) { return sharers; };
    w.cacheState = [](NodeId, Addr) { return 0; };
    verify::CoherenceOracle oracle(std::move(w),
                                   /*allow_hint_anomalies=*/false);

    const Addr line = 0x1000;
    auto feed = [&](HandlerId id, protocol::MsgType type, NodeId src) {
        Message msg;
        msg.type = type;
        msg.src = src;
        msg.requester = src;
        msg.addr = line;
        HandlerResult res;
        res.id = id;
        oracle.onHandler(/*node=*/0, /*at_home=*/true, /*now=*/0, msg, res);
    };

    // Node 1 reads: it becomes a golden sharer.
    sharers = {1};
    feed(HandlerId::ServeReadMemory, protocol::MsgType::NetGet, 1);
    // Node 2 writes: the sharer list is cleared and an inval races
    // toward node 1 -- whose eviction hint may already be in flight.
    sharers.clear();
    dir.dirty = true;
    dir.owner = 2;
    feed(HandlerId::ServeWriteMemory, protocol::MsgType::NetGetx, 2);
    EXPECT_EQ(oracle.violations(), 0u);

    // The in-flight hint lands after the exclusive grant: benign.
    feed(HandlerId::RemoteHintOnly, protocol::MsgType::NetReplaceHint, 1);
    EXPECT_EQ(oracle.violations(), 0u);

    // A second hint from the same node has no invalidation to blame.
    feed(HandlerId::RemoteHintOnly, protocol::MsgType::NetReplaceHint, 1);
    EXPECT_EQ(oracle.violations(), 1u);
    ASSERT_FALSE(oracle.violationLog().empty());
    EXPECT_EQ(oracle.violationLog().back().kind, "hint-underflow");
}

TEST(OracleTest, InvalOvertakingReadReplyIsForgivenOnce)
{
    // The home serves node 1's read, then grants node 2 exclusive. The
    // inval to node 1 carries no data and lands before the read reply,
    // which waited for memory; node 1's cache then fills and drops the
    // late reply. Same stub home directory as above.
    protocol::DirHeader dir;
    std::vector<NodeId> sharers;
    verify::CoherenceOracle::Wiring w;
    w.numNodes = 4;
    w.homeOf = [](Addr) { return NodeId{0}; };
    w.header = [&dir](NodeId, Addr) { return dir; };
    w.sharers = [&sharers](NodeId, Addr) { return sharers; };
    w.cacheState = [](NodeId, Addr) { return 0; };
    verify::CoherenceOracle oracle(std::move(w),
                                   /*allow_hint_anomalies=*/false);

    auto feed = [&](NodeId node, HandlerId id, protocol::MsgType type,
                    NodeId requester) {
        Message msg;
        msg.type = type;
        msg.src = node == 0 ? requester : NodeId{0};
        msg.requester = requester;
        msg.addr = 0x1000;
        HandlerResult res;
        res.id = id;
        oracle.onHandler(node, /*at_home=*/node == 0, /*now=*/0, msg, res);
    };

    sharers = {1};
    feed(0, HandlerId::ServeReadMemory, protocol::MsgType::NetGet, 1);
    sharers.clear();
    dir.dirty = true;
    dir.owner = 2;
    feed(0, HandlerId::ServeWriteMemory, protocol::MsgType::NetGetx, 2);
    feed(1, HandlerId::InvalReceive, protocol::MsgType::NetInval, 2);
    feed(1, HandlerId::ReplyToProc, protocol::MsgType::NetPut, 1);
    EXPECT_EQ(oracle.violations(), 0u);

    // A second read reply has no crossing inval to blame.
    feed(1, HandlerId::ReplyToProc, protocol::MsgType::NetPut, 1);
    EXPECT_EQ(oracle.violations(), 1u);
    ASSERT_FALSE(oracle.violationLog().empty());
    EXPECT_EQ(oracle.violationLog().back().kind, "put-not-sharer");
}

// ---------------------------------------------------------------------------
// Hang detection: the run loop reads every cache's MSHRs, with or
// without verification, and stops a run whose miss can never retire.
// Each test loses a reply to node 0 through the test mutator, on a
// machine with neither the oracle nor the injector.

/** Drop node 0's @p type replies, so its miss never fills. */
void
dropRepliesAtNode0(Machine &m, protocol::MsgType type)
{
    m.testMutator = [type](NodeId node, const Message &msg,
                           HandlerResult &res) {
        if (node == 0 && msg.type == type)
            res.out.clear();
    };
}

std::string
hex(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

TEST(HangDeathTest, LostWriteReplyIsFatalAtDrain)
{
    // The write does not block, so the processor finishes; only the
    // MSHR still waiting once the queue is empty shows the lost reply.
    Machine m(MachineConfig::flash(2));
    ASSERT_EQ(m.oracle(), nullptr);
    ASSERT_EQ(m.injector(), nullptr);
    const Addr a = m.alloc(kLineSize, 1);
    dropRepliesAtNode0(m, protocol::MsgType::NetPutx);
    EXPECT_DEATH(
        {
            m.run([a](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() == 0)
                    co_await env.write(a);
            });
            m.drain();
        },
        "Machine::drain: event queue empty with 1 miss\\(es\\) "
        "outstanding, a reply was lost; oldest: node 0 line " +
            hex(a) +
            " outstanding for [0-9]+ cycles \\(limit 400000\\) after 0 "
            "NACKs.*outstanding misses: 1, [0-9]+ retired.*node 0 line " +
            hex(a) + " age [0-9]+ nacks 0");
}

TEST(HangDeathTest, MissOlderThanTheAgeLimitIsFatal)
{
    // Node 0's read blocks forever while node 1 keeps retiring misses
    // (three lines cycling through a one-set cache) for longer than the
    // age limit, so the machine makes progress and only the age trips.
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.cache.sizeBytes = 2 * kLineSize;
    Machine m(cfg);
    const Addr a = m.alloc(kLineSize, 1);
    const Addr b = m.alloc(3 * kLineSize, 1);
    dropRepliesAtNode0(m, protocol::MsgType::NetPut);
    EXPECT_DEATH(
        {
            m.run([a, b](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() == 0) {
                    co_await env.read(a);
                    co_return;
                }
                for (int i = 0; i < 10000; ++i) {
                    co_await env.read(b + (i % 3) * kLineSize);
                    co_await env.busy(100);
                }
            });
        },
        "Machine: wedged or starved miss: node 0 line " + hex(a) +
            " outstanding for [0-9]+ cycles \\(limit 400000\\) after 0 "
            "NACKs");
}

TEST(HangDeathTest, NoRetiredMissForTheWindowIsFatal)
{
    // Node 1 computes and reads one line that stays resident, so events
    // keep firing while no miss retires: the progress window trips long
    // before the age limit.
    Machine m(MachineConfig::flash(2));
    const Addr a = m.alloc(kLineSize, 1);
    const Addr b = m.alloc(kLineSize, 1);
    dropRepliesAtNode0(m, protocol::MsgType::NetPut);
    EXPECT_DEATH(
        {
            m.run([a, b](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() == 0) {
                    co_await env.read(a);
                    co_return;
                }
                for (int i = 0; i < 1000; ++i) {
                    co_await env.busy(1000);
                    co_await env.read(b);
                }
            });
        },
        "Machine: no miss retired for [0-9]+ cycles \\(limit 200000\\) "
        "with 1 outstanding, NACK livelock or deadlock; oldest: node 0 "
        "line " +
            hex(a) + " outstanding for [0-9]+ cycles");
}

TEST(HangDeathTest, UnverifiedPostMortemListsOutstandingMisses)
{
    // Neither oracle nor injector: the machine's own dumper still lists
    // the write miss in flight when the run dies, and node 0's trace
    // ring shows the request it forwarded to the home.
    Machine m(MachineConfig::flash(2));
    ASSERT_EQ(m.oracle(), nullptr);
    ASSERT_EQ(m.injector(), nullptr);
    const Addr a = m.alloc(kLineSize, 1);
    // The processor runs ahead of the event queue, so the run dies from
    // an event: after node 0's MAGIC forwarded the write, before the
    // reply lands.
    m.eq().scheduleAt(40, [] { fatal("stop with the write in flight"); });
    EXPECT_DEATH(
        {
            m.run([a](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() == 0)
                    co_await env.write(a);
            });
            m.drain();
        },
        "stop with the write in flight.*outstanding misses: 1, 0 "
        "retired.*node 0 line " +
            hex(a) +
            " age [0-9]+ nacks 0.*recent activity.*\\[node 0 t=[0-9]+\\] "
            "PiGetx -> FwdToHome src=0 req=0 addr=" +
            hex(a));
}

TEST(HangDeathTest, PostMortemListsProcessorLocalTimes)
{
    // Workload code runs ahead of the event queue: its fatal() fires
    // inside the t=0 event that issued the write, while node 0's own
    // clock already stands at t=5, past the busy(20). The post-mortem
    // gives both; node 1 has returned.
    Machine m(MachineConfig::flash(2));
    const Addr a = m.alloc(kLineSize, 1);
    EXPECT_DEATH(
        {
            m.run([a](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() != 0)
                    co_return;
                co_await env.write(a);
                co_await env.busy(20);
                fatal("stop from the workload");
            });
        },
        "fatal: \\[t=0\\] stop from the workload.*=== post-mortem "
        "\\(fatal\\) t=0 ===.processor local times: node 0 t=5, node 1 "
        "finished.outstanding misses: 1, 0 retired.*node 0 line " +
            hex(a));
}

// ---------------------------------------------------------------------------
// Fault injection: perturbed runs stay coherent and replay
// bit-identically for the same (seed, config).

MachineConfig
injectionConfig(int procs, std::uint64_t seed)
{
    MachineConfig cfg = verifyConfig(procs);
    cfg.cache.sizeBytes = 4096; // force evictions: hint traffic
    cfg.verify.fault.seed = seed;
    cfg.verify.fault.meshJitter = 12;
    cfg.verify.fault.extraNackProb = 0.15;
    cfg.verify.fault.dropHintProb = 0.1;
    cfg.verify.fault.dupHintProb = 0.1;
    cfg.verify.fault.inboundStall = 6;
    return cfg;
}

struct InjectionDigest
{
    Tick execTime = 0;
    Counter violations = 0;
    Counter nacks = 0;
    Counter dropped = 0;
    Counter duped = 0;
    Counter jitter = 0;
    Counter stall = 0;
};

InjectionDigest
runInjected(const MachineConfig &cfg)
{
    Machine m(cfg);
    Addr base = allocSpread(m);
    runContention(m, base);
    InjectionDigest d;
    d.execTime = m.executionTime();
    d.violations = m.oracle()->violations();
    const verify::FaultInjector *inj = m.injector();
    d.nacks = inj->nacksInjected();
    d.dropped = inj->hintsDropped();
    d.duped = inj->hintsDuped();
    d.jitter = inj->jitterCycles();
    d.stall = inj->stallCycles();
    return d;
}

TEST(InjectionTest, PerturbedRunStaysCoherent)
{
    InjectionDigest d = runInjected(injectionConfig(4, 7));
    EXPECT_EQ(d.violations, 0u);
    // The perturbations actually happened.
    EXPECT_GT(d.nacks, 0u);
    EXPECT_GT(d.jitter, 0u);
    EXPECT_GT(d.stall, 0u);
    EXPECT_GT(d.dropped + d.duped, 0u);
}

TEST(InjectionTest, SameSeedReplaysBitIdentically)
{
    InjectionDigest a = runInjected(injectionConfig(4, 11));
    InjectionDigest b = runInjected(injectionConfig(4, 11));
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.nacks, b.nacks);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.duped, b.duped);
    EXPECT_EQ(a.jitter, b.jitter);
    EXPECT_EQ(a.stall, b.stall);
}

TEST(InjectionTest, DifferentSeedsPerturbDifferently)
{
    InjectionDigest a = runInjected(injectionConfig(4, 1));
    InjectionDigest b = runInjected(injectionConfig(4, 2));
    // Identical work, different perturbation schedule: at least the
    // accumulated jitter must differ (probability of collision over
    // thousands of draws is negligible).
    EXPECT_NE(a.jitter, b.jitter);
}

// ---------------------------------------------------------------------------
// fatal() context and post-mortem plumbing.

TEST(FatalContextDeathTest, ReportsTickAndNode)
{
    EXPECT_DEATH(
        {
            setLogTickSource([] { return Tick{42}; });
            setLogNode(3);
            fatal("boom %d", 7);
        },
        "fatal: \\[t=42 node=3\\] boom 7");
}

TEST(FatalContextDeathTest, RunsPostMortemDumpersBeforeAbort)
{
    EXPECT_DEATH(
        {
            registerPostMortem([](std::ostream &os) {
                os << "RING-DUMP-MARKER\n";
            });
            fatal("dying");
        },
        "RING-DUMP-MARKER");
}

TEST(FatalContextDeathTest, HaltOnViolationDiesWithPostMortem)
{
    // End-to-end: a broken handler under the halt policy dies via
    // fatal(), whose output carries the violation and the trace dump.
    EXPECT_DEATH(
        {
            MachineConfig cfg = verifyConfig(2);
            cfg.verify.haltOnViolation = true;
            Machine m(cfg);
            Addr a = m.alloc(kLineSize, 0);
            m.testMutator = [&](NodeId node, const Message &msg,
                                HandlerResult &res) {
                if (res.id != HandlerId::ServeReadMemory)
                    return;
                m.node(node).magic().directory().removeSharer(
                    msg.addr, msg.requester);
            };
            m.run([=](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() == 1)
                    co_await env.read(a);
            });
        },
        "coherence violation \\[dir-mismatch\\].*");
}

} // namespace
} // namespace flashsim::machine
