/**
 * @file
 * Recoverable-fault transport suite.
 *
 * The wire plane (lossy-mesh mode) must be *timing-invariant*: a run
 * with drops, duplicates and reorders injected into the wire shadow
 * recovers every loss through acked retransmission, and its final
 * caches, directory and statistics are bit-identical to the clean
 * same-seed run, with the oracle watching and zero watchdog trips. Transaction-level loss (requests killed at the
 * home NI) is the genuinely timing-perturbing fault class: those tests
 * assert recovery and coherence, not bit-identity, plus the graceful
 * degradation path when the retry budget runs out.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "machine/machine.hh"
#include "machine/report.hh"
#include "network/mesh.hh"
#include "sim/stats.hh"

namespace flashsim::machine
{
namespace
{

/** Verification-on, record-only config with the injector armed (seeded)
 *  but every knob at zero; wire/commit faults layer on top. */
MachineConfig
transportConfig(int procs, std::uint64_t seed)
{
    MachineConfig cfg = MachineConfig::flash(procs);
    cfg.magic.verify.oracle = true;
    cfg.magic.verify.watchdog = true;
    cfg.magic.verify.haltOnViolation = false;
    cfg.magic.verify.haltOnTrip = false;
    cfg.magic.verify.traceDepth = 8;
    cfg.magic.verify.fault.enabled = true;
    cfg.magic.verify.fault.seed = seed;
    return cfg;
}

void
addWireLoss(MachineConfig &cfg)
{
    cfg.magic.verify.fault.wireDropProb = 0.05;
    cfg.magic.verify.fault.wireDupProb = 0.03;
    cfg.magic.verify.fault.wireReorderProb = 0.03;
}

void
addCommitFaults(MachineConfig &cfg)
{
    cfg.magic.verify.fault.meshJitter = 12;
    cfg.magic.verify.fault.extraNackProb = 0.15;
    cfg.magic.verify.fault.dropHintProb = 0.1;
    cfg.magic.verify.fault.dupHintProb = 0.1;
    cfg.magic.verify.fault.inboundStall = 6;
}

/** All nodes hammer a shared region: sharing, invalidations, 3-hop
 *  transfers — enough cross-node traffic to exercise every lane. */
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

Addr
allocSpread(Machine &m)
{
    Addr base = m.alloc(16 * kLineSize, 0);
    for (int n = 1; n < m.numProcs(); ++n)
        m.alloc(16 * kLineSize, static_cast<NodeId>(n % m.numProcs()));
    return base;
}

/** Commit-plane fingerprint: final architectural state + every counter
 *  the protocol layer can see. Wire-plane counters are deliberately
 *  excluded — they differ between clean and lossy runs by design. */
struct CommitDigest
{
    std::uint64_t state = 0;
    Tick execTime = 0;
    std::string stats;

    bool
    operator==(const CommitDigest &o) const
    {
        return state == o.state && execTime == o.execTime &&
               stats == o.stats;
    }
};

CommitDigest
commitDigest(Machine &m)
{
    Summary s = summarize(m);
    CommitDigest d;
    d.state = m.stateDigest();
    d.execTime = m.executionTime();
    std::ostringstream os;
    os.precision(17);
    os << s.busy << '|' << s.read << '|' << s.write << '|' << s.sync
       << '|' << s.missRate << '|' << s.cacheReads << '|'
       << s.cacheWrites << '|' << s.readMisses << '|' << s.writeMisses
       << '|' << s.handlerInvocations << '|' << s.nacksSent << '|'
       << m.network().messages() << '|' << m.network().dataMessages()
       << '|';
    if (const verify::Sentinel *sent = m.sentinel())
        os << sent->violations() << '|' << sent->trips() << '|'
           << sent->injectorStats().nacksInjected() << '|'
           << sent->injectorStats().hintsDropped() << '|'
           << sent->injectorStats().hintsDuped() << '|'
           << sent->injectorStats().jitterCycles() << '|'
           << sent->injectorStats().stallCycles();
    d.stats = os.str();
    return d;
}

struct LossyRun
{
    CommitDigest digest;
    network::MeshNetwork::TransportStats wire;
    Counter wireDrops = 0;
    Counter wireDups = 0;
    Counter wireReorders = 0;
};

LossyRun
runTransport(const MachineConfig &cfg)
{
    Machine m(cfg);
    Addr base = allocSpread(m);
    runContention(m, base);
    LossyRun r;
    r.digest = commitDigest(m);
    r.wire = m.network().transportStats();
    r.wireDrops = m.sentinel()->injectorStats().wireDropsInjected();
    r.wireDups = m.sentinel()->injectorStats().wireDupsInjected();
    r.wireReorders = m.sentinel()->injectorStats().wireReordersInjected();
    return r;
}

// ---------------------------------------------------------------------------
// The tentpole equivalence claim: a lossy run's final state is
// bit-identical to the clean same-seed run.

TEST(TransportTest, LossyRunBitIdenticalToCleanRun)
{
    MachineConfig clean = transportConfig(4, 11);
    MachineConfig lossy = clean;
    addWireLoss(lossy);

    LossyRun c = runTransport(clean);
    LossyRun l = runTransport(lossy);

    // The faults really happened and the ARQ machinery absorbed them
    // (each fault class individually, per the acceptance bar).
    EXPECT_GT(l.wireDrops, 0u);
    EXPECT_GT(l.wireDups, 0u);
    EXPECT_GT(l.wireReorders, 0u);
    EXPECT_GT(l.wire.retransmits, 0u);
    EXPECT_GT(l.wire.dupsFiltered, 0u);
    EXPECT_GT(l.wire.reordersAccepted, 0u);
    EXPECT_EQ(c.wire.copies, 0u); // clean run: transport off

    // ...and none of it was visible to the protocol: same final
    // caches/directory, same execution time, same stats.
    EXPECT_EQ(l.digest, c.digest);
}

TEST(TransportTest, LossComposesWithCommitPlaneInjection)
{
    // Satellite: enabling wire loss must not shift the commit-plane
    // fault schedule — same jitter, same NACK decisions, same hint
    // fates for the same seed. (The fault streams draw unconditionally
    // per decision point; the wire plane draws from separate per-lane
    // streams.) Jitter and NACKs perturb timing, so the two runs are
    // compared on the *entire* commit digest: if loss shifted any
    // commit decision, timing would diverge and this would fail.
    MachineConfig injected = transportConfig(4, 7);
    addCommitFaults(injected);
    MachineConfig both = injected;
    addWireLoss(both);

    LossyRun a = runTransport(injected);
    LossyRun b = runTransport(both);
    EXPECT_GT(b.wireDrops, 0u);
    EXPECT_EQ(a.digest, b.digest);
}

TEST(TransportTest, HeavyLossStillQuiescesViaAssuredRetransmission)
{
    // 60% drop probability: most frames need the RTO path, many exhaust
    // kMaxWireRetries and escalate to assured (injector-bypassing)
    // retransmission. drain() panics if any lane fails to quiesce.
    MachineConfig cfg = transportConfig(2, 5);
    cfg.magic.verify.fault.wireDropProb = 0.6;
    LossyRun r = runTransport(cfg);
    EXPECT_GT(r.wireDrops, 0u);
    EXPECT_GT(r.wire.assuredRetransmits, 0u);
    EXPECT_EQ(r.digest, runTransport(transportConfig(2, 5)).digest);
}

// ---------------------------------------------------------------------------
// Transaction-level loss: requests killed outright at the home NI,
// recovered by timeout/retry. Timing-perturbing by nature — asserted
// on recovery and coherence, not bit-identity.

TEST(TransportTest, TxnDropsRecoverByTimeoutRetry)
{
    MachineConfig cfg = transportConfig(4, 9);
    cfg.magic.verify.fault.txnDropProb = 0.2;
    cfg.magic.txnRetryTimeout = 2000;

    Machine m(cfg);
    Addr base = allocSpread(m);
    runContention(m, base);

    Summary s = summarize(m);
    EXPECT_GT(s.reqDropsInjected, 0u);
    EXPECT_GT(s.timeoutRetries, 0u);
    EXPECT_EQ(s.degradedTxns, 0u); // budget 8 vs P(drop)=0.2: never out
    EXPECT_FALSE(s.runDegraded());
    EXPECT_EQ(m.sentinel()->violations(), 0u);
    EXPECT_EQ(m.sentinel()->trips(), 0u);
    EXPECT_EQ(m.sentinel()->watchdog()->outstanding(), 0u);
}

TEST(TransportTest, ExhaustedRetryBudgetCompletesDegraded)
{
    // Every remote request dies at the home NI and the budget is tiny:
    // the read must still complete (degraded), the machine must still
    // drain, and the report must say so.
    MachineConfig cfg = transportConfig(2, 3);
    cfg.magic.verify.fault.txnDropProb = 1.0;
    cfg.magic.txnRetryTimeout = 500;
    cfg.magic.txnRetryBudget = 2;

    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0); // homed on node 0
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1)
            co_await env.read(a); // remote: NetGet to node 0, dropped
    });
    m.drain();

    Summary s = summarize(m);
    EXPECT_EQ(s.degradedTxns, 1u);
    EXPECT_EQ(s.timeoutRetries, 2u);
    EXPECT_EQ(s.degradedResumes, 1u);
    EXPECT_TRUE(s.runDegraded());
    ASSERT_EQ(s.degraded.size(), 1u);
    EXPECT_EQ(s.degraded[0].node, 1u);
    EXPECT_EQ(s.degraded[0].line, lineBase(a));
    EXPECT_EQ(s.degraded[0].retries, 2u);
    EXPECT_EQ(m.sentinel()->trips(), 0u);
    EXPECT_EQ(m.sentinel()->violations(), 0u);
    EXPECT_EQ(m.sentinel()->watchdog()->outstanding(), 0u);
}

TEST(TransportTest, TransportStatsExportToDenseHandles)
{
    MachineConfig cfg = transportConfig(2, 21);
    addWireLoss(cfg);
    Machine m(cfg);
    Addr base = allocSpread(m);
    runContention(m, base, 2);

    Summary s = summarize(m);
    StatSet stats;
    exportTransportStats(s, stats);
    EXPECT_EQ(stats.get(stats.handle("transport.wire.drops")),
              static_cast<double>(s.wireDrops));
    EXPECT_EQ(stats.get(stats.handle("transport.wire.retransmits")),
              static_cast<double>(s.wireRetransmits));
    EXPECT_EQ(stats.get(stats.handle("transport.txn.degraded")), 0.0);
    EXPECT_GT(stats.get(stats.handle("transport.wire.copies")), 0.0);
}

} // namespace
} // namespace flashsim::machine
