/**
 * @file
 * Transaction-level recovery suite.
 *
 * Requests killed outright at the home NI are recovered by the
 * requester's timeout/retry. This fault class perturbs timing, so the
 * tests assert recovery and coherence, not bit-identity, plus the
 * graceful degradation path when the retry budget runs out.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "machine/report.hh"

namespace flashsim::machine
{
namespace
{

/** Verification-on, record-only config with the injector armed (seeded)
 *  but every knob at zero; each test sets the faults it needs. */
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

/** All nodes hammer a shared region: sharing, invalidations, 3-hop
 *  transfers — enough cross-node traffic to exercise every node. */
void
runContention(Machine &m, Addr base)
{
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int it = 0; it < 4; ++it) {
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

} // namespace
} // namespace flashsim::machine
