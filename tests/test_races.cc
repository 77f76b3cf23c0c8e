/**
 * @file
 * Directed protocol race tests: each constructs a timing window where
 * two transactions collide and asserts the NACK/retry (or
 * inval-on-fill) machinery converges to a coherent state. These are the
 * corner cases Section 5.3 alludes to with "all corner cases, deadlock
 * avoidance checks, and other complications".
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"

namespace flashsim::machine
{
namespace
{

using cpu::Cache;

/** Sweep a relative delay so the racing request lands at many points
 *  inside the victim transaction's window. */
class RaceDelayTest : public ::testing::TestWithParam<int>
{};

TEST_P(RaceDelayTest, WritebackVsGetConverges)
{
    // Node 1 dirties a line and evicts it (writeback); node 0 reads the
    // line while the writeback is in flight. Depending on the delay the
    // GET hits the dirty-owner window (forward + NACK + retry) or the
    // post-writeback window (clean service).
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.cache.sizeBytes = 4096; // tiny: eviction is easy to force
    Machine m(cfg);
    // Two lines mapping to the same set force the eviction.
    std::uint32_t sets = 4096 / (2 * 128);
    Addr a = m.alloc(kLineSize, 0);
    Addr conflict1 = m.alloc(sets * kLineSize, 0);
    Addr conflict2 = m.alloc(sets * kLineSize, 0);
    Addr c1 = conflict1 + (a - conflict1) % (sets * kLineSize);
    (void)c1;
    const int delay = GetParam();

    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1) {
            co_await env.write(a);
            // Touch two conflicting lines: evicts the dirty line.
            co_await env.read(conflict1);
            co_await env.read(conflict2);
        } else {
            co_await env.busy(200 + 4 * static_cast<std::uint64_t>(delay));
            co_await env.read(a);
        }
    });
    m.drain();
    // Whatever interleaving happened (node 0's copy may legitimately
    // have been invalidated if the write landed after its read), the
    // directory must agree with the caches.
    const auto &dir = m.node(0).magic().directory();
    auto h = dir.header(a);
    if (h.dirty) {
        EXPECT_EQ(m.node(static_cast<int>(h.owner)).cache().state(a),
                  Cache::State::Exclusive);
    }
    for (int i = 0; i < 2; ++i) {
        Cache::State st = m.node(i).cache().state(a);
        if (st == Cache::State::Shared) {
            EXPECT_TRUE(dir.isSharer(a, static_cast<NodeId>(i)))
                << "node " << i;
        }
        if (st == Cache::State::Exclusive) {
            EXPECT_EQ(h.owner, static_cast<NodeId>(i));
        }
    }
}

TEST_P(RaceDelayTest, TwoWritersConverge)
{
    MachineConfig cfg = MachineConfig::flash(3);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    const int delay = GetParam();
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1) {
            co_await env.write(a);
        } else if (env.id() == 2) {
            co_await env.busy(static_cast<std::uint64_t>(delay) * 8);
            co_await env.write(a);
        }
    });
    m.drain();
    const auto &dir = m.node(0).magic().directory();
    auto h = dir.header(a);
    ASSERT_TRUE(h.dirty);
    int holders = 0;
    for (int i = 0; i < 3; ++i)
        if (m.node(i).cache().state(a) == Cache::State::Exclusive) {
            ++holders;
            EXPECT_EQ(h.owner, static_cast<NodeId>(i));
        }
    EXPECT_EQ(holders, 1);
}

TEST_P(RaceDelayTest, ReaderVsWriterConverges)
{
    // Node 1 reads (GET) while node 2 writes (GETX) the same line: the
    // inval may overtake the read reply (inval-on-fill), the GET may be
    // forwarded to a not-yet-ready owner (NACK/retry), etc.
    MachineConfig cfg = MachineConfig::flash(3);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    const int delay = GetParam();
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1) {
            co_await env.busy(static_cast<std::uint64_t>(delay) * 4);
            co_await env.read(a);
        } else if (env.id() == 2) {
            co_await env.write(a);
        }
    });
    m.drain();
    const auto &dir = m.node(0).magic().directory();
    auto h = dir.header(a);
    // Node 2 must own the line unless node 1's later read downgraded it
    // to shared; either way states must be coherent.
    for (int i = 0; i < 3; ++i) {
        Cache::State st = m.node(i).cache().state(a);
        if (st == Cache::State::Exclusive) {
            EXPECT_TRUE(h.dirty);
            EXPECT_EQ(h.owner, static_cast<NodeId>(i));
        }
        if (st == Cache::State::Shared) {
            EXPECT_FALSE(h.dirty);
            EXPECT_TRUE(dir.isSharer(a, static_cast<NodeId>(i)));
        }
    }
}

TEST_P(RaceDelayTest, ThreeHopChainsConverge)
{
    // The line migrates 1 -> 2 -> 3 as dirty data while node 0 (its
    // home) reads it in the middle of the chain.
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    const int delay = GetParam();
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        switch (env.id()) {
          case 1:
            co_await env.write(a);
            break;
          case 2:
            co_await env.busy(600);
            co_await env.write(a);
            break;
          case 3:
            co_await env.busy(1200);
            co_await env.write(a);
            break;
          case 0:
            co_await env.busy(400 + static_cast<std::uint64_t>(delay) * 16);
            co_await env.read(a);
            break;
        }
    });
    m.drain();
    const auto &dir = m.node(0).magic().directory();
    auto h = dir.header(a);
    int exclusive = 0;
    for (int i = 0; i < 4; ++i) {
        Cache::State st = m.node(i).cache().state(a);
        if (st == Cache::State::Exclusive)
            ++exclusive;
        if (st == Cache::State::Shared) {
            EXPECT_TRUE(dir.isSharer(a, static_cast<NodeId>(i)))
                << "node " << i;
        }
    }
    if (h.dirty)
        EXPECT_EQ(exclusive, 1);
    else
        EXPECT_EQ(exclusive, 0);
}

INSTANTIATE_TEST_SUITE_P(Delays, RaceDelayTest,
                         ::testing::Range(0, 40, 3));

// ---------------------------------------------------------------------------
// Injector-driven races: the fault injector widens the same windows the
// delay sweep above probes (late writebacks, mid-flight interventions,
// NACK retries) and the coherence oracle checks every handler along the
// way, so convergence is asserted by the golden invariants instead of
// by spot-checking final states.

/** Race config with the oracle watching and seeded injection on. */
machine::MachineConfig
injectedRaceConfig(int procs, std::uint64_t seed)
{
    MachineConfig cfg = MachineConfig::flash(procs);
    cfg.verify.check = true;
    cfg.verify.haltOnViolation = false;
    cfg.verify.fault.seed = seed;
    cfg.verify.fault.meshJitter = 16;
    cfg.verify.fault.extraNackProb = 0.2;
    cfg.verify.fault.inboundStall = 6;
    return cfg;
}

/** Sweep the injector seed: each seed produces a different perturbation
 *  schedule, landing the race at different points in the window. */
class InjectedRaceTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(InjectedRaceTest, WritebackVsGetOracleClean)
{
    // The PR-seed writeback race, but with jitter/NACK/stall injection
    // smearing the writeback and the racing GET across the window.
    MachineConfig cfg = injectedRaceConfig(2, GetParam());
    cfg.cache.sizeBytes = 4096;
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    std::uint32_t sets = 4096 / (2 * 128);
    Addr conflict1 = m.alloc(sets * kLineSize, 0);
    Addr conflict2 = m.alloc(sets * kLineSize, 0);
    (void)conflict2;

    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1) {
            co_await env.write(a);
            co_await env.read(conflict1);
            co_await env.read(conflict2);
        } else {
            co_await env.busy(250);
            co_await env.read(a);
        }
    });
    m.drain();

    EXPECT_EQ(m.oracle()->violations(), 0u);
    const auto &dir = m.node(0).magic().directory();
    auto h = dir.header(a);
    if (h.dirty) {
        EXPECT_EQ(m.node(static_cast<int>(h.owner)).cache().state(a),
                  Cache::State::Exclusive);
    }
}

TEST_P(InjectedRaceTest, InterventionChainOracleClean)
{
    // Dirty line migrating 1 -> 2 -> 3 with the home reading mid-chain:
    // every 3-hop intervention (forward, SWB, ownership transfer) runs
    // under injection with the oracle checking each hop.
    MachineConfig cfg = injectedRaceConfig(4, GetParam());
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        switch (env.id()) {
          case 1:
            co_await env.write(a);
            break;
          case 2:
            co_await env.busy(500);
            co_await env.write(a);
            break;
          case 3:
            co_await env.busy(1000);
            co_await env.write(a);
            break;
          case 0:
            co_await env.busy(750);
            co_await env.read(a);
            break;
        }
    });
    m.drain();

    EXPECT_EQ(m.oracle()->violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InjectedRaceTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(RaceTest, NackStormConvergesOracleClean)
{
    // Half of all home GET/GETX requests are NACKed outright on top of
    // three writers fighting for one line: the retry machinery must
    // still serialise the writers, make forward progress (a wedged
    // miss or lost progress is fatal) and keep the directory golden
    // throughout.
    MachineConfig cfg = injectedRaceConfig(4, 3);
    cfg.verify.fault.extraNackProb = 0.5;
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 0)
            co_return;
        for (int it = 0; it < 8; ++it) {
            co_await env.write(a);
            co_await env.busy(50);
            co_await env.read(a);
        }
    });
    m.drain();

    EXPECT_GT(m.injector()->nacksInjected(), 0u);
    EXPECT_EQ(m.oracle()->violations(), 0u);
    const auto &dir = m.node(0).magic().directory();
    auto h = dir.header(a);
    int holders = 0;
    for (int i = 0; i < 4; ++i)
        if (m.node(i).cache().state(a) == Cache::State::Exclusive) {
            ++holders;
            EXPECT_TRUE(h.dirty);
            EXPECT_EQ(h.owner, static_cast<NodeId>(i));
        }
    EXPECT_LE(holders, 1);
}

TEST(RaceTest, UpgradeRace)
{
    // Both sharers upgrade simultaneously; exactly one wins first and
    // the other is served through the forward path.
    MachineConfig cfg = MachineConfig::flash(3);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 0)
            co_return;
        co_await env.read(a); // both become sharers
        co_await env.busy(40000);
        co_await env.write(a); // simultaneous upgrade
        co_await env.busy(40000);
        co_await env.read(a); // make sure we still converge for reads
    });
    m.drain();
    const auto &dir = m.node(0).magic().directory();
    auto h = dir.header(a);
    // After the dust settles both re-read: line is shared by 1 and 2,
    // or one of them re-dirtied it — either must be coherent.
    if (!h.dirty) {
        EXPECT_TRUE(dir.isSharer(a, 1) || dir.isSharer(a, 2));
    }
}

} // namespace
} // namespace flashsim::machine
