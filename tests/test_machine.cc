/**
 * @file
 * Whole-machine integration and property tests: FLASH vs ideal
 * ordering, coherence invariants under random workloads, barriers and
 * locks, determinism, and placement policies.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "machine/machine.hh"
#include "machine/report.hh"
#include "sim/random.hh"

namespace flashsim::machine
{
namespace
{

using cpu::Cache;

/** Check directory/cache agreement for every line after drain(). */
void
expectCoherent(Machine &m, Addr base, int n_lines)
{
    for (int l = 0; l < n_lines; ++l) {
        Addr a = base + static_cast<Addr>(l) * kLineSize;
        NodeId home = m.homeOf(a);
        const auto &dir = m.node(static_cast<int>(home)).magic().directory();
        auto h = dir.header(a);

        int exclusive_holders = 0;
        for (int i = 0; i < m.numProcs(); ++i) {
            Cache::State st = m.node(i).cache().state(a);
            if (st == Cache::State::Exclusive) {
                ++exclusive_holders;
                EXPECT_TRUE(h.dirty) << "line " << l;
                EXPECT_EQ(h.owner, static_cast<NodeId>(i))
                    << "line " << l;
            } else if (st == Cache::State::Shared) {
                EXPECT_FALSE(h.dirty) << "line " << l << " node " << i;
                EXPECT_TRUE(dir.isSharer(a, static_cast<NodeId>(i)))
                    << "line " << l << " node " << i;
            }
        }
        EXPECT_LE(exclusive_holders, 1) << "line " << l;
        if (h.dirty) {
            EXPECT_EQ(exclusive_holders, 1) << "line " << l;
        }
        // No phantom sharers after quiescence.
        for (NodeId s : dir.sharers(a)) {
            ASSERT_LT(s, static_cast<NodeId>(m.numProcs()));
            EXPECT_NE(m.node(static_cast<int>(s)).cache().state(a),
                      Cache::State::Invalid)
                << "line " << l << " phantom sharer " << s;
        }
    }
}

tango::Task
randomWorkload(tango::Env &env, Addr base, int n_lines, int ops,
               std::uint64_t seed)
{
    co_await env.busy(0);
    Rng rng(seed + static_cast<std::uint64_t>(env.id()) * 7919 + 1);
    for (int i = 0; i < ops; ++i) {
        Addr a = base + rng.below(static_cast<std::uint64_t>(n_lines)) *
                            kLineSize;
        co_await env.busy(rng.below(64));
        if (rng.below(100) < 30)
            co_await env.write(a);
        else
            co_await env.read(a);
    }
}

class RandomStressTest : public ::testing::TestWithParam<int>
{};

TEST_P(RandomStressTest, CoherenceInvariantsHold)
{
    const int seed = GetParam();
    MachineConfig cfg = MachineConfig::flash(4);
    // Small caches force evictions, writebacks and replacement hints.
    cfg.cache.sizeBytes = 8192;
    Machine m(cfg);
    const int n_lines = 48;
    Addr base = m.allocAuto(static_cast<Addr>(n_lines) * kLineSize);
    m.run([=](tango::Env &env) {
        return randomWorkload(env, base, n_lines, 300,
                              static_cast<std::uint64_t>(seed));
    });
    m.drain();
    expectCoherent(m, base, n_lines);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStressTest,
                         ::testing::Range(1, 11));

TEST(MachineTest, FlashSlowerThanIdealButClose)
{
    auto run_one = [](bool ideal) {
        MachineConfig cfg =
            ideal ? MachineConfig::ideal(4) : MachineConfig::flash(4);
        Machine m(cfg);
        Addr base = m.allocAuto(64 * kLineSize);
        Tick t = m.run([=](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            Addr mine = base + static_cast<Addr>(env.id()) * 16 * kLineSize;
            for (int it = 0; it < 4; ++it) {
                for (int i = 0; i < 16; ++i) {
                    co_await env.read(mine + static_cast<Addr>(i) *
                                                 kLineSize);
                    co_await env.busy(200);
                    co_await env.write(mine + static_cast<Addr>(i) *
                                                  kLineSize);
                }
            }
        });
        return t;
    };
    Tick flash = run_one(false);
    Tick ideal = run_one(true);
    EXPECT_GT(flash, ideal);
    // Optimized-workload territory: the flexibility cost is bounded.
    EXPECT_LT(static_cast<double>(flash),
              1.5 * static_cast<double>(ideal));
}

TEST(MachineTest, DeterministicAcrossRuns)
{
    auto run_one = [] {
        MachineConfig cfg = MachineConfig::flash(4);
        Machine m(cfg);
        Addr base = m.allocAuto(32 * kLineSize);
        return m.run([=](tango::Env &env) {
            return randomWorkload(env, base, 32, 200, 7);
        });
    };
    EXPECT_EQ(run_one(), run_one());
}

TEST(MachineTest, BarrierSynchronizesAllProcessors)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    auto bar = std::make_shared<tango::BarrierVar>(m.makeBarrier());
    auto after = std::make_shared<std::vector<Tick>>(4);
    auto before_max = std::make_shared<Tick>(0);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        // Stagger arrival heavily.
        co_await env.busy(
            4000 * static_cast<std::uint64_t>(env.id() + 1));
        *before_max = std::max(*before_max, env.proc().cursor());
        co_await env.barrier(*bar);
        (*after)[static_cast<std::size_t>(env.id())] = env.proc().cursor();
    });
    m.drain();
    for (Tick t : *after)
        EXPECT_GE(t, *before_max); // nobody left before the last arrival
    EXPECT_EQ(bar->episodes, 4u);
}

TEST(MachineTest, BarrierReusableAcrossEpisodes)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    auto bar = std::make_shared<tango::BarrierVar>(m.makeBarrier());
    auto counter = std::make_shared<int>(0);
    auto ok = std::make_shared<bool>(true);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 5; ++round) {
            if (env.id() == 0)
                *counter += 1;
            co_await env.barrier(*bar);
            if (*counter != round + 1)
                *ok = false;
            co_await env.barrier(*bar);
        }
    });
    EXPECT_TRUE(*ok);
    EXPECT_EQ(*counter, 5);
}

TEST(MachineTest, LockProvidesMutualExclusion)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    auto lock = std::make_shared<tango::LockVar>(m.makeLock());
    auto in_section = std::make_shared<int>(0);
    auto max_in_section = std::make_shared<int>(0);
    auto total = std::make_shared<int>(0);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int i = 0; i < 10; ++i) {
            co_await env.lockAcquire(*lock);
            *in_section += 1;
            *max_in_section = std::max(*max_in_section, *in_section);
            co_await env.busy(100);
            *total += 1;
            *in_section -= 1;
            co_await env.lockRelease(*lock);
            co_await env.busy(50);
        }
    });
    EXPECT_EQ(*max_in_section, 1);
    EXPECT_EQ(*total, 40);
    EXPECT_EQ(lock->acquisitions, 40u);
}

TEST(MachineTest, SyncTimeIsAttributed)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    auto bar = std::make_shared<tango::BarrierVar>(m.makeBarrier());
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        // Proc 0 arrives very late; others spin in sync.
        if (env.id() == 0)
            co_await env.busy(40000);
        co_await env.barrier(*bar);
    });
    m.drain();
    Summary s = summarize(m);
    EXPECT_GT(s.sync, 0.3);
    const auto &bd1 = m.node(1).proc().breakdown();
    EXPECT_GT(bd1.sync, 5000u);
}

TEST(MachineTest, PlacementPoliciesRouteHomes)
{
    {
        MachineConfig cfg = MachineConfig::flash(4);
        cfg.placement = Placement::RoundRobinPages;
        Machine m(cfg);
        Addr a = m.allocAuto(4 * kPageBytes);
        EXPECT_EQ(m.homeOf(a), 0u);
        EXPECT_EQ(m.homeOf(a + kPageBytes), 1u);
        EXPECT_EQ(m.homeOf(a + 3 * kPageBytes), 3u);
    }
    {
        MachineConfig cfg = MachineConfig::flash(4);
        cfg.placement = Placement::Node0;
        Machine m(cfg);
        Addr a = m.allocAuto(8 * kPageBytes);
        for (int p = 0; p < 8; ++p)
            EXPECT_EQ(m.homeOf(a + static_cast<Addr>(p) * kPageBytes),
                      0u);
    }
    {
        MachineConfig cfg = MachineConfig::flash(4);
        cfg.placement = Placement::FirstFit;
        Machine m(cfg);
        // Each node's memory fills before the next node's.
        constexpr Addr node = kFirstFitNodeBytes;
        Addr a = m.allocAuto(3 * node);
        EXPECT_EQ(m.homeOf(a), 0u);
        EXPECT_EQ(m.homeOf(a + node - kPageBytes), 0u);
        EXPECT_EQ(m.homeOf(a + node), 1u);
        EXPECT_EQ(m.homeOf(a + 2 * node), 2u);
    }
}

TEST(MachineTest, ExplicitAllocationHonored)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    Addr a = m.alloc(3 * kPageBytes, 2);
    for (int p = 0; p < 3; ++p)
        EXPECT_EQ(m.homeOf(a + static_cast<Addr>(p) * kPageBytes), 2u);
    EXPECT_DEATH(m.homeOf(a + 100 * kPageBytes), "never allocated");
}

TEST(MachineTest, TableTimingModeRuns)
{
    MachineConfig cfg = MachineConfig::flash(4);
    cfg.magic.usePpEmulator = false;
    Machine m(cfg);
    Addr base = m.allocAuto(32 * kLineSize);
    Tick t = m.run([=](tango::Env &env) {
        return randomWorkload(env, base, 32, 100, 3);
    });
    EXPECT_GT(t, 0u);
    m.drain();
    expectCoherent(m, base, 32);
}

TEST(MachineTest, SummaryFractionsSumToOne)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    Addr base = m.allocAuto(32 * kLineSize);
    m.run([=](tango::Env &env) {
        return randomWorkload(env, base, 32, 200, 11);
    });
    m.drain();
    Summary s = summarize(m);
    EXPECT_NEAR(s.busy + s.cont + s.read + s.write + s.sync, 1.0, 1e-9);
    EXPECT_GT(s.missRate, 0.0);
    EXPECT_GT(s.handlersPerMiss, 1.0);
    double dist_sum = s.dist.localClean + s.dist.localDirtyRemote +
                      s.dist.remoteClean + s.dist.remoteDirtyHome +
                      s.dist.remoteDirtyRemote;
    EXPECT_NEAR(dist_sum, 1.0, 1e-9);
}

TEST(MachineTest, SixtyFourProcessorsBootAndRun)
{
    MachineConfig cfg = MachineConfig::flash(64);
    Machine m(cfg);
    Addr base = m.allocAuto(64 * kLineSize);
    Tick t = m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        co_await env.read(base +
                          static_cast<Addr>(env.id()) * kLineSize);
    });
    EXPECT_GT(t, 0u);
}

// bench_paper runs equal configs once, so every field a paper table
// varies must break equality.
TEST(MachineConfigTest, EveryVariedFieldBreaksEquality)
{
    const MachineConfig base = MachineConfig::flash(16);
    EXPECT_EQ(base, MachineConfig::flash(16));
    EXPECT_NE(base, MachineConfig::ideal(16));

    const std::vector<std::pair<const char *,
                                std::function<void(MachineConfig &)>>>
        flips = {
            {"numProcs", [](MachineConfig &c) { c.numProcs = 8; }},
            {"cache size", [](MachineConfig &c) { c.cache.sizeBytes = 4096; }},
            {"placement",
             [](MachineConfig &c) { c.placement = Placement::Node0; }},
            {"speculation",
             [](MachineConfig &c) { c.magic.speculation = false; }},
            {"mdcBytes", [](MachineConfig &c) { c.magic.mdcBytes = 16384; }},
            {"mdcMissPenalty",
             [](MachineConfig &c) { c.magic.mdcMissPenalty = 0; }},
            {"nackRetryBackoff",
             [](MachineConfig &c) { c.magic.nackRetryBackoff = 4; }},
            {"distanceBased",
             [](MachineConfig &c) { c.net.distanceBased = true; }},
            {"usePpEmulator",
             [](MachineConfig &c) { c.magic.usePpEmulator = false; }},
            {"useSpecialInstrs",
             [](MachineConfig &c) { c.ppCompile.useSpecialInstrs = false; }},
            {"dualIssue",
             [](MachineConfig &c) { c.ppCompile.dualIssue = false; }},
            {"monitorPages",
             [](MachineConfig &c) { c.magic.monitorPages = true; }},
            {"micColdMiss",
             [](MachineConfig &c) { c.magic.micColdMiss = 0; }},
            {"ideal", [](MachineConfig &c) { c.magic.ideal = true; }},
            {"verify.check",
             [](MachineConfig &c) { c.verify.check = true; }},
        };
    for (const auto &[field, flip] : flips) {
        MachineConfig c = base;
        flip(c);
        EXPECT_NE(c, base) << field;
        EXPECT_NE(base, c) << field;
    }
}

} // namespace
} // namespace flashsim::machine
