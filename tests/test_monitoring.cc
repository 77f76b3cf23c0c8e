/**
 * @file
 * Tests for the Section 4.4 flexibility features: PP-side page access
 * monitoring and placement-hook remapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "machine/machine.hh"

namespace flashsim::machine
{
namespace
{

bool
nonzero(Counter c)
{
    return c != 0;
}

tango::Task
remoteHammer(tango::Env &env, Addr a, int times)
{
    co_await env.busy(0);
    if (env.id() != 1)
        co_return;
    for (int i = 0; i < times; ++i) {
        co_await env.read(a);
        co_await env.write(a); // upgrade, then re-read next round
        co_await env.busy(64);
    }
}

TEST(Monitoring, CountsRemoteRequestsPerPage)
{
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.magic.monitorPages = true;
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0); // homed node 0, hammered by node 1
    m.run([&](tango::Env &env) { return remoteHammer(env, a, 5); });
    m.drain();
    const std::vector<Counter> heat = m.pageHeat();
    std::uint64_t page = m.pageIndexOf(a);
    ASSERT_LT(page, heat.size());
    // At least the initial GET and GETX; re-reads after ownership
    // changes add more.
    EXPECT_GE(heat[page], 2u);
}

TEST(Monitoring, HeatKeysArePageIndices)
{
    // The monitor and pageIndexOf must number pages alike, or a remap
    // built from pageHeat re-homes the wrong pages. The hammered line is
    // a page's last, so it only passes if the application base is
    // page-aligned.
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.magic.monitorPages = true;
    Machine m(cfg);
    (void)m.alloc(5 * kPageBytes, 1);
    Addr a = m.alloc(kPageBytes, 0) + kPageBytes - kLineSize;
    m.run([&](tango::Env &env) { return remoteHammer(env, a, 2); });
    m.drain();
    const std::vector<Counter> heat = m.pageHeat();
    EXPECT_EQ(std::ranges::count_if(heat, nonzero), 1);
    ASSERT_GT(heat.size(), 5u);
    EXPECT_NE(heat[5], 0u);
    EXPECT_EQ(m.pageIndexOf(a), 5u);
}

TEST(Monitoring, LocalRequestsNotCounted)
{
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.magic.monitorPages = true;
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([&](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 0) {
            co_await env.read(a);
            co_await env.write(a);
        }
    });
    m.drain();
    EXPECT_FALSE(std::ranges::any_of(m.pageHeat(), nonzero));
}

TEST(Monitoring, DisabledByDefault)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);
    m.run([&](tango::Env &env) { return remoteHammer(env, a, 3); });
    m.drain();
    EXPECT_FALSE(std::ranges::any_of(m.pageHeat(), nonzero));
}

TEST(Monitoring, MonitoringCostsPpCycles)
{
    auto pp_cycles = [](bool monitor) {
        MachineConfig cfg = MachineConfig::flash(2);
        cfg.magic.monitorPages = monitor;
        Machine m(cfg);
        Addr a = m.alloc(kLineSize, 0);
        m.run([&](tango::Env &env) { return remoteHammer(env, a, 4); });
        m.drain();
        Cycles total = 0;
        for (int i = 0; i < 2; ++i)
            total += m.node(i).magic().ppOcc.busyCycles();
        return total;
    };
    EXPECT_GT(pp_cycles(true), pp_cycles(false));
}

TEST(Monitoring, PlacementHookOverridesEverything)
{
    MachineConfig cfg = MachineConfig::flash(4);
    cfg.placementHook = [](std::uint64_t page) {
        return static_cast<NodeId>((page * 3) % 4);
    };
    Machine m(cfg);
    Addr a = m.alloc(3 * kPageBytes, 1); // explicit hint ignored
    EXPECT_EQ(m.homeOf(a), 0u);
    EXPECT_EQ(m.homeOf(a + kPageBytes), 3u);
    EXPECT_EQ(m.homeOf(a + 2 * kPageBytes), 2u);
    Addr b = m.allocAuto(kPageBytes);
    EXPECT_EQ(m.homeOf(b), 1u); // page index 3 -> node 1
}

TEST(Monitoring, RemapMovesTrafficOffHotNode)
{
    // Hammer one node-0 page from everyone, then remap it using the
    // measured heat and verify the traffic follows.
    auto run_once = [](MachineConfig cfg, std::uint64_t *hot_page) {
        cfg.magic.monitorPages = true;
        Machine m(cfg);
        Addr a = m.allocAuto(kPageBytes);
        m.run([&](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            for (int i = 0; i < 4; ++i) {
                co_await env.read(a + static_cast<Addr>(env.id()) *
                                          kLineSize);
                co_await env.busy(200);
            }
        });
        m.drain();
        const std::vector<Counter> heat = m.pageHeat();
        const auto hot = std::ranges::find_if(heat, nonzero);
        if (hot_page && hot != heat.end())
            *hot_page = static_cast<std::uint64_t>(hot - heat.begin());
        return m.node(0).magic().invocations;
    };

    MachineConfig hot = MachineConfig::flash(4);
    hot.placement = Placement::Node0;
    std::uint64_t hot_page = 0;
    Counter node0_before = run_once(hot, &hot_page);

    MachineConfig fixed = hot;
    fixed.placementHook = [hot_page](std::uint64_t page) {
        return page == hot_page ? NodeId{2} : NodeId{0};
    };
    Counter node0_after = run_once(fixed, nullptr);
    EXPECT_LT(node0_after, node0_before);
}

} // namespace
} // namespace flashsim::machine
