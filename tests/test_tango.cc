/**
 * @file
 * Unit tests for the Tango coroutine runtime: task composition,
 * awaitable behavior, sync-time attribution, and the combining-tree
 * barrier's group structure.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "tango/sync_phase.hh"
#include "tango/task.hh"

namespace flashsim::tango
{
namespace
{

using machine::Machine;
using machine::MachineConfig;

Task
leaf(int *counter)
{
    *counter += 1;
    co_return;
}

Task
parent(int *counter)
{
    co_await leaf(counter);
    co_await leaf(counter);
    *counter += 10;
}

TEST(Task, LazyStartAndCompletion)
{
    int counter = 0;
    Task t = leaf(&counter);
    EXPECT_EQ(counter, 0); // lazy: nothing ran yet
    t.start();
    EXPECT_EQ(counter, 1);
    EXPECT_TRUE(t.done());
}

TEST(Task, CompositionRunsChildrenInOrder)
{
    int counter = 0;
    Task t = parent(&counter);
    t.start();
    EXPECT_EQ(counter, 12);
    EXPECT_TRUE(t.done());
}

TEST(Task, MoveSemantics)
{
    int counter = 0;
    Task a = leaf(&counter);
    Task b = std::move(a);
    b.start();
    EXPECT_EQ(counter, 1);
    EXPECT_TRUE(a.done()); // moved-from task reads as done
}

TEST(Task, DefaultConstructedIsDone)
{
    Task t;
    EXPECT_TRUE(t.done());
}

TEST(TangoEnv, BusyAdvancesCursorByIssueWidth)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    m.run([](tango::Env &env) -> tango::Task {
        co_await env.busy(400); // 400 instrs = 100 cycles at 4/cycle
    });
    EXPECT_EQ(m.node(0).proc().breakdown().busy, 100u);
    EXPECT_EQ(m.node(0).proc().finishTime(), 100u);
}

TEST(TangoEnv, SubCycleInstructionsCarry)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    m.run([](tango::Env &env) -> tango::Task {
        for (int i = 0; i < 8; ++i)
            co_await env.busy(1); // 8 instrs = 2 cycles total
    });
    EXPECT_EQ(m.node(0).proc().breakdown().busy, 2u);
}

TEST(TangoEnv, SyncRegionAttributesTime)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    m.run([](tango::Env &env) -> tango::Task {
        co_await env.busy(400);
        {
            SyncRegion region(env);
            co_await env.busy(400);
        }
        co_await env.busy(400);
    });
    const auto &bd = m.node(0).proc().breakdown();
    EXPECT_EQ(bd.busy, 200u);
    EXPECT_EQ(bd.sync, 100u);
}

TEST(TangoEnv, LockCountsAcquisitions)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    auto lock = std::make_shared<LockVar>(m.makeLock(0));
    m.run([lock](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int i = 0; i < 3; ++i) {
            co_await env.lockAcquire(*lock);
            co_await env.busy(40);
            co_await env.lockRelease(*lock);
        }
    });
    EXPECT_EQ(lock->acquisitions, 12u);
    EXPECT_FALSE(lock->held);
}

TEST(Barrier, GroupStructureMatchesArity)
{
    MachineConfig cfg = MachineConfig::flash(16);
    Machine m(cfg);
    BarrierVar b = m.makeBarrier();
    ASSERT_EQ(b.groups.size(), 2u); // 16 procs / arity 8
    EXPECT_EQ(b.groups[0].size, 8);
    EXPECT_EQ(b.groups[1].size, 8);
    EXPECT_EQ(b.parties, 16);
}

TEST(Barrier, UnevenGroupSizes)
{
    MachineConfig cfg = MachineConfig::flash(12);
    Machine m(cfg);
    BarrierVar b = m.makeBarrier();
    ASSERT_EQ(b.groups.size(), 2u);
    EXPECT_EQ(b.groups[0].size, 8);
    EXPECT_EQ(b.groups[1].size, 4);
}

TEST(Barrier, SingleGroupForSmallMachines)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    BarrierVar b = m.makeBarrier();
    ASSERT_EQ(b.groups.size(), 1u);
    EXPECT_EQ(b.groups[0].size, 4);
}

TEST(Barrier, SixtyFourProcessorsSynchronize)
{
    MachineConfig cfg = MachineConfig::flash(64);
    Machine m(cfg);
    auto bar = std::make_shared<BarrierVar>(m.makeBarrier());
    auto before_max = std::make_shared<Tick>(0);
    auto ok = std::make_shared<bool>(true);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        co_await env.busy(
            100 * static_cast<std::uint64_t>(env.id() + 1));
        *before_max = std::max(*before_max, env.proc().cursor());
        co_await env.barrier(*bar);
        if (env.proc().cursor() < *before_max)
            *ok = false;
    });
    EXPECT_TRUE(*ok);
    EXPECT_EQ(bar->gen, 1);
}

TEST(Barrier, ManyEpisodesStayConsistent)
{
    MachineConfig cfg = MachineConfig::flash(8);
    Machine m(cfg);
    auto bar = std::make_shared<BarrierVar>(m.makeBarrier());
    auto phase = std::make_shared<int>(0);
    auto ok = std::make_shared<bool>(true);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 20; ++round) {
            if (env.id() == round % 8)
                *phase = round;
            co_await env.barrier(*bar);
            if (*phase != round)
                *ok = false;
            co_await env.barrier(*bar);
        }
    });
    EXPECT_TRUE(*ok);
    EXPECT_EQ(bar->gen, 40);
}

TEST(SyncPhase, MinPendingTracksParkAndRun)
{
    SyncPhase sp(2);
    EventQueue eq;
    const std::coroutine_handle<> h = std::noop_coroutine();
    EXPECT_EQ(sp.minPending(), EventQueue::kNever);
    sp.park(7, 0, h);
    sp.park(3, 1, h);
    sp.park(7, 1, h);
    EXPECT_EQ(sp.minPending(), 3u);
    sp.run(3, eq);
    EXPECT_EQ(sp.minPending(), 7u);
    sp.park(5, 0, h);
    EXPECT_EQ(sp.minPending(), 5u);
    sp.run(5, eq);
    EXPECT_EQ(sp.minPending(), 7u);
    sp.run(7, eq);
    EXPECT_EQ(sp.minPending(), EventQueue::kNever);
}

} // namespace
} // namespace flashsim::tango
