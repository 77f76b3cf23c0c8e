/**
 * @file
 * Unit tests for the Tango coroutine runtime: task composition,
 * awaitable behavior, sync-time attribution, the combining-tree
 * barrier's group structure, and barrier and lock waits whose exact
 * per-processor results are pinned (SpinElision).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

// A sync point reached while the phase at its tick runs continues
// inline, so one round is the whole phase. An operation parked at the
// running tick anyway, here by an event the phase drains, breaks that
// invariant and must not be left behind.
TEST(SyncPhaseDeathTest, ParkingAtTheRunningTickPanics)
{
    EXPECT_DEATH(
        {
            SyncPhase sp(2);
            EventQueue eq;
            sp.park(3, 0, std::noop_coroutine());
            eq.scheduleAt(3,
                          [&sp] { sp.park(3, 1, std::noop_coroutine()); });
            sp.run(3, eq);
        },
        "SyncPhase: node 1 parked at tick 3 while its phase ran");
}


// ---------------------------------------------------------------------------
// Barrier and lock waits, pinned to the cycle. The expected values were
// recorded with every spin iteration simulated; a waiter that is parked
// and replayed must reproduce them exactly.

/** Spin-wait counts summed over the processors. */
Env::SpinStats
spinTotals(Machine &m)
{
    Env::SpinStats t;
    for (int i = 0; i < m.numProcs(); ++i) {
        const Env::SpinStats &s = m.node(i).env().spinStats();
        t.simulated += s.simulated;
        t.elided += s.elided;
        t.wakes += s.wakes;
        t.joins += s.joins;
    }
    return t;
}

/** Every processor's breakdown, reference counts, miss rate and finish
 *  time, one line per processor. */
std::string
perProcessor(const Machine &m)
{
    std::ostringstream os;
    os.precision(17);
    for (int i = 0; i < m.numProcs(); ++i) {
        const cpu::Processor &p = m.node(i).proc();
        const cpu::Processor::Breakdown &bd = p.breakdown();
        const cpu::Cache &c = m.node(i).cache();
        os << i << ": busy " << bd.busy << " cont " << bd.cont << " read "
           << bd.read << " write " << bd.write << " sync " << bd.sync
           << " reads " << c.reads << " bg " << c.backgroundHits
           << " miss " << c.missRate() << " end " << p.finishTime()
           << '\n';
    }
    os << "exec " << m.executionTime() << '\n';
    return os.str();
}

// Processors 1-3 wait at a barrier while processor 0 works. Mid-wait,
// processor 0 reads a line homed at (and dirty in the cache of) waiter
// 2, whose MAGIC retrieves it from that cache, and then writes the
// group's flag line, invalidating every waiter's copy.
TEST(SpinElision, BarrierWaitSeesHomeRequestAndFlagInvalidation)
{
    Machine m(MachineConfig::flash(4));
    auto bar = std::make_shared<BarrierVar>(m.makeBarrier());
    const Addr homed2 = m.alloc(4 * kLineSize, 2);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 3; ++round) {
            const Addr line = homed2 + static_cast<Addr>(round) * kLineSize;
            if (env.id() == 2)
                co_await env.write(line);
            if (env.id() == 0) {
                co_await env.busy(2000);
                co_await env.read(line);
                co_await env.busy(1000);
                co_await env.write(bar->groups[0].flagAddr);
                co_await env.busy(1000 + 37 * static_cast<std::uint64_t>(
                                             round));
            }
            co_await env.barrier(*bar);
        }
    });
    m.drain();
    // The waits were mostly parked, and woken more than once per episode.
    const Env::SpinStats spins = spinTotals(m);
    EXPECT_GT(spins.elided, spins.simulated);
    EXPECT_GT(spins.wakes, 3u * 3u);
    EXPECT_EQ(bar->gen, 3);
    EXPECT_EQ(perProcessor(m),
              "0: busy 3029 cont 29 read 500 write 0 sync 616 reads 9 bg "
              "4044 miss 0.0041820418204182039 end 4174\n"
              "1: busy 0 cont 136 read 0 write 0 sync 4039 reads 503 bg "
              "2835 miss 0.0035917390002993114 end 4175\n"
              "2: busy 1 cont 269 read 0 write 0 sync 3905 reads 502 bg "
              "2830 miss 0.0041941282204913119 end 4175\n"
              "3: busy 0 cont 131 read 0 write 0 sync 4046 reads 477 bg "
              "2688 miss 0.003787878787878788 end 4177\n"
              "exec 4177\n");
}

// Eight processors contend for one lock homed at node 3. The holder's
// critical section and the waiters' arrival skew vary per round, so
// releases land on ticks where waiters below and above the releaser's
// node number reach their re-test.
TEST(SpinElision, LockReleaseSameTickAsWaiterRetest)
{
    Machine m(MachineConfig::flash(8));
    auto lock = std::make_shared<LockVar>(m.makeLock(3));
    auto order = std::make_shared<std::vector<int>>();
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 6; ++round) {
            co_await env.busy(
                13 * static_cast<std::uint64_t>((env.id() * 5 + round) % 8));
            co_await env.lockAcquire(*lock);
            order->push_back(env.id());
            co_await env.busy(
                4000 + 29 * static_cast<std::uint64_t>(
                                (env.id() + 3 * round) % 7));
            co_await env.lockRelease(*lock);
        }
    });
    m.drain();
    std::ostringstream os;
    for (int id : *order)
        os << id << ' ';
    EXPECT_EQ(lock->acquisitions, 48u);
    // Some releases woke a parked waiter into the running round.
    const Env::SpinStats spins = spinTotals(m);
    EXPECT_GT(spins.elided, spins.simulated);
    EXPECT_GT(spins.joins, 0u);
    EXPECT_EQ(os.str(),
              "3 3 5 5 7 2 3 6 5 7 6 6 2 7 0 3 6 7 3 4 3 4 2 4 5 1 6 7 1 "
              "5 6 0 5 4 7 2 4 4 2 1 2 0 1 1 0 1 0 0 ");
    EXPECT_EQ(perProcessor(m),
              "0: busy 6174 cont 690 read 0 write 0 sync 42456 reads "
              "2947 bg 40587 miss 0.0014466463064593906 end 49320\n"
              "1: busy 6184 cont 627 read 0 write 0 sync 40446 reads "
              "2604 bg 36830 miss 0.0015717291555758359 end 47257\n"
              "2: busy 6198 cont 562 read 0 write 0 sync 35340 reads "
              "2202 bg 32424 miss 0.0016744132336383845 end 42100\n"
              "3: busy 6206 cont 356 read 0 write 0 sync 15113 reads 832 "
              "bg 17368 miss 0.0021414452009663959 end 21675\n"
              "4: busy 6219 cont 641 read 0 write 0 sync 32210 reads "
              "1949 bg 29673 miss 0.0019280611922371832 end 39070\n"
              "5: busy 6204 cont 512 read 0 write 0 sync 27204 reads "
              "1652 bg 26387 miss 0.001818052188792243 end 33920\n"
              "6: busy 6190 cont 543 read 0 write 0 sync 25117 reads "
              "1527 bg 24995 miss 0.0019593805343079995 end 31850\n"
              "7: busy 6204 cont 558 read 0 write 0 sync 29213 reads "
              "1804 bg 28057 miss 0.0018074708796358282 end 35975\n"
              "exec 49320\n");
}

// Nothing can ever wake these waiters: processor 0 waits for a block
// nobody sends, and the rest wait for it at a barrier. Their spin reads
// hit, so they park, both queues empty, and the run stops with the
// deadlock error instead of spinning forever.
TEST(SpinElisionDeathTest, UnwakeableWaitersAreADeadlock)
{
    EXPECT_DEATH(
        {
            Machine m(MachineConfig::flash(4));
            auto bar = std::make_shared<BarrierVar>(m.makeBarrier());
            m.run([=](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() == 0)
                    (void)co_await env.recvBlock();
                co_await env.barrier(*bar);
            });
        },
        "deadlock.*4 processors unfinished, 3 of them parked");
}

} // namespace
} // namespace flashsim::tango
