/**
 * @file
 * Processor cache tests, driven through a small Machine so fills,
 * upgrades, evictions and interventions exercise the real protocol.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "machine/report.hh"

namespace flashsim::machine
{
namespace
{

using cpu::Cache;

TEST(CacheTest, ReadMissThenHit)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr a = mm.alloc(kLineSize, 0);
    mm.run([a](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        co_await env.read(a);
        co_await env.read(a);
        co_await env.read(a + 8); // same line
    });
    mm.drain();
    const Cache &c = mm.node(0).cache();
    EXPECT_EQ(c.reads, 3u);
    EXPECT_EQ(c.readMisses, 1u);
    EXPECT_EQ(c.state(a), Cache::State::Shared);
}

TEST(CacheTest, ReadHitMatchesRead)
{
    // readHit() is the processor's inline hit probe. On a hit it must
    // count the read and refresh the LRU stamp exactly as read() does;
    // on a miss it must leave the cache untouched. Two identical
    // machines take the same hit, one through each path, and must then
    // evict the same victim.
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.cache.sizeBytes = 1024; // 4 sets x 2 ways: 512 B apart, same set
    Machine probed(cfg);
    Machine plain(cfg);
    const Addr a = probed.alloc(3 * 512, 0);
    ASSERT_EQ(plain.alloc(3 * 512, 0), a);
    const Addr b = a + 512;
    const Addr c = a + 1024;
    for (Machine *mm : {&probed, &plain}) {
        mm->run([a, b](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            if (env.id() != 0)
                co_return;
            co_await env.read(a); // a becomes the LRU way of the set
            co_await env.read(b);
        });
        mm->drain();
    }
    Cache &pc = probed.node(0).cache();
    Cache &qc = plain.node(0).cache();

    const Counter reads = pc.reads;
    const Counter misses = pc.readMisses;
    EXPECT_FALSE(pc.readHit(c));
    EXPECT_EQ(pc.reads, reads);
    EXPECT_EQ(pc.readMisses, misses);
    EXPECT_EQ(pc.state(c), Cache::State::Invalid);

    EXPECT_TRUE(pc.readHit(a));
    EXPECT_EQ(qc.read(a, [] {}), Cache::ReadOutcome::Hit);
    EXPECT_EQ(pc.reads, reads + 1);
    EXPECT_EQ(pc.reads, qc.reads);
    EXPECT_EQ(pc.readMisses, qc.readMisses);

    // a is now the most recent way in both, so c evicts b in both.
    for (Machine *mm : {&probed, &plain}) {
        Cache &cc = mm->node(0).cache();
        bool filled = false;
        EXPECT_EQ(cc.read(c, [&filled] { filled = true; }),
                  Cache::ReadOutcome::Miss);
        mm->drain();
        EXPECT_TRUE(filled);
        EXPECT_EQ(cc.state(a), Cache::State::Shared);
        EXPECT_EQ(cc.state(b), Cache::State::Invalid);
        EXPECT_EQ(cc.state(c), Cache::State::Shared);
    }
}

TEST(CacheTest, WriteMissGrantsExclusive)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr a = mm.alloc(kLineSize, 0);
    mm.run([a](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        co_await env.write(a);
        co_await env.busy(40000);
        co_await env.write(a); // hit
    });
    mm.drain();
    const Cache &c = mm.node(0).cache();
    EXPECT_EQ(c.writes, 2u);
    EXPECT_EQ(c.writeMisses, 1u);
    EXPECT_EQ(c.state(a), Cache::State::Exclusive);
    EXPECT_TRUE(c.holdsDirty(a));
}

TEST(CacheTest, UpgradeDoesNotDuplicateLine)
{
    // Regression: a read fill followed by an upgrade fill must promote
    // the existing way instead of installing a second copy.
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr a = mm.alloc(kLineSize, 0);
    mm.run([a](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        co_await env.read(a);
        co_await env.write(a);
        co_await env.busy(40000);
        co_await env.write(a); // must be a hit on the Exclusive copy
    });
    mm.drain();
    const Cache &c = mm.node(0).cache();
    EXPECT_EQ(c.state(a), Cache::State::Exclusive);
    EXPECT_EQ(c.writeMisses, 1u);
    EXPECT_EQ(mm.node(0).magic().nacksSent, 0u);
}

TEST(CacheTest, DirtyLineMigratesAndDowngrades)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr a = mm.alloc(kLineSize, 0);
    mm.run([a](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1) {
            co_await env.write(a); // node 1 dirties the line
        } else {
            co_await env.busy(40000);
            co_await env.read(a); // node 0 reads it back
        }
    });
    mm.drain();
    EXPECT_EQ(mm.node(1).cache().state(a), Cache::State::Shared);
    EXPECT_EQ(mm.node(0).cache().state(a), Cache::State::Shared);
    const auto &dir = mm.node(0).magic().directory();
    EXPECT_FALSE(dir.header(a).dirty);
    EXPECT_TRUE(dir.isSharer(a, 0));
    EXPECT_TRUE(dir.isSharer(a, 1));
}

TEST(CacheTest, WriteInvalidatesOtherSharers)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr a = mm.alloc(kLineSize, 0);
    mm.run([a](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        co_await env.read(a); // both become sharers
        co_await env.busy(40000);
        if (env.id() == 1)
            co_await env.write(a);
    });
    mm.drain();
    EXPECT_EQ(mm.node(0).cache().state(a), Cache::State::Invalid);
    EXPECT_EQ(mm.node(1).cache().state(a), Cache::State::Exclusive);
    EXPECT_GE(mm.node(0).cache().invalsReceived, 1u);
    const auto &dir = mm.node(0).magic().directory();
    EXPECT_TRUE(dir.header(a).dirty);
    EXPECT_EQ(dir.header(a).owner, 1u);
}

TEST(CacheTest, EvictionsSendWritebacksAndHints)
{
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.cache.sizeBytes = 4096; // 16 sets x 2 ways
    Machine mm(cfg);
    Addr base = mm.alloc(256 * kLineSize, 0);
    mm.run([base](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        // Fill far beyond capacity: reads then dirty half of them.
        for (int i = 0; i < 96; ++i)
            co_await env.read(base + static_cast<Addr>(i) * kLineSize);
        for (int i = 96; i < 128; ++i)
            co_await env.write(base + static_cast<Addr>(i) * kLineSize);
        for (int i = 0; i < 96; ++i)
            co_await env.read(base + static_cast<Addr>(i) * kLineSize);
    });
    mm.drain();
    const Cache &c = mm.node(0).cache();
    EXPECT_GT(c.replaceHints, 0u);
    EXPECT_GT(c.writebacks, 0u);
    // After drain the directory's sharer lists reflect exactly the
    // lines still resident.
    const auto &dir = mm.node(0).magic().directory();
    int resident = 0;
    for (int i = 0; i < 128; ++i) {
        Addr a = base + static_cast<Addr>(i) * kLineSize;
        bool holds = c.state(a) != Cache::State::Invalid;
        bool listed = dir.isSharer(a, 0) ||
                      (dir.header(a).dirty && dir.header(a).owner == 0);
        EXPECT_EQ(holds, listed) << "line " << i;
        resident += holds;
    }
    EXPECT_LE(resident, 32); // capacity
}

TEST(CacheTest, MshrLimitsOutstandingWrites)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr base = mm.alloc(16 * kLineSize, 0);
    mm.run([base](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        // 8 back-to-back write misses: only 4 MSHRs, so the pipeline
        // must stall at least once but all must complete.
        for (int i = 0; i < 8; ++i)
            co_await env.write(base + static_cast<Addr>(i) * kLineSize);
    });
    mm.drain();
    const Cache &c = mm.node(0).cache();
    EXPECT_EQ(c.writeMisses, 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(c.state(base + static_cast<Addr>(i) * kLineSize),
                  Cache::State::Exclusive);
    const auto &bd = mm.node(0).proc().breakdown();
    EXPECT_GT(bd.write, 0u); // MSHR-full stall was charged
}

TEST(CacheTest, NonBlockingWritesDoNotStall)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr base = mm.alloc(16 * kLineSize, 0);
    mm.run([base](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        // 3 writes to distinct sets: all fit in MSHRs, no stalls.
        for (int i = 0; i < 3; ++i)
            co_await env.write(base + static_cast<Addr>(i) * kLineSize);
    });
    mm.drain();
    const auto &bd = mm.node(0).proc().breakdown();
    EXPECT_EQ(bd.write, 0u);
    EXPECT_EQ(bd.read, 0u);
}

TEST(CacheTest, ReadMergesIntoOutstandingWrite)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr a = mm.alloc(kLineSize, 0);
    mm.run([a](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() != 0)
            co_return;
        co_await env.write(a); // non-blocking GETX
        co_await env.read(a);  // merges: blocks until the same fill
    });
    mm.drain();
    const Cache &c = mm.node(0).cache();
    EXPECT_EQ(c.readMisses, 1u);
    EXPECT_EQ(c.writeMisses, 1u);
    // Only one request reached the home node.
    EXPECT_EQ(mm.node(0).magic().readClasses.total() +
                  mm.node(0).magic().handlerCount[static_cast<int>(
                      protocol::HandlerId::ServeWriteMemory)],
              1u);
    EXPECT_EQ(c.state(a), Cache::State::Exclusive);
}

TEST(CacheTest, ReadMergedIntoWriteMissResumesOnceAtItsFill)
{
    // The read finds the write's MSHR and parks on it: the one fill
    // (the write's) resumes it once, at the fill's tick.
    Machine mm(MachineConfig::flash(2));
    const Addr a = mm.alloc(kLineSize, 1);
    Cache &c = mm.node(0).cache();
    const EventQueue &eq = mm.eq();
    ASSERT_EQ(c.write(a), Cache::WriteOutcome::Queued);
    int resumed = 0;
    Tick at = 0;
    auto on_fill = [&resumed, &at, &eq] {
        ++resumed;
        at = eq.now();
    };
    ASSERT_EQ(c.read(a + 8, on_fill), Cache::ReadOutcome::Miss);
    mm.drain();
    EXPECT_EQ(resumed, 1);
    ASSERT_EQ(c.missLatency.count(), 1u); // one fill: the write's
    EXPECT_EQ(static_cast<double>(at), c.missLatency.last()); // issued at 0
    EXPECT_GT(at, 0u);
    EXPECT_EQ(c.retiredMisses(), 1u);
    EXPECT_EQ(c.state(a), Cache::State::Exclusive);
    EXPECT_TRUE(c.quiet());
}

TEST(CacheTest, InterventionCausesCacheContention)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine mm(cfg);
    Addr a = mm.alloc(kLineSize, 0); // homed at 0
    Addr b = mm.alloc(kLineSize, 0);
    mm.run([a, b](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 0) {
            co_await env.write(a); // dirty at home
            co_await env.busy(40000);
            // While node 1's GET retrieves from our cache, hammer it.
            for (int i = 0; i < 2000; ++i) {
                co_await env.read(b);
                co_await env.busy(1);
            }
        } else {
            co_await env.busy(40020);
            co_await env.read(a); // intervention at node 0
        }
    });
    mm.drain();
    EXPECT_GT(mm.node(0).proc().breakdown().cont, 0u);
}

// Every home GET is NACKed (an injected probability of 1, which the CLI
// does not accept), so processor 0's one read miss retries forever.
// With verify off, the machine's hang check still stops the livelock:
// no miss retires within machine::kNoProgressWindow, and the message
// names the miss, its age and machine::kMaxTransactionAge.
TEST(CacheDeathTest, NackLivelockPastTheAgeLimitIsFatal)
{
    MachineConfig cfg = MachineConfig::flash(2);
    cfg.verify.fault.extraNackProb = 1.0;
    EXPECT_DEATH(
        {
            Machine mm(cfg);
            const Addr a = mm.alloc(kLineSize, 1);
            mm.run([a](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() == 0)
                    co_await env.read(a);
            });
        },
        "Machine: no miss retired for [0-9]+ cycles \\(limit 200000\\) "
        "with 1 outstanding, NACK livelock or deadlock; oldest: node 0 "
        "line 0x[0-9a-f]+ outstanding for [0-9]+ cycles \\(limit "
        "400000\\) after [0-9]+ NACKs");
}

// Reads block, so a write never finds its line's miss to be a read
// miss: the cache has no read-then-upgrade chase and panics instead.
TEST(CacheDeathTest, WriteIntoReadMissPanics)
{
    Machine mm(MachineConfig::flash(2));
    const Addr a = mm.alloc(kLineSize, 1);
    Cache &c = mm.node(0).cache();
    ASSERT_EQ(c.read(a, [] {}), Cache::ReadOutcome::Miss);
    EXPECT_DEATH(c.write(a + 8),
                 "Cache 0: write to line 0x[0-9a-f]+ merges into a read "
                 "miss");
}

// One processor blocks on each continuation it parks, so the cache
// holds one: a second one panics.
TEST(CacheDeathTest, SecondPendingContinuationPanics)
{
    Machine mm(MachineConfig::flash(2));
    Cache &c = mm.node(0).cache();
    c.onMshrFree([] {});
    EXPECT_DEATH(c.onMshrFree([] {}),
                 "Cache 0: a second continuation while one is pending");
}

} // namespace
} // namespace flashsim::machine
