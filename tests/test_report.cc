/** @file Tests for run summaries and report formatting. */

#include <gtest/gtest.h>

#include "machine/report.hh"
#include "machine/runner.hh"

namespace flashsim::machine
{
namespace
{

TEST(Report, CrmtIsWeightedSum)
{
    MissLatencies l;
    l.localClean = 20;
    l.localDirtyRemote = 100;
    l.remoteClean = 90;
    l.remoteDirtyHome = 140;
    l.remoteDirtyRemote = 190;
    ReadMissDistribution d;
    d.localClean = 0.2;
    d.localDirtyRemote = 0.1;
    d.remoteClean = 0.3;
    d.remoteDirtyHome = 0.3;
    d.remoteDirtyRemote = 0.1;
    EXPECT_NEAR(l.crmt(d), 0.2 * 20 + 0.1 * 100 + 0.3 * 90 + 0.3 * 140 +
                               0.1 * 190,
                1e-9);
}

TEST(Report, BreakdownRowNormalizes)
{
    Summary s;
    s.execTime = 500;
    s.busy = 0.5;
    s.read = 0.5;
    std::string row = breakdownRow("test", s, 1000.0);
    // Normalized height = 50.0; busy and read shares = 25.0 each.
    EXPECT_NE(row.find("test"), std::string::npos);
    EXPECT_NE(row.find("50.0"), std::string::npos);
    EXPECT_NE(row.find("25.0"), std::string::npos);
    EXPECT_FALSE(breakdownHeader().empty());
}

TEST(Report, SummaryOfQuietMachineIsSane)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    m.run([](tango::Env &env) -> tango::Task {
        co_await env.busy(400);
    });
    Summary s = summarize(m);
    EXPECT_EQ(s.execTime, 100u);
    EXPECT_DOUBLE_EQ(s.busy, 1.0);
    EXPECT_EQ(s.readMisses + s.writeMisses, 0u);
    EXPECT_EQ(s.nacksSent, 0u);
    EXPECT_DOUBLE_EQ(s.missRate, 0.0);
}

TEST(Report, OccupanciesBoundedByOne)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    Addr base = m.allocAuto(64 * kLineSize);
    m.run([base](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int i = 0; i < 64; ++i)
            co_await env.read(base + static_cast<Addr>(i) * kLineSize);
    });
    m.drain();
    Summary s = summarize(m);
    EXPECT_GE(s.maxPpOcc, s.avgPpOcc);
    EXPECT_GE(s.maxMemOcc, s.avgMemOcc);
    EXPECT_LE(s.maxPpOcc, 1.0);
    EXPECT_LE(s.maxMemOcc, 1.0);
    EXPECT_GT(s.avgPpOcc, 0.0);
}

TEST(Report, ProbeDetectsConfigChanges)
{
    // A larger mesh (longer average transit) must show up in the remote
    // classes but not the local clean latency.
    MachineConfig near = MachineConfig::flash(16);
    MachineConfig far = MachineConfig::flash(64);
    ProbeResult a = probeMissLatencies(near);
    ProbeResult b = probeMissLatencies(far);
    EXPECT_EQ(a.latency.localClean, b.latency.localClean);
    // Request and reply each cross the mesh: a 32-cycle average transit
    // on 8x8 nodes against 22 on 4x4.
    EXPECT_EQ(b.latency.remoteClean, a.latency.remoteClean + 2 * (32 - 22));
}

} // namespace
} // namespace flashsim::machine
