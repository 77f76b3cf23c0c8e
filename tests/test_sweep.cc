/**
 * @file
 * Tests for the deterministic parallel sweep runner: pool mechanics
 * (ordering, job hand-out, exceptions, the FLASHSIM_JOBS knob) and the
 * serial-vs-parallel determinism guarantee — a multi-config sweep must
 * produce bit-identical per-job results on 1 worker and on N.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "apps/fft.hh"
#include "apps/lu.hh"
#include "apps/radix.hh"
#include "machine/report.hh"
#include "machine/runner.hh"
#include "sim/sweep.hh"

namespace flashsim::sim
{
namespace
{

TEST(SweepRunner, ResultsArriveInSubmissionOrder)
{
    SweepRunner runner(4);
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.emplace_back([i] {
            // Uneven synthetic work so completion order differs from
            // submission order.
            volatile int sink = 0;
            for (int k = 0; k < (i % 7) * 10000; ++k)
                sink = sink + k;
            return i * i;
        });
    std::vector<int> out = runner.run(std::move(jobs));
    ASSERT_EQ(out.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunner, RunsEveryJobExactlyOnce)
{
    SweepRunner runner(8);
    std::vector<std::atomic<int>> hits(100);
    runner.runIndexed(100, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, MetricsCoverAllJobs)
{
    SweepRunner runner(3);
    runner.runIndexed(10, [](std::size_t) {});
    const SweepMetrics &m = runner.lastMetrics();
    EXPECT_EQ(m.jobs.size(), 10u);
    EXPECT_EQ(m.workers, 3);
    for (const JobMetrics &j : m.jobs) {
        EXPECT_GE(j.worker, 0);
        EXPECT_LT(j.worker, 3);
        EXPECT_GE(j.wallSeconds, 0.0);
    }
    EXPECT_GE(m.wallSeconds, 0.0);
}

TEST(SweepRunner, WorkerCountClampsToJobCount)
{
    SweepRunner runner(16);
    runner.runIndexed(2, [](std::size_t) {});
    EXPECT_EQ(runner.lastMetrics().workers, 2);
}

TEST(SweepRunner, PropagatesJobException)
{
    SweepRunner runner(4);
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.emplace_back([i]() -> int {
            if (i == 5)
                throw std::runtime_error("job 5 failed");
            return i;
        });
    EXPECT_THROW(runner.run(std::move(jobs)), std::runtime_error);
}

TEST(SweepRunner, ExceptionCarriesFailingJobIndex)
{
    SweepRunner runner(4);
    try {
        runner.runIndexed(8, [](std::size_t i) {
            if (i == 5)
                throw std::runtime_error("cache size must be a power "
                                         "of two");
        });
        FAIL() << "expected SweepJobError";
    } catch (const SweepJobError &e) {
        EXPECT_EQ(e.jobIndex(), 5u);
        EXPECT_EQ(e.jobMessage(),
                  "cache size must be a power of two");
        EXPECT_NE(std::string(e.what()).find("sweep job 5"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SweepRunner, SmallestFailingIndexSurfacesDeterministically)
{
    // When several jobs fail, worker scheduling must not decide which
    // error the caller sees: the smallest index always wins.
    for (int workers : {1, 8}) {
        SweepRunner runner(workers);
        try {
            runner.runIndexed(16, [](std::size_t i) {
                if (i == 3 || i == 6 || i == 11)
                    throw std::runtime_error("job " + std::to_string(i));
            });
            FAIL() << "expected SweepJobError";
        } catch (const SweepJobError &e) {
            EXPECT_EQ(e.jobIndex(), 3u) << workers << " workers";
            EXPECT_EQ(e.jobMessage(), "job 3");
        }
    }
}

TEST(SweepRunner, RemainingJobsStillRunAfterFailure)
{
    SweepRunner runner(2);
    std::vector<std::atomic<int>> hits(12);
    EXPECT_THROW(runner.runIndexed(12,
                                   [&](std::size_t i) {
                                       ++hits[i];
                                       if (i == 0)
                                           throw std::runtime_error("x");
                                   }),
                 SweepJobError);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, NonStdExceptionIsStillAttributed)
{
    SweepRunner runner(3);
    try {
        runner.runIndexed(4, [](std::size_t i) {
            if (i == 2)
                throw 42; // not a std::exception
        });
        FAIL() << "expected SweepJobError";
    } catch (const SweepJobError &e) {
        EXPECT_EQ(e.jobIndex(), 2u);
        EXPECT_EQ(e.jobMessage(), "unknown exception");
    }
}

TEST(SweepRunner, EmptySweepIsFine)
{
    SweepRunner runner(4);
    std::vector<std::function<int()>> jobs;
    EXPECT_TRUE(runner.run(std::move(jobs)).empty());
}

TEST(ResolveWorkers, ExplicitRequestWins)
{
    ASSERT_EQ(setenv("FLASHSIM_JOBS", "7", 1), 0);
    EXPECT_EQ(resolveWorkers(3), 3);
    unsetenv("FLASHSIM_JOBS");
}

TEST(ResolveWorkers, ReadsEnvironmentKnob)
{
    ASSERT_EQ(setenv("FLASHSIM_JOBS", "5", 1), 0);
    EXPECT_EQ(resolveWorkers(0), 5);
    unsetenv("FLASHSIM_JOBS");
}

TEST(ResolveWorkers, IgnoresInvalidEnvironment)
{
    ASSERT_EQ(setenv("FLASHSIM_JOBS", "zero", 1), 0);
    EXPECT_GE(resolveWorkers(0), 1);
    unsetenv("FLASHSIM_JOBS");
}

// ---------------------------------------------------------------------------
// Determinism: a sweep's per-job results must not depend on the worker
// count. Each job owns its Machine, EventQueue and stats, and every
// simulation is internally deterministic, so 1 worker and N workers
// must agree bit for bit.

/** Everything a bench report reads from one run. */
struct RunDigest
{
    Tick execTime = 0;
    double missRate = 0;
    double avgPpOcc = 0;
    double maxPpOcc = 0;
    double avgMemOcc = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t messages = 0;
    std::uint64_t dataMessages = 0;
};

template <typename App, typename Params>
std::function<RunDigest()>
digestJob(machine::MachineConfig cfg, Params params)
{
    return [cfg, params] {
        App w(params);
        auto m = apps::runWorkload(cfg, w);
        machine::Summary s = machine::summarize(*m);
        RunDigest d;
        d.execTime = s.execTime;
        d.missRate = s.missRate;
        d.avgPpOcc = s.avgPpOcc;
        d.maxPpOcc = s.maxPpOcc;
        d.avgMemOcc = s.avgMemOcc;
        d.readMisses = s.readMisses;
        d.writeMisses = s.writeMisses;
        d.messages = m->network().messages();
        d.dataMessages = m->network().dataMessages();
        return d;
    };
}

/** A small multi-config sweep: three apps across machine flavours,
 *  processor counts and cache sizes. */
std::vector<std::function<RunDigest()>>
multiConfigJobs()
{
    apps::FftParams fft;
    fft.logN = 10;
    apps::LuParams lu;
    lu.n = 64;
    apps::RadixParams radix;
    radix.keys = 1 << 12;

    std::vector<std::function<RunDigest()>> jobs;
    jobs.push_back(digestJob<apps::Fft>(
        machine::MachineConfig::flash(4, 64u * 1024u), fft));
    jobs.push_back(digestJob<apps::Fft>(
        machine::MachineConfig::ideal(4, 64u * 1024u), fft));
    jobs.push_back(digestJob<apps::Lu>(
        machine::MachineConfig::flash(16, 64u * 1024u), lu));
    jobs.push_back(digestJob<apps::Radix>(
        machine::MachineConfig::flash(4, 16u * 1024u), radix));
    jobs.push_back(digestJob<apps::Radix>(
        machine::MachineConfig::ideal(4, 16u * 1024u), radix));
    return jobs;
}

TEST(SweepDeterminism, MultiConfigSweepIdenticalAcrossWorkerCounts)
{
    SweepRunner serial(1);
    SweepRunner parallel(8);
    std::vector<RunDigest> a = serial.run(multiConfigJobs());
    std::vector<RunDigest> b = parallel.run(multiConfigJobs());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(a[i].execTime, b[i].execTime);
        EXPECT_EQ(a[i].missRate, b[i].missRate);
        EXPECT_EQ(a[i].avgPpOcc, b[i].avgPpOcc);
        EXPECT_EQ(a[i].maxPpOcc, b[i].maxPpOcc);
        EXPECT_EQ(a[i].avgMemOcc, b[i].avgMemOcc);
        EXPECT_EQ(a[i].readMisses, b[i].readMisses);
        EXPECT_EQ(a[i].writeMisses, b[i].writeMisses);
        EXPECT_EQ(a[i].messages, b[i].messages);
        EXPECT_EQ(a[i].dataMessages, b[i].dataMessages);
    }
}

TEST(SweepDeterminism, ProbeSweepIdenticalAcrossWorkerCounts)
{
    machine::MachineConfig cfg = machine::MachineConfig::flash(4);
    SweepRunner serial(1);
    SweepRunner parallel(8);
    machine::ProbeResult a = machine::probeMissLatencies(cfg, &serial);
    machine::ProbeResult b = machine::probeMissLatencies(cfg, &parallel);

    EXPECT_EQ(a.latency.localClean, b.latency.localClean);
    EXPECT_EQ(a.latency.localDirtyRemote, b.latency.localDirtyRemote);
    EXPECT_EQ(a.latency.remoteClean, b.latency.remoteClean);
    EXPECT_EQ(a.latency.remoteDirtyHome, b.latency.remoteDirtyHome);
    EXPECT_EQ(a.latency.remoteDirtyRemote, b.latency.remoteDirtyRemote);
    EXPECT_EQ(a.ppOccupancy.localClean, b.ppOccupancy.localClean);
    EXPECT_EQ(a.ppOccupancy.localDirtyRemote,
              b.ppOccupancy.localDirtyRemote);
    EXPECT_EQ(a.ppOccupancy.remoteClean, b.ppOccupancy.remoteClean);
    EXPECT_EQ(a.ppOccupancy.remoteDirtyHome,
              b.ppOccupancy.remoteDirtyHome);
    EXPECT_EQ(a.ppOccupancy.remoteDirtyRemote,
              b.ppOccupancy.remoteDirtyRemote);
}

} // namespace
} // namespace flashsim::sim
