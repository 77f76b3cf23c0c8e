/**
 * @file
 * Multi-seed fault-injection soak: every (seed, workload) pair runs
 * with the coherence oracle enabled under seeded protocol perturbation
 * (mesh jitter, forced NACKs, hint drop/duplication, inbound stalls)
 * and must finish with zero violations (a hang would be fatal).
 * This is the robustness acceptance bar: injection stresses the
 * NACK/retry and stale-pointer corner paths far harder than clean runs
 * do, and the oracle holds the machine to the golden invariants the
 * whole way. The sweep runs on the SweepRunner pool, so it also
 * soaks the per-thread log-context and post-mortem plumbing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/fft.hh"
#include "apps/lu.hh"
#include "apps/radix.hh"
#include "apps/workload.hh"
#include "machine/machine.hh"
#include "sim/sweep.hh"

namespace flashsim::apps
{
namespace
{

constexpr int kSeeds = 8;

std::unique_ptr<Workload>
makeSoakWorkload(int which)
{
    switch (which) {
      case 0: {
          FftParams p;
          p.logN = 10;
          return std::make_unique<Fft>(p);
      }
      case 1: {
          LuParams p;
          p.n = 64;
          return std::make_unique<Lu>(p);
      }
      default: {
          RadixParams p;
          p.keys = 1 << 12;
          return std::make_unique<Radix>(p);
      }
    }
}

machine::MachineConfig
soakConfig(std::uint64_t seed)
{
    // Small caches raise the eviction (hint) rate; moderate injection
    // probabilities exercise every perturbation without livelocking.
    machine::MachineConfig cfg = machine::MachineConfig::flash(4, 64u * 1024u);
    cfg.verify.check = true;
    cfg.verify.haltOnViolation = false;
    cfg.verify.fault.seed = seed;
    cfg.verify.fault.meshJitter = 10;
    cfg.verify.fault.extraNackProb = 0.05;
    cfg.verify.fault.dropHintProb = 0.05;
    cfg.verify.fault.dupHintProb = 0.05;
    cfg.verify.fault.inboundStall = 4;
    return cfg;
}

struct SoakResult
{
    Tick execTime = 0;
    Counter violations = 0;
    Counter retired = 0;
    Counter perturbations = 0;
    std::size_t trackedLines = 0;
};

TEST(SoakTest, MultiSeedInjectionSweepIsOracleClean)
{
    std::vector<std::function<SoakResult()>> jobs;
    for (int w = 0; w < 3; ++w) {
        for (int s = 0; s < kSeeds; ++s) {
            jobs.emplace_back([w, s] {
                auto workload = makeSoakWorkload(w);
                auto m = runWorkload(soakConfig(
                                         static_cast<std::uint64_t>(s) + 1),
                                     *workload);
                SoakResult r;
                r.execTime = m->executionTime();
                r.violations = m->oracle()->violations();
                for (int n = 0; n < m->numProcs(); ++n)
                    r.retired += m->node(n).cache().retiredMisses();
                const verify::FaultInjector *inj = m->injector();
                r.perturbations = inj->nacksInjected() +
                                  inj->hintsDropped() + inj->hintsDuped() +
                                  inj->jitterCycles() + inj->stallCycles();
                r.trackedLines = m->oracle()->trackedLines();
                return r;
            });
        }
    }

    sim::SweepRunner runner;
    std::vector<SoakResult> results = runner.run(std::move(jobs));
    ASSERT_EQ(results.size(), static_cast<std::size_t>(3 * kSeeds));
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("workload " + std::to_string(i / kSeeds) + " seed " +
                     std::to_string(i % kSeeds + 1));
        const SoakResult &r = results[i];
        EXPECT_EQ(r.violations, 0u);
        EXPECT_GT(r.execTime, 0u);
        EXPECT_GT(r.retired, 0u);
        EXPECT_GT(r.trackedLines, 0u);
        // The injector actually perturbed the run (otherwise the soak
        // proves nothing).
        EXPECT_GT(r.perturbations, 0u);
    }
}

TEST(SoakTest, InjectionSweepIsDeterministicAcrossWorkerCounts)
{
    // The thread-local post-mortem plumbing must not let one worker's
    // machine leak into another's: the same injected job list must
    // digest identically serial and parallel.
    auto jobs = [] {
        std::vector<std::function<Tick()>> v;
        for (int s = 0; s < 4; ++s)
            v.emplace_back([s] {
                auto w = makeSoakWorkload(s % 3);
                auto m = runWorkload(
                    soakConfig(static_cast<std::uint64_t>(s) + 1), *w);
                return m->executionTime();
            });
        return v;
    };
    sim::SweepRunner serial(1);
    sim::SweepRunner parallel(4);
    EXPECT_EQ(serial.run(jobs()), parallel.run(jobs()));
}

} // namespace
} // namespace flashsim::apps
