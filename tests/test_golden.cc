/**
 * @file
 * Golden run records: the exact simulated outputs of a fixed set of
 * small runs, committed under tests/golden/. Each record holds the
 * machine execution time, Machine::stateDigest() and a full-fat
 * signature — the complete report Summary, mesh counters and, when the
 * run checks or injects, the oracle's verdicts, the injector's draw
 * counts and the post-mortem trace rings. Any change to a simulated
 * result fails here.
 *
 * Coverage: the seven workloads on FLASH and on the ideal machine,
 * small (64 KB) caches for Radix and FFT, Table 3.4 timing, the
 * baseline PP, a verified run with seeded fault injection, a
 * lock-contended OS run, a 64-processor barrier-heavy LU run, and the
 * acquisition order of a lock/barrier torture loop.
 *
 * A model change that moves these numbers on purpose replaces the
 * record: on a mismatch the test prints the new one in full.
 * VerifyTimingTest checks that turning verification on moves no result.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/barnes.hh"
#include "apps/fft.hh"
#include "apps/lu.hh"
#include "apps/mp3d.hh"
#include "apps/ocean.hh"
#include "apps/os_workload.hh"
#include "apps/radix.hh"
#include "apps/workload.hh"
#include "machine/machine.hh"
#include "machine/report.hh"

namespace flashsim::apps
{
namespace
{

using machine::Machine;
using machine::MachineConfig;

/** The report Summary and mesh counters of a finished run, serialized:
 *  what a run reports whether or not the oracle watched it. */
std::string
runSignature(Machine &m)
{
    const machine::Summary s = machine::summarize(m);
    std::ostringstream os;
    os.precision(17);
    os << s.execTime << '|' << s.busy << '|' << s.cont << '|' << s.read
       << '|' << s.write << '|' << s.sync << '|' << s.missRate << '|'
       << s.dist.localClean << '|' << s.dist.localDirtyRemote << '|'
       << s.dist.remoteClean << '|' << s.dist.remoteDirtyHome << '|'
       << s.dist.remoteDirtyRemote << '|' << s.avgMemOcc << '|'
       << s.maxMemOcc << '|' << s.avgPpOcc << '|' << s.maxPpOcc << '|'
       << s.cacheReads << '|' << s.cacheWrites << '|'
       << s.backgroundRefs << '|' << s.readMisses << '|'
       << s.writeMisses << '|' << s.handlerInvocations << '|'
       << s.specIssued << '|' << s.specUselessFrac << '|'
       << s.mdcMissRate << '|' << s.mdcProtocolMemOps << '|'
       << s.nacksSent << '|' << m.network().messages() << '|'
       << m.network().dataMessages() << '|';
    return os.str();
}

/**
 * Everything observable about a finished run, serialized: runSignature
 * plus, when the run checks or injects, the oracle's verdicts, the
 * injector's draw counts and the post-mortem. The post-mortem is
 * compared from its "recent activity" trace rings on: the header's
 * "t=" is the queue's final time after drain(), not machine state.
 */
std::string
signature(Machine &m)
{
    std::ostringstream os;
    os << runSignature(m);
    const verify::CoherenceOracle *oracle = m.oracle();
    const verify::FaultInjector *inj = m.injector();
    if (oracle || inj) {
        // The second field counted hang trips, which are now fatal, so
        // a finished run prints 0 there.
        Counter retired = 0;
        for (int n = 0; n < m.numProcs(); ++n)
            retired += m.node(n).cache().retiredMisses();
        os << (oracle ? oracle->violations() : 0) << '|' << 0 << '|'
           << retired << '|' << (oracle ? oracle->trackedLines() : 0)
           << '|';
        if (inj)
            os << inj->nacksInjected() << '|' << inj->hintsDropped() << '|'
               << inj->hintsDuped() << '|' << inj->jitterCycles() << '|'
               << inj->stallCycles() << '|';
        std::ostringstream pm;
        m.writePostMortem(pm, "signature");
        const std::string text = pm.str();
        const std::size_t at = text.find("recent activity");
        os << (at == std::string::npos ? text : text.substr(at));
    }
    return os.str();
}

/**
 * Host-side synchronization torture: contended locks interleaved with
 * barrier episodes, with the critical section recording the exact
 * acquisition order. The winner order is set by the per-tick sync
 * phase (tango/sync_phase.hh).
 */
struct TortureResult
{
    std::vector<int> order;
    std::uint64_t acquisitions = 0;
    int generations = 0;
    std::uint64_t counter = 0;
    Tick execTime = 0;
    std::uint64_t digest = 0;
};

TortureResult
runTorture()
{
    MachineConfig cfg = MachineConfig::flash(8, 64u * 1024u);
    Machine m(cfg);
    auto lock = std::make_shared<tango::LockVar>(m.makeLock(3));
    auto bar = std::make_shared<tango::BarrierVar>(m.makeBarrier());
    auto order = std::make_shared<std::vector<int>>();
    auto counter = std::make_shared<std::uint64_t>(0);
    const Tick t = m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 6; ++round) {
            // Skew arrival so different processors reach the lock
            // first in different rounds.
            co_await env.busy(37 * static_cast<std::uint64_t>(
                                       (env.id() + round) % 8));
            co_await env.lockAcquire(*lock);
            order->push_back(env.id());
            *counter += static_cast<std::uint64_t>(env.id()) + 1;
            co_await env.busy(25);
            co_await env.lockRelease(*lock);
            co_await env.barrier(*bar);
        }
    });
    m.drain();
    TortureResult r;
    r.order = *order;
    r.acquisitions = lock->acquisitions;
    r.generations = bar->gen;
    r.counter = *counter;
    r.execTime = t;
    r.digest = m.stateDigest();
    return r;
}

// ---------------------------------------------------------------------------
// Records

std::string
formatRecord(Tick exec_time, std::uint64_t digest, const std::string &sig)
{
    std::ostringstream os;
    os << "execTime " << exec_time << "\nstateDigest " << digest
       << "\nsignature\n"
       << sig << "\n";
    return os.str();
}

/** Compare @p actual against tests/golden/@p name.txt; on a mismatch
 *  print the replacement record in full. */
void
expectGolden(const std::string &name, const std::string &actual)
{
    const std::string path =
        std::string(FLASHSIM_GOLDEN_DIR) + "/" + name + ".txt";
    std::ifstream in(path, std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    if (in && expected.str() == actual)
        return;
    ADD_FAILURE() << (in ? "golden record differs: " : "no golden record: ")
                  << path
                  << "\nIf the change is intended, replace the file with "
                     "the record between the markers:\n"
                     "----- begin " << name << " -----\n"
                  << actual << "----- end " << name << " -----";
}

/** Reduced problem sizes: every case stays well under a second. */
std::unique_ptr<Workload>
makeGoldenWorkload(const std::string &name)
{
    if (name == "fft") {
        FftParams p;
        p.logN = 10;
        return std::make_unique<Fft>(p);
    }
    if (name == "lu") {
        LuParams p;
        p.n = 64;
        return std::make_unique<Lu>(p);
    }
    if (name == "lu_64p") {
        // 4x4 blocks over an 8x8 processor grid: most processors own
        // no block in most steps, so the run is mostly barrier waits.
        LuParams p;
        p.n = 64;
        return std::make_unique<Lu>(p);
    }
    if (name == "os_locks") {
        // Short user phases between the kernel's locked sections, so
        // every processor queues on the fs and table locks.
        OsParams p;
        p.tasks = 3;
        p.userLines = 4;
        p.pagesPerTask = 1;
        p.hotOpsPerTask = 8;
        return std::make_unique<OsWorkload>(p);
    }
    if (name == "ocean") {
        OceanParams p;
        p.n = 34;
        p.iters = 2;
        p.grids = 3;
        return std::make_unique<Ocean>(p);
    }
    if (name == "radix") {
        RadixParams p;
        p.keys = 1 << 12;
        return std::make_unique<Radix>(p);
    }
    if (name == "barnes") {
        BarnesParams p;
        p.particles = 256;
        p.steps = 2;
        return std::make_unique<Barnes>(p);
    }
    if (name == "mp3d") {
        Mp3dParams p;
        p.particles = 1024;
        p.steps = 2;
        p.cells = 256;
        return std::make_unique<Mp3d>(p);
    }
    OsParams p;
    p.tasks = 1;
    p.userLines = 32;
    p.pagesPerTask = 2;
    return std::make_unique<OsWorkload>(p);
}

/** Verification on, halting off, so a record captures the verdicts. */
void
verifyOn(MachineConfig &cfg)
{
    cfg.verify.check = true;
    cfg.verify.haltOnViolation = false;
}

struct GoldenCase
{
    std::string name;
    std::string app;
    MachineConfig cfg;
};

std::vector<GoldenCase>
goldenCases()
{
    constexpr int kProcs = 16;
    constexpr std::uint32_t k64K = 64u * 1024u;
    std::vector<GoldenCase> cases;
    for (const std::string &app : allWorkloadNames()) {
        cases.push_back({app + "_flash", app, MachineConfig::flash(kProcs)});
        cases.push_back({app + "_ideal", app, MachineConfig::ideal(kProcs)});
    }
    cases.push_back({"radix_flash_64k", "radix",
                     MachineConfig::flash(kProcs, k64K)});
    cases.push_back(
        {"fft_flash_64k", "fft", MachineConfig::flash(kProcs, k64K)});

    // flashsim_cli --table-timing
    MachineConfig table = MachineConfig::flash(kProcs);
    table.magic.usePpEmulator = false;
    cases.push_back({"mp3d_table_timing", "mp3d", table});

    // flashsim_cli --baseline-pp
    MachineConfig baseline = MachineConfig::flash(kProcs);
    baseline.ppCompile = ppc::CompileOptions{false, false};
    cases.push_back({"fft_baseline_pp", "fft", baseline});

    // flashsim_cli --verify --inject-seed 7 with every commit-plane
    // injection class on.
    MachineConfig injected = MachineConfig::flash(kProcs, k64K);
    verifyOn(injected);
    injected.verify.fault.seed = 7;
    injected.verify.fault.meshJitter = 10;
    injected.verify.fault.extraNackProb = 0.05;
    injected.verify.fault.dropHintProb = 0.05;
    injected.verify.fault.dupHintProb = 0.05;
    injected.verify.fault.inboundStall = 4;
    cases.push_back({"mp3d_verify_inject7", "mp3d", injected});

    // Lock and barrier waits: many processors spinning on one line.
    cases.push_back({"os_locks_flash", "os_locks",
                     MachineConfig::flash(kProcs)});
    cases.push_back({"lu_64p_flash", "lu_64p", MachineConfig::flash(64)});
    return cases;
}

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase>
{};

TEST_P(GoldenTest, RunMatchesRecord)
{
    const GoldenCase &c = GetParam();
    auto w = makeGoldenWorkload(c.app);
    auto m = runWorkload(c.cfg, *w);
    if (const verify::CoherenceOracle *oracle = m->oracle()) {
        EXPECT_EQ(oracle->violations(), 0u);
    }
    expectGolden(c.name, formatRecord(m->executionTime(),
                                      m->stateDigest(), signature(*m)));
}

INSTANTIATE_TEST_SUITE_P(
    Runs, GoldenTest, ::testing::ValuesIn(goldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return info.param.name;
    });

// A fault seed with every class at zero injects nothing, so it must
// build no injector and leave the run exactly the plain FLASH record.
TEST(InjectionTest, ZeroClassInjectorIsOff)
{
    MachineConfig cfg = MachineConfig::flash(16);
    cfg.verify.fault.seed = 7;
    ASSERT_FALSE(cfg.verify.fault.any());
    auto w = makeGoldenWorkload("mp3d");
    auto m = runWorkload(cfg, *w);
    EXPECT_EQ(m->injector(), nullptr);
    EXPECT_EQ(m->oracle(), nullptr);
    EXPECT_EQ(m->executionTime(), 54760u);
    EXPECT_EQ(m->stateDigest(), 345467276190240738ull);
    expectGolden("mp3d_flash", formatRecord(m->executionTime(),
                                            m->stateDigest(), signature(*m)));
}

// Verification only observes: the same run with the oracle checking
// every handler, and every PP handler run replayed through the
// reference interpreter, must reach the same time, state and report
// as without.
class VerifyTimingTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(VerifyTimingTest, CheckNeverMovesTiming)
{
    MachineConfig cfg = MachineConfig::flash(8, 64u * 1024u);
    auto w_off = makeGoldenWorkload(GetParam());
    auto off = runWorkload(cfg, *w_off);
    ASSERT_EQ(off->oracle(), nullptr);

    verifyOn(cfg);
    auto w_on = makeGoldenWorkload(GetParam());
    auto on = runWorkload(cfg, *w_on);
    ASSERT_NE(on->oracle(), nullptr);
    EXPECT_EQ(on->oracle()->violations(), 0u);

    EXPECT_EQ(on->executionTime(), off->executionTime());
    EXPECT_EQ(on->stateDigest(), off->stateDigest());
    EXPECT_EQ(runSignature(*on), runSignature(*off));
}

INSTANTIATE_TEST_SUITE_P(
    Apps, VerifyTimingTest,
    ::testing::Values(std::string("fft"), std::string("mp3d"),
                      std::string("radix")),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(GoldenTest, LockAndBarrierTortureOrderMatchesRecord)
{
    const TortureResult r = runTorture();
    ASSERT_EQ(r.order.size(), 48u);
    EXPECT_EQ(r.acquisitions, 48u);
    EXPECT_EQ(r.generations, 6);
    std::ostringstream sig;
    sig << "order";
    for (int id : r.order)
        sig << ' ' << id;
    sig << "\nacquisitions " << r.acquisitions << "\ngenerations "
        << r.generations << "\ncounter " << r.counter;
    expectGolden("lock_barrier_torture",
                 formatRecord(r.execTime, r.digest, sig.str()));
}

} // namespace
} // namespace flashsim::apps
