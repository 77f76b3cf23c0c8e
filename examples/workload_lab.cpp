/**
 * @file
 * Workload lab: write your own workload against the public API.
 *
 * Demonstrates the Tango-style coroutine interface with a producer/
 * consumer pipeline (locks, barriers, and a migratory shared queue),
 * then sweeps it across cache sizes on FLASH and the ideal machine —
 * the same experiment structure the paper uses, applied to a new
 * program. Run with --help for options.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "machine/machine.hh"
#include "machine/report.hh"
#include "parse_count.hh"
#include "sim/sweep.hh"

using namespace flashsim;
using namespace flashsim::machine;

namespace
{

/** Shared state for the pipeline workload. */
struct PipelineState
{
    Addr queueBase = 0;  ///< ring of queue slots (one line each)
    int slots = 32;
    tango::LockVar lock;
    tango::BarrierVar bar;
    int head = 0; ///< host-side ring state
    int tail = 0;
    int produced = 0;
    int consumed = 0;
    int items = 512;
};

/** Even processors produce, odd processors consume. */
tango::Task
pipeline(tango::Env &env, std::shared_ptr<PipelineState> st)
{
    co_await env.busy(0);
    const bool producer = env.id() % 2 == 0;

    while (true) {
        // Work on private data between queue operations.
        co_await env.busy(400);

        co_await env.lockAcquire(st->lock);
        bool done = st->produced >= st->items &&
                    st->consumed >= st->items;
        bool can_produce =
            producer && st->produced < st->items &&
            (st->head + 1) % st->slots != st->tail;
        bool can_consume =
            !producer && st->consumed < st->produced &&
            st->tail != st->head;
        int slot = -1;
        if (can_produce) {
            slot = st->head;
            st->head = (st->head + 1) % st->slots;
            ++st->produced;
        } else if (can_consume) {
            slot = st->tail;
            st->tail = (st->tail + 1) % st->slots;
            ++st->consumed;
        }
        co_await env.lockRelease(st->lock);

        if (slot >= 0) {
            // Touch the queue slot: the line migrates from producer to
            // consumer caches (dirty remote misses, like MP3D's cells).
            Addr a = st->queueBase + static_cast<Addr>(slot) * kLineSize;
            co_await env.read(a);
            co_await env.busy(120);
            co_await env.write(a);
        }
        if (done)
            break;
    }
    co_await env.barrier(st->bar);
}

Summary
runPipeline(const MachineConfig &cfg)
{
    Machine m(cfg);
    auto st = std::make_shared<PipelineState>();
    st->queueBase =
        m.allocAuto(static_cast<Addr>(st->slots) * kLineSize);
    st->lock = m.makeLock(0);
    st->bar = m.makeBarrier();
    m.run([st](tango::Env &env) { return pipeline(env, st); });
    m.drain();
    return summarize(m);
}

void
usage()
{
    std::printf("usage: workload_lab [--procs N] [--jobs N]\n"
                "  --procs N  processors, at least 2: even ones produce,\n"
                "             odd ones consume (default 8)\n"
                "  --jobs N   sweep workers, 1 to 4096 (default: "
                "FLASHSIM_JOBS or hardware concurrency)\n"
                "exit codes: 0 ok, 1 usage\n");
}

/** Reject a bad command line: usage text, exit 1. */
[[noreturn]] void
reject()
{
    usage();
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    int procs = 8;
    int jobs = 0; // 0: FLASHSIM_JOBS or hardware concurrency
    for (int i = 1; i < argc; ++i) {
        auto nextCount = [&](std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t v = 0;
            if (i + 1 >= argc || !parseCount(argv[++i], lo, hi, v))
                reject();
            return static_cast<int>(v);
        };
        if (std::strcmp(argv[i], "--help") == 0) {
            usage();
            return 0;
        } else if (std::strcmp(argv[i], "--procs") == 0) {
            // One processor would only produce: nobody consumes, so the
            // pipeline never drains.
            procs = nextCount(2, EventQueue::kMaxNetNodes);
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            jobs = nextCount(1, 4096);
        } else {
            reject();
        }
    }

    std::printf("Workload lab: producer/consumer pipeline on %d "
                "processors\n\n", procs);
    std::printf("%-10s %-7s %10s %8s %8s %8s %8s\n", "cache", "machine",
                "cycles", "miss%", "sync%", "ppOcc%", "FLASH+%");

    // The cache-size sweep runs all six machines (3 sizes x
    // FLASH/ideal) as independent jobs; results come back in
    // submission order so the table below is identical however many
    // workers execute it.
    const std::uint32_t caches[] = {1u << 20, 64u * 1024u, 4096u};
    std::vector<std::function<Summary()>> sweep_jobs;
    for (std::uint32_t cache : caches) {
        MachineConfig f = MachineConfig::flash(procs, cache);
        MachineConfig i = MachineConfig::ideal(procs, cache);
        sweep_jobs.emplace_back([f] { return runPipeline(f); });
        sweep_jobs.emplace_back([i] { return runPipeline(i); });
    }
    sim::SweepRunner runner(jobs);
    std::vector<Summary> results = runner.run(std::move(sweep_jobs));

    for (std::size_t c = 0; c < std::size(caches); ++c) {
        std::uint32_t cache = caches[c];
        const Summary &sf = results[2 * c];
        const Summary &si = results[2 * c + 1];
        double slow = 100.0 * (static_cast<double>(sf.execTime) /
                                   static_cast<double>(si.execTime) -
                               1.0);
        char label[32];
        std::snprintf(label, sizeof label, "%u KB", cache / 1024);
        std::printf("%-10s %-7s %10llu %7.2f%% %7.1f%% %7.1f%% %7.1f%%\n",
                    label, "FLASH",
                    static_cast<unsigned long long>(sf.execTime),
                    100.0 * sf.missRate, 100.0 * sf.sync,
                    100.0 * sf.avgPpOcc, slow);
        std::printf("%-10s %-7s %10llu %7.2f%% %7.1f%% %7.1f%%\n", "",
                    "ideal",
                    static_cast<unsigned long long>(si.execTime),
                    100.0 * si.missRate, 100.0 * si.sync,
                    100.0 * si.avgPpOcc);
    }

    std::printf("\nThe lock line and queue slots migrate between "
                "producers and consumers; watch the flexibility cost "
                "rise as the cache shrinks and the traffic mix shifts "
                "toward the protocol processor.\n");
    return 0;
}
