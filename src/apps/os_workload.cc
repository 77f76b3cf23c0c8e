#include "apps/os_workload.hh"

#include "sim/logging.hh"

namespace flashsim::apps
{

namespace
{
constexpr int kNumLocks = 6; ///< fs, vm, proc, buffer, vnode, sched
// The task loop draws a non-fs lock as 1 + below(kNumLocks - 1), so a
// single-lock configuration would pass Rng::below a zero bound
// (division by zero before that assertion existed).
static_assert(kNumLocks > 1, "need at least one non-fs kernel lock");
} // namespace

void
OsWorkload::setup(machine::Machine &m)
{
    // The kernel phases draw uniformly over these ranges every task, so
    // a degenerate sweep configuration must fail here with a clear
    // message rather than hand Rng::below a zero bound mid-run.
    if (p_.fileCacheLines <= 0 || p_.kernelTableLines <= 0 ||
        p_.hotLines <= 0)
        panic("OsWorkload: fileCacheLines/kernelTableLines/hotLines "
              "must be positive (got %d/%d/%d)", p_.fileCacheLines,
              p_.kernelTableLines, p_.hotLines);

    nprocs_ = m.numProcs();
    for (int p = 0; p < nprocs_; ++p)
        userBase_.push_back(
            m.alloc(static_cast<Addr>(p_.userLines) * kLineSize,
                    static_cast<NodeId>(p)));
    // Kernel tables and the file cache are striped by the machine's
    // page placement policy (round-robin in the tuned kernel; first-fit
    // reproduces the original bus-oriented IRIX port of Section 4.3).
    kernelBase_ = m.allocAuto(
        static_cast<Addr>(p_.kernelTableLines) * kLineSize);
    hotBase_ = m.allocAuto(static_cast<Addr>(p_.hotLines) * kLineSize);
    fileBase_ =
        m.allocAuto(static_cast<Addr>(p_.fileCacheLines) * kLineSize);
    // Fresh-page pool: enough pages for every task of every process.
    int total_pages = p_.pagesPerTask * p_.tasks * nprocs_;
    for (int i = 0; i < total_pages; ++i)
        freshPages_.push_back(m.allocAuto(kPageBytes));
    for (int l = 0; l < kNumLocks; ++l)
        locks_.push_back(
            m.makeLock(static_cast<NodeId>(l % nprocs_)));
    bar_ = m.makeBarrier();
}

tango::Task
OsWorkload::run(tango::Env &env)
{
    co_await env.busy(0);
    const int me = env.id();
    Rng rng(p_.seed + static_cast<std::uint64_t>(me) * 13 + 1);
    const Addr my_user = userBase_[static_cast<std::size_t>(me)];
    constexpr Addr lines_per_page = kPageBytes / kLineSize;

    for (int task = 0; task < p_.tasks; ++task) {
        // --- User mode: a compiler pass over the private working set.
        for (int sweep = 0; sweep < 2; ++sweep) {
            for (int l = 0; l < p_.userLines; ++l) {
                Addr a = my_user + static_cast<Addr>(l) * kLineSize;
                co_await env.read(a);
                co_await env.busy(p_.userInstrsPerLine);
                if ((l & 3) == 0)
                    co_await env.write(a);
            }
        }

        // --- Kernel: open/read source files (file cache + fs lock).
        co_await env.lockAcquire(locks_[0]);
        for (int i = 0; i < 56; ++i) {
            Addr a = fileBase_ +
                     rng.below(static_cast<std::uint64_t>(
                         p_.fileCacheLines)) *
                         kLineSize;
            co_await env.read(a);
            co_await env.busy(p_.kernelInstrsPerOp);
        }
        co_await env.lockRelease(locks_[0]);

        // --- Kernel: process management / scheduling tables.
        int lock_id = 1 + static_cast<int>(rng.below(kNumLocks - 1));
        co_await env.lockAcquire(locks_[static_cast<std::size_t>(lock_id)]);
        for (int i = 0; i < 40; ++i) {
            Addr a = kernelBase_ +
                     rng.below(static_cast<std::uint64_t>(
                         p_.kernelTableLines)) *
                         kLineSize;
            co_await env.read(a);
            co_await env.busy(p_.kernelInstrsPerOp);
            if ((i & 1) == 0)
                co_await env.write(a);
        }
        co_await env.lockRelease(locks_[static_cast<std::size_t>(lock_id)]);

        // --- Kernel: scheduler / VM hot counters. A small set of
        // intensively write-shared lines (run queues, page counters)
        // that every processor read-modify-writes constantly. This is
        // the traffic that makes the original first-fit IRIX port
        // protocol-processor-bound on node 0 (Section 4.3): the dirty
        // lines migrate cache-to-cache, loading the home PP with
        // forwards/invals/acks while barely touching its memory.
        for (int i = 0; i < p_.hotOpsPerTask; ++i) {
            Addr a = hotBase_ +
                     rng.below(static_cast<std::uint64_t>(p_.hotLines)) *
                         kLineSize;
            co_await env.read(a);
            co_await env.busy(30);
            // Mostly-read counters: the occasional update invalidates
            // every reader, so the home PP pays a long invalidation
            // burst for a single (usually useless) memory access.
            if (rng.below(3) == 0)
                co_await env.write(a);
        }

        // --- Kernel: allocate and zero fresh pages for the compiler.
        // The pages come from the machine-wide pool, so their homes
        // follow the page placement policy; zeroing is pure local-or-
        // remote memory bandwidth (write misses with no sharers).
        for (int pg = 0; pg < p_.pagesPerTask; ++pg) {
            std::size_t idx =
                (static_cast<std::size_t>(me) * p_.tasks + task) *
                    p_.pagesPerTask +
                pg;
            Addr page = freshPages_[idx % freshPages_.size()];
            for (Addr l = 0; l < lines_per_page; ++l) {
                co_await env.write(page + l * kLineSize);
                co_await env.busy(16);
            }
        }

        // --- User mode: code generation over the working set again.
        for (int l = 0; l < p_.userLines; ++l) {
            Addr a = my_user + static_cast<Addr>(l) * kLineSize;
            co_await env.read(a);
            co_await env.busy(p_.userInstrsPerLine / 2);
            co_await env.write(a);
        }
    }
    co_await env.barrier(bar_);
}

} // namespace flashsim::apps
