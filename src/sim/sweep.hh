/**
 * @file
 * Deterministic parallel sweep runner.
 *
 * The paper's FlashLite simulator was multi-threaded; our reproduction
 * keeps each simulated machine single-threaded and deterministic, but
 * experiment *sweeps* — Table 3.3's ten probe runs, the Figure 4.1-4.3
 * multi-workload comparisons, cache-size sweeps — are embarrassingly
 * parallel: every job owns its own Machine, EventQueue and statistics.
 *
 * SweepRunner spreads such jobs across a pool of worker threads and
 * returns results indexed by submission order, so a sweep's output is
 * bit-identical whether it runs on 1 worker or N. Jobs must be
 * independent (no shared mutable state); each job's simulation is
 * internally deterministic, so parallelism only changes wall-clock
 * time, never results.
 *
 * The worker count comes from (in priority order) the explicit
 * constructor argument, the FLASHSIM_JOBS environment variable, and
 * std::thread::hardware_concurrency().
 */

#ifndef FLASHSIM_SIM_SWEEP_HH_
#define FLASHSIM_SIM_SWEEP_HH_

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace flashsim::sim
{

/**
 * A sweep job threw: wraps the original error with the failing job's
 * submission index, so the caller can report exactly which config died
 * (a 200-point sweep losing one job to an unattributed exception is
 * undebuggable). When several jobs fail, the one with the smallest
 * index is surfaced — deterministic regardless of worker scheduling.
 */
class SweepJobError : public std::runtime_error
{
  public:
    SweepJobError(std::size_t job, const std::string &message)
        : std::runtime_error("sweep job " + std::to_string(job) + ": " +
                             message),
          job_(job), message_(message)
    {}

    /** Submission index of the job that threw. */
    std::size_t jobIndex() const { return job_; }
    /** The original exception's message. */
    const std::string &jobMessage() const { return message_; }

  private:
    std::size_t job_;
    std::string message_;
};

/** Per-job measurement recorded by the sweep runner. */
struct JobMetrics
{
    double wallSeconds = 0.0; ///< wall-clock time of the job body
    int worker = -1;          ///< index of the worker that ran the job
};

/** Aggregate metrics of one SweepRunner::run() call. */
struct SweepMetrics
{
    double wallSeconds = 0.0;   ///< whole-sweep wall-clock time
    double serialSeconds = 0.0; ///< sum of the per-job wall-clock times
    int workers = 0;            ///< workers actually used
    std::vector<JobMetrics> jobs; ///< indexed by submission order

    /** Effective speedup over running the same jobs back to back. */
    double
    speedup() const
    {
        return wallSeconds > 0.0 ? serialSeconds / wallSeconds : 0.0;
    }
};

/**
 * Resolve a worker count: @p requested if positive, else the
 * FLASHSIM_JOBS environment variable if set and valid, else
 * hardware_concurrency() (minimum 1).
 */
int resolveWorkers(int requested = 0);

/**
 * Thread pool for independent simulation jobs.
 *
 * Each worker claims the next unclaimed job index from one shared
 * atomic counter until none is left. Results land in a vector indexed
 * by submission order, so output ordering (and therefore any report
 * built from it) is identical to serial execution.
 */
class SweepRunner
{
  public:
    /** @p workers 0 means auto (FLASHSIM_JOBS or hardware). */
    explicit SweepRunner(int workers = 0)
        : workers_(resolveWorkers(workers))
    {}

    int workers() const { return workers_; }

    /**
     * Execute @p count jobs, calling @p body(i) for each index exactly
     * once. Blocks until all jobs finish. A throwing job surfaces here
     * as SweepJobError carrying the job's index (smallest index wins
     * when several fail); the remaining jobs still run to completion.
     */
    void runIndexed(std::size_t count,
                    const std::function<void(std::size_t)> &body);

    /**
     * Execute all @p jobs and return their results in submission order.
     * T must be default-constructible and move-assignable.
     */
    template <typename T>
    std::vector<T>
    run(std::vector<std::function<T()>> jobs)
    {
        std::vector<T> results(jobs.size());
        runIndexed(jobs.size(),
                   [&](std::size_t i) { results[i] = jobs[i](); });
        return results;
    }

    /** Metrics of the most recent run()/runIndexed() call. */
    const SweepMetrics &lastMetrics() const { return metrics_; }

  private:
    int workers_;
    SweepMetrics metrics_;
};

} // namespace flashsim::sim

#endif // FLASHSIM_SIM_SWEEP_HH_
