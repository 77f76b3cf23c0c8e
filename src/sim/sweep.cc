#include "sim/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/logging.hh"

namespace flashsim::sim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
describeCurrentException()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

int
resolveWorkers(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("FLASHSIM_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && v >= 1 && v <= 4096)
            return static_cast<int>(v);
        warn("sweep: ignoring invalid FLASHSIM_JOBS='%s'", env);
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc ? static_cast<int>(hc) : 1;
}

void
SweepRunner::runIndexed(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    metrics_ = SweepMetrics{};
    metrics_.jobs.resize(count);
    const int nw = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(workers_),
                              count ? count : 1));
    metrics_.workers = nw;
    const auto sweep_start = Clock::now();

    if (nw <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            const auto job_start = Clock::now();
            try {
                body(i);
            } catch (const SweepJobError &) {
                throw; // nested sweep: already attributed
            } catch (...) {
                throw SweepJobError(i, describeCurrentException());
            }
            metrics_.jobs[i] = {secondsSince(job_start), 0};
        }
        metrics_.wallSeconds = secondsSince(sweep_start);
        for (const JobMetrics &j : metrics_.jobs)
            metrics_.serialSeconds += j.wallSeconds;
        return;
    }

    // Jobs never spawn jobs, so one shared counter hands out every
    // index exactly once; a worker exits when it runs past the end.
    std::atomic<std::size_t> next{0};

    std::mutex err_mu;
    bool have_error = false;
    std::size_t error_job = 0;
    std::string error_msg;

    auto worker = [&](int w) {
        for (;;) {
            const std::size_t idx = next.fetch_add(1);
            if (idx >= count)
                return;
            const auto job_start = Clock::now();
            try {
                body(idx);
            } catch (...) {
                std::string msg = describeCurrentException();
                std::lock_guard<std::mutex> lock(err_mu);
                // Keep the smallest failing index so the surfaced
                // error does not depend on worker scheduling.
                if (!have_error || idx < error_job) {
                    have_error = true;
                    error_job = idx;
                    error_msg = std::move(msg);
                }
            }
            metrics_.jobs[idx] = {secondsSince(job_start), w};
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nw));
    for (int w = 0; w < nw; ++w)
        threads.emplace_back(worker, w);
    for (std::thread &t : threads)
        t.join();

    metrics_.wallSeconds = secondsSince(sweep_start);
    for (const JobMetrics &j : metrics_.jobs)
        metrics_.serialSeconds += j.wallSeconds;

    if (have_error)
        throw SweepJobError(error_job, error_msg);
}

} // namespace flashsim::sim
