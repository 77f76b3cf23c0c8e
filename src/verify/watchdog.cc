#include "verify/watchdog.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "sim/logging.hh"

namespace flashsim::verify
{

Watchdog::Watchdog(EventQueue &eq, Cycles interval, Cycles max_age,
                   Cycles no_progress_window)
    : eq_(eq), interval_(interval), maxAge_(max_age),
      noProgressWindow_(no_progress_window)
{
    if (interval_ == 0)
        fatal("Watchdog: the sampling interval must be nonzero");
}

void
Watchdog::txnStart(NodeId node, Addr addr)
{
    txns_.emplace(key(node, addr), eq_.now());
    if (!armed_)
        arm();
}

void
Watchdog::txnRetire(NodeId node, Addr addr)
{
    txns_.erase(key(node, addr));
    ++retired_;
    lastProgress_ = eq_.now();
}

void
Watchdog::arm()
{
    armed_ = true;
    lastProgress_ = eq_.now();
    std::uint64_t gen = gen_;
    eq_.schedule(interval_, [this, gen] { check(gen); });
}

void
Watchdog::check(std::uint64_t gen)
{
    if (gen != gen_)
        return; // disarmed since this check was scheduled
    if (txns_.empty()) {
        // Quiesced: stop rescheduling so the event queue can drain.
        armed_ = false;
        ++gen_;
        return;
    }

    const Tick now = eq_.now();

    std::uint64_t oldestKey = 0;
    Tick oldestStart = ~Tick{0};
    for (const auto &[k, start] : txns_) {
        if (start < oldestStart) {
            oldestStart = start;
            oldestKey = k;
        }
    }
    if (now - oldestStart > maxAge_) {
        trip("transaction from node " +
             std::to_string(oldestKey >> 48) + " for line 0x" +
             [&] {
                 char buf[32];
                 std::snprintf(buf, sizeof(buf), "%llx",
                               static_cast<unsigned long long>(
                                   (oldestKey & ((std::uint64_t{1} << 48) -
                                                 1)) *
                                   kLineSize));
                 return std::string(buf);
             }() +
             " outstanding for " + std::to_string(now - oldestStart) +
             " cycles (limit " + std::to_string(maxAge_) + ")");
        return;
    }
    if (now - lastProgress_ > noProgressWindow_) {
        trip("no transaction retired for " +
             std::to_string(now - lastProgress_) + " cycles with " +
             std::to_string(txns_.size()) +
             " outstanding (NACK livelock or deadlock)");
        return;
    }

    std::uint64_t g = gen_;
    eq_.schedule(interval_, [this, g] { check(g); });
}

void
Watchdog::trip(std::string reason)
{
    ++trips_;
    // Disarm: if onTrip returns (record-only policy) we must not keep
    // the event queue alive forever on a machine that will never make
    // progress again. The next txn start or retire re-arms.
    armed_ = false;
    ++gen_;
    if (onTrip)
        onTrip(reason);
}

void
Watchdog::writeStatus(std::ostream &os) const
{
    const Tick now = eq_.now();
    os << "watchdog: " << txns_.size() << " transaction(s) outstanding, "
       << retired_ << " retired, last progress at t=" << lastProgress_
       << " (now t=" << now << ")\n";

    std::vector<std::pair<std::uint64_t, Tick>> v(txns_.begin(),
                                                  txns_.end());
    std::sort(v.begin(), v.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second < b.second;
        return a.first < b.first;
    });
    const std::size_t shown = std::min<std::size_t>(v.size(), 16);
    for (std::size_t i = 0; i < shown; ++i) {
        const auto &[k, start] = v[i];
        os << "  node " << (k >> 48) << " line 0x" << std::hex
           << ((k & ((std::uint64_t{1} << 48) - 1)) * kLineSize)
           << std::dec << " age " << (now - start) << "\n";
    }
    if (v.size() > shown)
        os << "  ... and " << (v.size() - shown) << " more\n";
}

} // namespace flashsim::verify
