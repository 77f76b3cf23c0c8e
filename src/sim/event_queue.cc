#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace flashsim
{

void
EventQueue::markLive(Tick when)
{
    const std::size_t idx = when & kRingMask;
    live_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void
EventQueue::clearLive(Tick when)
{
    const std::size_t idx = when & kRingMask;
    live_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

void
EventQueue::scheduleAt(Tick when, Callback cb)
{
    if (when < _now)
        panic("event scheduled in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    if (when - _now < kRingSize) {
        appendToRing(when) = cb;
        return;
    }
    overflow_.push_back(Event{when, kOrdinaryKey | nextSeq_++, cb});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

EventQueue::Callback &
EventQueue::appendToRing(Tick when)
{
    Bucket &b = bucketFor(when);
    freshen(b);
    // The largest key yet: appending keeps the bucket sorted.
    b.events.push_back(Event{when, kOrdinaryKey | nextSeq_++, {}});
    markLive(when);
    ++ringCount_;
    return b.events.back().cb;
}

void
EventQueue::insertSorted(const Event &e)
{
    const Tick when = e.when;
    Bucket &b = bucketFor(when);
    freshen(b);
    // Buckets are small, so a binary search + vector insert beats a
    // deferred sort.
    auto pos = std::upper_bound(
        b.events.begin() + static_cast<std::ptrdiff_t>(b.head),
        b.events.end(), e.seq,
        [](std::uint64_t seq, const Event &x) { return seq < x.seq; });
    b.events.insert(pos, e);
    markLive(when);
    ++ringCount_;
}

void
EventQueue::scheduleNet(Tick when, NodeId src, std::uint64_t srcSeq,
                        Callback cb)
{
    if (when < _now)
        panic("delivery scheduled in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    if (src >= kMaxNetNodes || (srcSeq >> kSrcShift) != 0)
        panic("delivery key (%u, %llu) out of range", src,
              static_cast<unsigned long long>(srcSeq));
    if (when == _now) {
        // Degenerate zero-latency transit: this tick's deliveries may
        // already have run, so it joins as an ordinary event.
        scheduleAt(when, cb);
        return;
    }
    const Event e{when, (std::uint64_t{src} << kSrcShift) | srcSeq, cb};
    if (when - _now < kRingSize) {
        insertSorted(e);
        return;
    }
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

Tick
EventQueue::nextRingTick() const
{
    if (ringCount_ == 0)
        return kNever;
    // Scan the occupancy bitmap in wrap order starting at now's slot;
    // the window maps slots to ticks in increasing wrap distance, so
    // the first live bucket found holds the earliest ring event, and
    // its tick follows from the slot alone (no load of its events).
    const std::size_t base = _now & kRingMask;
    std::size_t w = base >> 6;
    std::uint64_t word = live_[w] & (~std::uint64_t{0} << (base & 63));
    for (std::size_t n = 0; n <= kBitWords; ++n) {
        if (word != 0) {
            const std::size_t idx =
                (w << 6) +
                static_cast<std::size_t>(std::countr_zero(word));
            return _now + ((idx - base) & kRingMask);
        }
        w = (w + 1) & (kBitWords - 1);
        word = live_[w];
    }
    return kNever; // unreachable while ringCount_ > 0
}

Tick
EventQueue::nextTick() const
{
    const Tick t = nextRingTick();
    if (!overflow_.empty() && overflow_.front().when < t)
        return overflow_.front().when;
    return t;
}

void
EventQueue::promoteOverflow(Tick t)
{
    while (!overflow_.empty() && overflow_.front().when == t) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        insertSorted(overflow_.back());
        overflow_.pop_back();
    }
}

bool
EventQueue::step()
{
    const Tick t = nextTick();
    if (t == kNever)
        return false;
    _now = t;
    promoteOverflow(t);
    Bucket &b = bucketFor(t);
    // Copy the callback out before invoking: the callback may schedule
    // into this same bucket and reallocate its vector.
    Callback cb = b.events[b.head].cb;
    ++b.head;
    --ringCount_;
    if (b.head == b.events.size()) {
        b.events.clear();
        b.head = 0;
        clearLive(t);
    }
    cb();
    return true;
}

std::uint64_t
EventQueue::drainTick(Tick t)
{
    std::uint64_t executed = 0;
    _now = t;
    promoteOverflow(t);
    // Drain the whole tick from its bucket, front to back: nothing
    // earlier can appear (overflow inserts land >= kRingSize ticks
    // out), and whatever a callback adds to this tick is an ordinary
    // event (scheduleNet at the current tick runs as one), whose key is
    // the largest yet — an append. So skip the bitmap rescan until the
    // tick completes.
    Bucket &b = bucketFor(t);
    if (b.head < b.events.size()) {
        while (b.head < b.events.size()) {
            Callback cb = b.events[b.head].cb;
            ++b.head;
            --ringCount_;
            cb();
            ++executed;
        }
        b.events.clear();
        b.head = 0;
        clearLive(t);
    }
    return executed;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t executed = 0;
    while (true) {
        const Tick t = nextTick();
        if (t == kNever || t > limit)
            break;
        executed += drainTick(t);
    }
    if (_now < limit && limit != kNever)
        _now = limit;
    return executed;
}

void
EventQueue::reset()
{
    for (Bucket &b : ring_) {
        b.events.clear();
        b.head = 0;
    }
    live_.fill(0);
    ringCount_ = 0;
    overflow_.clear();
    _now = 0;
    nextSeq_ = 0;
}

} // namespace flashsim
