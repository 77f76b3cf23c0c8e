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
    if (when - _now < kRingSize)
        appendToRing(when) = cb;
    else
        pushOverflow(when, kOrdinaryKey | nextSeq_++, cb);
}

EventQueue::Callback &
EventQueue::appendToRing(Tick when)
{
    Bucket &b = bucketFor(when);
    // The largest key yet: appending keeps the bucket sorted.
    b.events.emplace_back(kOrdinaryKey | nextSeq_++);
    markLive(when);
    ++ringCount_;
    return b.events.back().cb;
}

EventQueue::Callback &
EventQueue::insertSorted(Tick when, std::uint64_t seq)
{
    Bucket &b = bucketFor(when);
    // Buckets are small, so a binary search + vector insert beats a
    // deferred sort.
    auto pos = std::upper_bound(
        b.events.begin() + static_cast<std::ptrdiff_t>(b.head),
        b.events.end(), seq,
        [](std::uint64_t k, const Event &x) { return k < x.seq; });
    markLive(when);
    ++ringCount_;
    return b.events.emplace(pos, seq)->cb;
}

void
EventQueue::pushOverflow(Tick when, std::uint64_t seq, const Callback &cb)
{
    overflow_.push_back(Timed{when, Event(seq)});
    overflow_.back().ev.cb = cb;
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

void
EventQueue::checkNet(Tick when, NodeId src, std::uint64_t srcSeq) const
{
    if (when < _now)
        panic("delivery scheduled in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    if (src >= kMaxNetNodes || (srcSeq >> kSrcShift) != 0)
        panic("delivery key (%u, %llu) out of range", src,
              static_cast<unsigned long long>(srcSeq));
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
        const Event &e = overflow_.back().ev;
        insertSorted(t, e.seq) = e.cb;
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
    if (!running_.empty())
        panic("EventQueue::drainTick(%llu) called from a callback",
              static_cast<unsigned long long>(t));
    std::uint64_t executed = 0;
    _now = t;
    promoteOverflow(t);
    // Run the tick's events in place, from a vector swapped out of the
    // bucket: nothing earlier can appear (overflow inserts land
    // >= kRingSize ticks out), and whatever a callback adds to this
    // tick is an ordinary event (scheduleNet at the current tick runs
    // as one), whose key is the largest yet — an append to the emptied
    // bucket, which runs in the next round. So FIFO holds, and the
    // bitmap is not rescanned until the tick completes.
    Bucket &b = bucketFor(t);
    while (b.head < b.events.size()) {
        running_.swap(b.events);
        const std::size_t first = b.head;
        b.head = 0;
        for (std::size_t i = first; i < running_.size(); ++i) {
            --ringCount_;
            running_[i].cb();
        }
        executed += running_.size() - first;
        running_.clear();
    }
    clearLive(t);
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
    running_.clear();
    live_.fill(0);
    ringCount_ = 0;
    overflow_.clear();
    _now = 0;
    nextSeq_ = 0;
}

} // namespace flashsim
