#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

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
EventQueue::netMarkLive(Tick when)
{
    const std::size_t idx = when & kRingMask;
    netLive_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void
EventQueue::netClearLive(Tick when)
{
    const std::size_t idx = when & kRingMask;
    netLive_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

void
EventQueue::scheduleAt(Tick when, Callback cb)
{
    if (when < _now)
        panic("event scheduled in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    if (when - _now < kRingSize) {
        appendToRing(when) = std::move(cb);
        return;
    }
    overflow_.push_back(Event{when, nextSeq_++, std::move(cb)});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    if (nextCacheValid_ && when < nextCache_)
        nextCache_ = when;
}

EventQueue::Callback &
EventQueue::appendToRing(Tick when)
{
    Bucket &b = bucketFor(when);
    freshen(b);
    b.events.push_back(Event{when, nextSeq_++, {}});
    markLive(when);
    ++ringCount_;
    if (nextCacheValid_ && when < nextCache_)
        nextCache_ = when;
    return b.events.back().cb;
}

void
EventQueue::insertNet(NetEvent e)
{
    const Tick when = e.when;
    NetBucket &b = netRing_[when & kRingMask];
    if (b.head != 0 && b.head == b.events.size()) {
        b.events.clear();
        b.head = 0;
    }
    // Keep [head, end) sorted by (src, seq); buckets are small, so a
    // binary search + vector insert beats a deferred sort.
    auto pos = std::upper_bound(
        b.events.begin() + static_cast<std::ptrdiff_t>(b.head),
        b.events.end(), e, [](const NetEvent &x, const NetEvent &y) {
            if (x.src != y.src)
                return x.src < y.src;
            return x.seq < y.seq;
        });
    b.events.insert(pos, std::move(e));
    netMarkLive(when);
    ++netCount_;
}

void
EventQueue::scheduleNet(Tick when, NodeId src, std::uint64_t srcSeq,
                        Callback cb)
{
    if (when < _now)
        panic("net event scheduled in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    if (when == _now) {
        // Degenerate zero-latency transit: the current tick's network
        // lane may already have run, so the delivery joins the normal
        // lane (the same deterministic rule in every mode).
        scheduleAt(when, std::move(cb));
        return;
    }
    if (when - _now < kRingSize)
        insertNet(NetEvent{when, src, srcSeq, std::move(cb)});
    else {
        netOverflow_.push_back(NetEvent{when, src, srcSeq, std::move(cb)});
        std::push_heap(netOverflow_.begin(), netOverflow_.end(),
                       NetLater{});
    }
    if (nextCacheValid_ && when < nextCache_)
        nextCache_ = when;
}

EventQueue::TimerId
EventQueue::armTimer(Tick when, Callback cb)
{
    std::uint32_t slot;
    if (!timerFree_.empty()) {
        slot = timerFree_.back();
        timerFree_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(timers_.size());
        timers_.emplace_back();
    }
    TimerSlot &t = timers_[slot];
    t.cb = std::move(cb);
    t.armed = true;
    ++t.armSeq;
    scheduleTimerFire(slot, when);
    return TimerId{slot, timers_[slot].gen};
}

void
EventQueue::scheduleTimerFire(std::uint32_t slot, Tick when)
{
    const std::uint32_t gen = timers_[slot].gen;
    const std::uint64_t armSeq = timers_[slot].armSeq;
    scheduleAt(when, [this, slot, gen, armSeq] {
        TimerSlot &t = timers_[slot];
        if (t.gen != gen || t.armSeq != armSeq || !t.armed)
            return; // cancelled or superseded by a rearm: no-op
        t.armed = false;
        // Move the callback out for the call: it may rearm this very
        // slot or arm fresh timers, either of which can reallocate
        // timers_. Restore it afterwards — unless the callback
        // cancelled its own timer (gen bumped), in which case the slot
        // may already belong to someone else.
        Callback cb = std::move(t.cb);
        cb();
        if (timers_[slot].gen == gen)
            timers_[slot].cb = std::move(cb);
    });
}

bool
EventQueue::rearmTimer(TimerId id, Tick when)
{
    if (!id.valid() || id.slot >= timers_.size())
        return false;
    TimerSlot &t = timers_[id.slot];
    if (t.gen != id.gen)
        return false;
    t.armed = true;
    ++t.armSeq;
    scheduleTimerFire(id.slot, when);
    return true;
}

bool
EventQueue::cancelTimer(TimerId id)
{
    if (!id.valid() || id.slot >= timers_.size())
        return false;
    TimerSlot &t = timers_[id.slot];
    if (t.gen != id.gen)
        return false;
    const bool pending = t.armed;
    t.armed = false;
    ++t.armSeq; // orphan any in-flight fire event
    ++t.gen;    // invalidate every outstanding handle
    timerFree_.push_back(id.slot);
    return pending;
}

bool
EventQueue::timerArmed(TimerId id) const
{
    return id.valid() && id.slot < timers_.size() &&
           timers_[id.slot].gen == id.gen && timers_[id.slot].armed;
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
EventQueue::nextNetRingTick() const
{
    if (netCount_ == 0)
        return kNever;
    const std::size_t base = _now & kRingMask;
    std::size_t w = base >> 6;
    std::uint64_t word = netLive_[w] & (~std::uint64_t{0} << (base & 63));
    for (std::size_t n = 0; n <= kBitWords; ++n) {
        if (word != 0) {
            const std::size_t idx =
                (w << 6) +
                static_cast<std::size_t>(std::countr_zero(word));
            return _now + ((idx - base) & kRingMask);
        }
        w = (w + 1) & (kBitWords - 1);
        word = netLive_[w];
    }
    return kNever; // unreachable while netCount_ > 0
}

Tick
EventQueue::nextTick() const
{
    if (!nextCacheValid_) {
        nextCache_ = computeNextTick();
        nextCacheValid_ = true;
    }
    return nextCache_;
}

Tick
EventQueue::computeNextTick() const
{
    Tick t = nextRingTick();
    if (!overflow_.empty() && overflow_.front().when < t)
        t = overflow_.front().when;
    const Tick nt = nextNetRingTick();
    if (nt < t)
        t = nt;
    if (!netOverflow_.empty() && netOverflow_.front().when < t)
        t = netOverflow_.front().when;
    return t;
}

void
EventQueue::promoteOverflow(Tick t)
{
    if (overflow_.empty() || overflow_.front().when != t)
        return;
    Bucket &b = bucketFor(t);
    freshen(b);
    const std::size_t live_begin = b.head;
    const std::size_t live_end = b.events.size();
    while (!overflow_.empty() && overflow_.front().when == t) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        b.events.push_back(std::move(overflow_.back()));
        overflow_.pop_back();
        ++ringCount_;
    }
    // Every overflow event for tick t was scheduled while t was still
    // outside the ring window, i.e. before any event the window later
    // accepted into the bucket — so all promoted seqs precede all live
    // bucket seqs, and rotating them in front restores global
    // (tick, seq) order. The heap pops them seq-ascending already.
    if (live_end > live_begin)
        std::rotate(b.events.begin() +
                        static_cast<std::ptrdiff_t>(live_begin),
                    b.events.begin() +
                        static_cast<std::ptrdiff_t>(live_end),
                    b.events.end());
    markLive(t);
}

void
EventQueue::promoteNetOverflow(Tick t)
{
    // Sorted insertion by key, so unlike the normal lane no rotate
    // fix-up is needed: the (src, seq) order is position-independent.
    while (!netOverflow_.empty() && netOverflow_.front().when == t) {
        std::pop_heap(netOverflow_.begin(), netOverflow_.end(),
                      NetLater{});
        insertNet(std::move(netOverflow_.back()));
        netOverflow_.pop_back();
    }
}

bool
EventQueue::step()
{
    const Tick t = nextTick();
    if (t == kNever)
        return false;
    _now = t;
    nextCacheValid_ = false; // consuming: recompute lazily
    promoteOverflow(t);
    promoteNetOverflow(t);
    // Network lane first: within a tick every delivery precedes every
    // normal event (see scheduleNet).
    NetBucket &nb = netRing_[t & kRingMask];
    if (nb.head < nb.events.size()) {
        Callback cb = std::move(nb.events[nb.head].cb);
        ++nb.head;
        --netCount_;
        if (nb.head == nb.events.size()) {
            nb.events.clear();
            nb.head = 0;
            netClearLive(t);
        }
        cb();
        return true;
    }
    Bucket &b = bucketFor(t);
    // Move the callback out before invoking: the callback may schedule
    // into this same bucket and reallocate its vector.
    Callback cb = std::move(b.events[b.head].cb);
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
    nextCacheValid_ = false; // callbacks schedule freely mid-drain
    promoteOverflow(t);
    promoteNetOverflow(t);
    // Network lane first, in (src, seq) order. A delivery can only
    // schedule normal events at this tick (a nested send's transit is
    // at least one cycle, and the zero-latency fallback joins the
    // normal lane), so this bucket never grows while draining.
    NetBucket &nb = netRing_[t & kRingMask];
    if (nb.head < nb.events.size()) {
        while (nb.head < nb.events.size()) {
            Callback cb = std::move(nb.events[nb.head].cb);
            ++nb.head;
            --netCount_;
            cb();
            ++executed;
        }
        nb.events.clear();
        nb.head = 0;
        netClearLive(t);
    }
    // Drain the whole tick from its bucket: nothing earlier can
    // appear (zero-delay schedules append to this bucket; overflow
    // inserts land >= kRingSize ticks out), so skip the bitmap
    // rescan until the tick completes.
    Bucket &b = bucketFor(t);
    if (b.head < b.events.size()) {
        while (b.head < b.events.size()) {
            Callback cb = std::move(b.events[b.head].cb);
            ++b.head;
            --ringCount_;
            cb();
            ++executed;
        }
        b.events.clear();
        b.head = 0;
        clearLive(t);
    }
    // Tick t is fully consumed; warm the horizon cache while the
    // structures are hot so the window loop's nextTick() is O(1).
    nextCache_ = computeNextTick();
    nextCacheValid_ = true;
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
    for (NetBucket &b : netRing_) {
        b.events.clear();
        b.head = 0;
    }
    netLive_.fill(0);
    netCount_ = 0;
    netOverflow_.clear();
    timers_.clear();
    timerFree_.clear();
    _now = 0;
    nextSeq_ = 0;
    nextCache_ = kNever;
    nextCacheValid_ = true;
}

} // namespace flashsim
