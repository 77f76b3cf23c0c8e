#include "cpu/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flashsim::cpu
{

using protocol::Message;
using protocol::MsgType;

Cache::Cache(EventQueue &eq, NodeId self, const CacheParams &params,
             magic::Magic &magic)
    : eq_(eq), self_(self), magic_(magic)
{
    numSets_ = params.sizeBytes /
               (kCacheAssoc * static_cast<std::uint32_t>(kLineSize));
    if (numSets_ == 0 || (numSets_ & (numSets_ - 1)) != 0)
        fatal("Cache: set count %u must be a nonzero power of two",
              numSets_);
    // Tag/set math runs on every access: precompute the set shift so
    // the hot path never divides by a runtime value.
    for (std::uint32_t ns = numSets_; ns > 1; ns >>= 1)
        ++setShift_;
    const std::size_t nways =
        static_cast<std::size_t>(numSets_) * kCacheAssoc;
    states_.assign(nways, State::Invalid);
    // Deliberately default-initialized (uninitialized): a Way is only
    // read once its state leaves Invalid, and installLine fills it
    // first. Zeroing ~200 KB per construction is what this avoids.
    ways_.reset(new Way[nways]);
}

Cache::Mshr *
Cache::findMshr(Addr line)
{
    for (Mshr &m : mshrs_)
        if (m.valid && m.line == line)
            return &m;
    return nullptr;
}

Cache::Mshr *
Cache::allocMshr()
{
    for (Mshr &m : mshrs_)
        if (!m.valid)
            return &m;
    return nullptr;
}

void
Cache::sendRequest(MsgType t, Addr line, bool retry)
{
    Message m;
    m.type = t;
    m.src = self_;
    m.dest = self_;
    m.requester = self_;
    m.addr = line;
    // Retries skip miss detection; first issues pay detect + bus transit.
    Cycles delay = retry ? 0 : magic::kMissDetect + magic::kBusTransit;
    magic_.fromProcessorAfter(m, delay);
}

Cache::ReadOutcome
Cache::read(Addr addr, Callback on_fill)
{
    if (readHit(addr))
        return ReadOutcome::Hit;
    ++reads;
    ++readMisses;
    Addr line = lineBase(addr);
    if (Mshr *m = findMshr(line)) {
        // Merge into the outstanding write miss; block until its fill.
        park(Waiting::Fill, m, on_fill);
        return ReadOutcome::Miss;
    }
    Mshr *m = allocMshr();
    if (m == nullptr) {
        --readMisses; // counted on the successful retry instead
        --reads;
        return ReadOutcome::MshrFull;
    }
    m->valid = true;
    m->line = line;
    m->sentType = MsgType::PiGet;
    m->invalOnFill = false;
    m->nackCount = 0;
    m->issued = eq_.now();
    park(Waiting::Fill, m, on_fill);
    sendRequest(MsgType::PiGet, line, false);
    return ReadOutcome::Miss;
}

Cache::WriteOutcome
Cache::write(Addr addr)
{
    ++writes;
    Addr line = lineBase(addr);
    std::int32_t w = findWay(addr);
    if (w >= 0 && states_[w] == State::Exclusive) {
        ways_[w].lru = ++lruClock_;
        return WriteOutcome::Done;
    }
    ++writeMisses;
    if (Mshr *m = findMshr(line)) {
        // Same index, same tag: merge with the outstanding write miss.
        if (m->sentType == MsgType::PiGet)
            panic("Cache %u: write to line 0x%llx merges into a read "
                  "miss, but reads block",
                  self_, static_cast<unsigned long long>(line));
        return WriteOutcome::Queued;
    }
    // Same index, different tag, with a miss outstanding: stall.
    std::uint32_t set = setIndex(addr);
    for (const Mshr &m : mshrs_) {
        if (m.valid && setIndex(m.line) == set && m.line != line) {
            --writes;
            --writeMisses;
            return WriteOutcome::Conflict;
        }
    }
    Mshr *m = allocMshr();
    if (m == nullptr) {
        --writes;
        --writeMisses;
        return WriteOutcome::MshrFull;
    }
    m->valid = true;
    m->line = line;
    m->sentType = MsgType::PiGetx;
    m->invalOnFill = false;
    m->nackCount = 0;
    m->issued = eq_.now();
    sendRequest(MsgType::PiGetx, line, false);
    return WriteOutcome::Queued;
}

void
Cache::onMshrFree(Callback cb)
{
    park(Waiting::FreeMshr, nullptr, cb);
}

void
Cache::park(Waiting what, const Mshr *fill_of, Callback cb)
{
    if (waiting_ != Waiting::Nothing)
        panic("Cache %u: a second continuation while one is pending, but "
              "the processor blocks on reads and refused accesses",
              self_);
    waiting_ = what;
    fillOf_ = fill_of;
    waiter_ = cb;
}

void
Cache::installLine(Addr line, State st)
{
    // An upgrade of a Shared line (or a refetch racing an invalidation)
    // may find the line already resident: promote in place, never
    // duplicate the tag.
    if (std::int32_t w = findWay(line); w >= 0) {
        if (st == State::Exclusive)
            states_[w] = State::Exclusive;
        ways_[w].lru = ++lruClock_;
        return;
    }
    Addr tag = line >> kLineShift >> setShift_;
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line)) * kCacheAssoc;
    std::size_t victim = base;
    bool have = false;
    for (std::uint32_t w = 0; w < kCacheAssoc; ++w) {
        if (states_[base + w] == State::Invalid) {
            victim = base + w;
            break;
        }
        if (!have || ways_[base + w].lru < ways_[victim].lru)
            victim = base + w;
        have = true;
    }
    if (states_[victim] == State::Exclusive) {
        ++writebacks;
        Addr victim_line = ((ways_[victim].tag << setShift_) +
                            setIndex(line))
                           << kLineShift;
        sendRequest(MsgType::PiWriteback, victim_line, true);
    } else if (states_[victim] == State::Shared) {
        ++replaceHints;
        Addr victim_line = ((ways_[victim].tag << setShift_) +
                            setIndex(line))
                           << kLineShift;
        sendRequest(MsgType::PiReplaceHint, victim_line, true);
    }
    states_[victim] = st;
    ways_[victim].tag = tag;
    ways_[victim].lru = ++lruClock_;
}

void
Cache::completeMshr(Mshr &m)
{
    ++retired_;
    m.valid = false;
    // The read blocked on this fill, or an access refused for want of
    // an MSHR, resumes now. Run a copy: it may park a new continuation.
    if (waiting_ == Waiting::FreeMshr ||
        (waiting_ == Waiting::Fill && fillOf_ == &m)) {
        waiting_ = Waiting::Nothing;
        Callback cb = waiter_;
        cb();
    }
}

void
Cache::fill(const Message &msg)
{
    Addr line = lineBase(msg.addr);
    Mshr *m = findMshr(line);
    if (m == nullptr)
        panic("Cache %u: fill for line 0x%llx without MSHR", self_,
              static_cast<unsigned long long>(line));
    missLatency.sample(static_cast<double>(eq_.now() - m->issued));

    State st =
        msg.type == MsgType::PiPutx ? State::Exclusive : State::Shared;
    installLine(line, st);

    if (m->invalOnFill && st == State::Shared) {
        // A racing invalidation already hit this line: the blocked read
        // consumes the critical word, but the copy must not persist.
        if (std::int32_t w = findWay(line); w >= 0)
            states_[w] = State::Invalid;
    }

    completeMshr(*m);
}

void
Cache::deliver(const Message &msg)
{
    switch (msg.type) {
      case MsgType::PiPut:
      case MsgType::PiPutx:
        fill(msg);
        break;
      case MsgType::NetNack: {
        Addr line = lineBase(msg.addr);
        Mshr *m = findMshr(line);
        if (m == nullptr)
            break; // request already satisfied (stale NACK)
        ++nackRetries;
        MsgType t = m->sentType;
        // Exponential backoff with a per-node offset: hot lines (locks,
        // barrier counters) otherwise produce NACK storms where the
        // line ownership keeps moving before any retry can catch it.
        std::uint32_t shift = std::min(m->nackCount, 5u);
        ++m->nackCount;
        Cycles wait = (magic_.params().nackRetryBackoff << shift) +
                      (self_ * 7) % 29;
        eq_.schedule(wait,
                     [this, t, line] { sendRequest(t, line, true); });
        break;
      }
      default:
        panic("Cache %u: unexpected delivery %s", self_,
              msg.toString().c_str());
    }
}

void
Cache::invalidate(Addr addr)
{
    ++invalsReceived;
    if (std::int32_t w = findWay(addr); w >= 0)
        states_[w] = State::Invalid;
    // The invalidation may have raced ahead of a read reply in flight
    // to this node (replies wait for memory data, invals do not).
    if (Mshr *m = findMshr(lineBase(addr))) {
        if (m->sentType == protocol::MsgType::PiGet)
            m->invalOnFill = true;
    }
}

void
Cache::downgrade(Addr addr)
{
    if (std::int32_t w = findWay(addr); w >= 0) {
        if (states_[w] == State::Exclusive)
            states_[w] = State::Shared;
    }
}

void
Cache::busyUntil(Tick until)
{
    busyUntil_ = std::max(busyUntil_, until);
}

Cache::State
Cache::state(Addr addr) const
{
    std::int32_t w = findWay(addr);
    return w >= 0 ? states_[w] : State::Invalid;
}

} // namespace flashsim::cpu
