/**
 * @file
 * The compute processor's secondary cache.
 *
 * Two-way set associative, 128-byte lines, up to 4 outstanding misses,
 * critical-word-first fills (Section 3.2). Reads are blocking; writes
 * are non-blocking and merge into an outstanding write miss to the same
 * line, stalling only on an index conflict or when the MSHRs are
 * exhausted.
 *
 * One processor drives the cache and blocks on a read miss or a refused
 * access, so at most one processor continuation is ever pending: a read
 * waiting for a fill, or a retry waiting for any MSHR to free. A write
 * never finds its line's miss to be a read miss (the read would still
 * be blocking the processor), so there is no read-then-upgrade chase.
 * Either broken assumption panics.
 *
 * The processor implements its own cache control, so MAGIC reaches in
 * through explicit operations (invalidate / downgrade / retrieve) that
 * occupy the cache and contend with the processor ("Cont" time).
 */

#ifndef FLASHSIM_CPU_CACHE_HH_
#define FLASHSIM_CPU_CACHE_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "magic/magic.hh"
#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flashsim::cpu
{

/** Ways per set (of kLineSize lines) and outstanding misses. */
inline constexpr std::uint32_t kCacheAssoc = 2;
inline constexpr std::size_t kMshrs = 4;

struct CacheParams
{
    std::uint32_t sizeBytes = 1u << 20; ///< 1 MB default

    bool operator==(const CacheParams &) const = default;
};

class Cache
{
  public:
    /** Inline-only callable: miss continuations fire once per fill, on
     *  the hottest path in the machine — no heap fallback allowed. */
    using Callback = InlineCallback;

    enum class State : std::uint8_t { Invalid, Shared, Exclusive };

    enum class ReadOutcome { Hit, Miss, MshrFull };
    enum class WriteOutcome { Done, Queued, MshrFull, Conflict };

    /** One outstanding miss (Section 3.2's MSHRs): the requesting
     *  node's only record of a transaction in flight. */
    struct Mshr
    {
        bool valid = false;
        Addr line = 0; ///< line base address
        protocol::MsgType sentType = protocol::MsgType::PiGet;
        /** An invalidation raced ahead of our read reply (it is not
         *  gated on memory data, the reply is): the fill satisfies the
         *  blocked read with its critical word but the line must not
         *  stay resident. */
        bool invalOnFill = false;
        /** Consecutive NACKs for this miss (exponential backoff). */
        std::uint32_t nackCount = 0;
        Tick issued = 0; ///< when the request left
    };

    Cache(EventQueue &eq, NodeId self, const CacheParams &params,
          magic::Magic &magic);

    // -- Processor side (call at the processor's current time) -------------
    /** Earliest time the processor can use the cache (MAGIC ops). */
    Tick freeAt() const { return busyUntil_; }

    /**
     * Read access. Hit: complete. Miss: @p on_fill fires when the first
     * 8 bytes arrive (a miss merges into its line's outstanding write
     * miss). MshrFull: retry after onMshrFree.
     */
    ReadOutcome read(Addr addr, Callback on_fill);

    /**
     * The hit half of read(), inline: on a hit, count the read, touch
     * the way's LRU stamp and return true; on a miss, change nothing
     * and return false (call read() next).
     */
    bool
    readHit(Addr addr)
    {
        const std::int32_t w = findWay(addr);
        if (w < 0)
            return false;
        ++reads;
        ways_[w].lru = ++lruClock_;
        return true;
    }

    /**
     * Write access. Done: line exclusive, proceed. Queued: request
     * launched or merged into the line's outstanding write miss, proceed
     * (non-blocking write). Conflict/MshrFull: the processor must stall;
     * retry after onMshrFree.
     */
    WriteOutcome write(Addr addr);

    /** One-shot callback the next time any MSHR completes. */
    void onMshrFree(Callback cb);

    /** No miss is outstanding and no continuation is pending: nothing
     *  the cache has started can still change it. */
    bool
    quiet() const
    {
        for (const Mshr &m : mshrs_)
            if (m.valid)
                return false;
        return waiting_ == Waiting::Nothing;
    }

    /** The MSHRs, read by the machine's hang check and post-mortem. */
    const std::array<Mshr, kMshrs> &mshrs() const { return mshrs_; }
    /** Misses completed so far. */
    Counter retiredMisses() const { return retired_; }

    /** Account @p n read hits on @p addr's resident line exactly as
     *  @p n readHit calls in a row would. */
    void
    replayHits(Addr addr, Counter n)
    {
        if (n == 0)
            return;
        const std::int32_t w = findWay(addr);
        if (w < 0)
            panic("Cache %u: replayed hits on a line it does not hold",
                  self_);
        reads += n;
        lruClock_ += n;
        ways_[w].lru = lruClock_;
    }

    // -- MAGIC side ----------------------------------------------------------
    /** Deliver a PiPut / PiPutx / NetNack from MAGIC. */
    void deliver(const protocol::Message &msg);
    bool
    holdsDirty(Addr addr) const
    {
        const std::int32_t w = findWay(addr);
        return w >= 0 && states_[w] == State::Exclusive;
    }
    void invalidate(Addr addr);
    void downgrade(Addr addr);
    /** A MAGIC-directed operation occupies the cache until @p until. */
    void busyUntil(Tick until);

    State state(Addr addr) const;

    // -- Statistics -----------------------------------------------------------
    Counter reads = 0;
    Counter writes = 0;
    /** References implied by compute time (busy instructions include
     *  loads/stores that hit in the primary cache and are not simulated
     *  individually); they enter the miss-rate denominator like the
     *  paper's full reference stream does. */
    Counter backgroundHits = 0;
    Counter readMisses = 0;
    Counter writeMisses = 0; ///< including upgrades
    Counter writebacks = 0;
    Counter replaceHints = 0;
    Counter invalsReceived = 0;
    Counter nackRetries = 0;
    Distribution missLatency; ///< read-miss service time (cycles)

    double
    missRate() const
    {
        return ratio(static_cast<double>(readMisses + writeMisses),
                     static_cast<double>(reads + writes +
                                         backgroundHits));
    }

  private:
    /** Tag/LRU metadata of one way. Kept separate from the 1-byte
     *  state array so constructing a cache only zeroes states_ (8 KB)
     *  instead of value-initializing 24 bytes per way (~200 KB for the
     *  default 1 MB cache — a dominant cost when a machine is built per
     *  benchmark iteration). An entry is meaningful only while its
     *  state is not Invalid; installLine writes it before validating. */
    struct Way
    {
        Addr tag;
        std::uint64_t lru;
    };

    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> kLineShift) &
               (numSets_ - 1);
    }

    /** Index of @p addr's way, or -1 when not resident. */
    std::int32_t
    findWay(Addr addr) const
    {
        const Addr tag = addr >> kLineShift >> setShift_;
        const std::size_t base =
            static_cast<std::size_t>(setIndex(addr)) * kCacheAssoc;
        for (std::uint32_t w = 0; w < kCacheAssoc; ++w) {
            if (states_[base + w] != State::Invalid &&
                ways_[base + w].tag == tag)
                return static_cast<std::int32_t>(base + w);
        }
        return -1;
    }

    /** What the pending continuation waits for. */
    enum class Waiting : std::uint8_t { Nothing, Fill, FreeMshr };

    Mshr *findMshr(Addr line);
    Mshr *allocMshr();
    /** Make @p cb the pending continuation; panics if one is pending. */
    void park(Waiting what, const Mshr *fill_of, Callback cb);
    void sendRequest(protocol::MsgType t, Addr line, bool retry);
    void fill(const protocol::Message &msg);
    void installLine(Addr line, State st);
    void completeMshr(Mshr &m);

    EventQueue &eq_;
    NodeId self_;
    /** Fills the padding after self_, so the cache does not grow. */
    std::uint32_t retired_ = 0;
    magic::Magic &magic_;

    std::uint32_t numSets_;
    std::uint32_t setShift_ = 0; ///< log2(numSets_)
    std::uint64_t lruClock_ = 0;
    std::vector<State> states_; ///< per-way state; Invalid = 0
    std::unique_ptr<Way[]> ways_; ///< valid iff states_[i] != Invalid
    std::array<Mshr, kMshrs> mshrs_;
    Tick busyUntil_ = 0;
    /** The one pending continuation: a read blocked on fillOf_'s fill
     *  (Fill) or an access retried when any MSHR completes (FreeMshr). */
    Waiting waiting_ = Waiting::Nothing;
    const Mshr *fillOf_ = nullptr;
    Callback waiter_;
};

} // namespace flashsim::cpu

#endif // FLASHSIM_CPU_CACHE_HH_
