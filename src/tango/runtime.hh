/**
 * @file
 * The workload execution environment (Tango Lite analogue).
 *
 * Env is the per-processor handle a workload coroutine uses to touch
 * the simulated machine: timed loads/stores, compute time, and
 * synchronization primitives that generate real coherence traffic
 * (test-and-test&set locks, sense-reversing counter barriers spinning
 * on a flag line). Time spent inside synchronization is attributed to
 * the Sync execution-time category.
 *
 * A spin wait whose reads keep hitting is not simulated iteration by
 * iteration: the waiter parks (SpinAwaiter) and, when woken, replays
 * the skipped iterations arithmetically (Env::wakeSpin, DESIGN.md §5g).
 */

#ifndef FLASHSIM_TANGO_RUNTIME_HH_
#define FLASHSIM_TANGO_RUNTIME_HH_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "cpu/processor.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "tango/task.hh"

namespace flashsim::tango
{

class Env;
class SyncPhase;

/** Awaitable for a timed read or write. */
struct MemAwaiter
{
    Env *env;
    Addr addr;
    bool isWrite;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
};

/** Synchronous awaitable advancing compute time. */
struct BusyAwaiter
{
    Env *env;
    std::uint64_t instrs;

    bool await_ready() noexcept;
    void await_suspend(std::coroutine_handle<>) noexcept {}
    void await_resume() const noexcept {}
};

/**
 * Awaitable serializing access to shared *host-side* state (lock/
 * barrier variables). Zero simulated time: it defers the continuation
 * into the machine's per-tick sync phase, where operations run in
 * (tick, node, per-node sequence) order (see tango/sync_phase.hh).
 * When no machine wires a phase (standalone Env), it is a no-op.
 */
struct SyncPointAwaiter
{
    Env *env;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
};

/**
 * Awaitable at a spin wait's backoff, after its sync-phase test failed
 * (the barrier generation is unchanged, or the lock is held). Ready —
 * the iteration runs live — unless the waiter can park: its spin line
 * is resident, its cache has no miss outstanding and no MAGIC operation
 * pending (freeAt() <= cursor), and its node's MAGIC is idle. Then each
 * iteration would only hit, and nothing queued can touch the cache, so
 * the waiter schedules nothing until the variable changes or a message
 * enters its node (Env::wakeSpin).
 *
 * Resumes true when woken into the sync phase at its re-test, false to
 * run the backoff and the spin read.
 */
struct SpinAwaiter
{
    Env *env;
    std::vector<Env *> *parked; ///< the variable's parked waiters
    Addr addr;                  ///< the spin line
    /** Instructions per iteration: the backoff plus the load. */
    std::uint64_t instrs;
    std::coroutine_handle<> h{};
    bool atTest = false;

    bool await_ready() noexcept;
    void await_suspend(std::coroutine_handle<> handle);
    bool await_resume() const noexcept { return atTest; }
};

/** A spin lock living on one cache line. */
struct LockVar
{
    Addr addr = 0;
    bool held = false; ///< host-side lock value
    std::uint64_t acquisitions = 0;
    /** Waiters parked until the lock is released. */
    std::vector<Env *> parked;
};

/**
 * Sense-reversing combining-tree barrier (two levels, arity 8).
 *
 * A flat counter barrier livelocks into NACK storms at 64 processors
 * (every arrival fights for exclusive ownership of one line), so like
 * real scalable machines the barrier combines within groups of eight
 * before touching the root, and releases through per-group flag lines.
 */
struct BarrierVar
{
    static constexpr int kArity = 8;

    struct Group
    {
        Addr countAddr = 0;
        Addr flagAddr = 0;
        int count = 0; ///< host-side arrival count
        int size = 0;
    };

    /** Use MAGIC's uncached fetch&op for arrivals instead of cached
     *  read-modify-write (no line ping-pong at all). */
    bool useFetchOp = false;

    std::vector<Group> groups;
    Addr rootCountAddr = 0;
    int rootCount = 0;
    int gen = 0;     ///< host-side generation
    int parties = 0; ///< number of processors participating
    std::uint64_t episodes = 0;
    /** Waiters parked until the generation changes. */
    std::vector<Env *> parked;
};

/** Awaitable for a synchronous block send (waits for the ack). */
struct BlockSendAwaiter
{
    Env *env;
    NodeId dest;
    Addr addr;
    std::uint32_t bytes;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept;
};

/** Awaitable for receiving a block (returns the completion token). */
struct BlockRecvAwaiter
{
    Env *env;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> h);
    Addr await_resume() const noexcept;
};

/** Awaitable for an uncached fetch&op round trip. */
struct FetchOpAwaiter
{
    Env *env;
    Addr addr;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept;
};

class Env
{
  public:
    Env(cpu::Processor *proc, int id, int nprocs)
        : proc_(proc), id_(id), nprocs_(nprocs)
    {}

    int id() const { return id_; }
    int nprocs() const { return nprocs_; }
    cpu::Processor &proc() { return *proc_; }

    /** Timed read of the line containing @p addr (blocking). */
    MemAwaiter read(Addr addr) { return MemAwaiter{this, addr, false}; }
    /** Timed write (non-blocking, subject to MSHR limits). */
    MemAwaiter write(Addr addr) { return MemAwaiter{this, addr, true}; }
    /** Execute @p instrs instructions of compute. */
    BusyAwaiter busy(std::uint64_t instrs)
    {
        return BusyAwaiter{this, instrs};
    }
    /** Serialize the next shared host-state access (zero time). */
    SyncPointAwaiter syncPoint() { return SyncPointAwaiter{this}; }

    /** Acquire a test-and-test&set spin lock. */
    Task lockAcquire(LockVar &l);
    /** Release a lock (a single write to the lock line). */
    Task lockRelease(LockVar &l);
    /** Wait at a sense-reversing barrier. */
    Task barrier(BarrierVar &b);

    // -- Message passing (the FLASH block-transfer protocol) -------------
    /** Synchronously send @p bytes starting at @p addr to node @p dest
     *  as an uncached block transfer; resumes when the receiver's MAGIC
     *  acknowledges the whole block. */
    BlockSendAwaiter
    sendBlock(NodeId dest, Addr addr, std::uint32_t bytes)
    {
        return BlockSendAwaiter{this, dest, addr, bytes};
    }

    /** Wait for the next incoming block transfer; returns the line
     *  address of its final chunk. */
    BlockRecvAwaiter recvBlock() { return BlockRecvAwaiter{this}; }

    /**
     * Uncached fetch&op on @p addr's home memory word: one round trip,
     * no caching, no invalidation storm — FLASH's MAGIC performs the
     * read-modify-write at the home node. The value itself is host
     * state the caller updates on resume (like LL/SC direct execution).
     */
    FetchOpAwaiter fetchOp(Addr addr) { return FetchOpAwaiter{this, addr}; }

    /** Node-side wiring: this node's MAGIC, which starts block
     *  transfers and fetch&ops. */
    magic::Magic *magic = nullptr;
    /** Machine wiring: the sync phase syncPoint() defers into. Null:
     *  syncPoint() is a no-op. */
    SyncPhase *syncPhase = nullptr;
    /** Node-side wiring: a fetch&op this node issued completed. */
    void notifyFetchOpDone(Addr addr);
    /** Node-side wiring: a block finished arriving here. */
    void notifyBlockReceived(Addr token);
    /** Node-side wiring: a block this node sent was acknowledged. */
    void notifyBlockAcked(Addr token);

    bool inSync() const { return inSync_; }
    void setInSync(bool v) { inSync_ = v; }

    /** Spin-wait iterations: simulated one by one, replayed on wake
     *  (elided), and the wakes themselves, of which @c joins woke into
     *  the running sync phase at the re-test. */
    struct SpinStats
    {
        Counter simulated = 0;
        Counter elided = 0;
        Counter wakes = 0;
        Counter joins = 0;
    };
    const SpinStats &spinStats() const { return spinStats_; }

    /** This processor is parked in a spin wait. */
    bool spinParked() const { return spin_ != nullptr; }

    /**
     * Wake the parked waiter from an event or a sync-phase operation at
     * @p now, before that event or operation changes anything the
     * waiter can see. Replays every iteration whose re-test has already
     * run, then resumes the waiter at its pending step: the backoff and
     * spin read, or — when the re-test falls at @p now and the running
     * round has not reached this node — the re-test itself, joined to
     * that round.
     */
    void wakeSpin(Tick now);

  private:
    friend struct BlockSendAwaiter;
    friend struct BlockRecvAwaiter;
    friend struct FetchOpAwaiter;
    friend struct SpinAwaiter;

    cpu::Processor *proc_;
    int id_;
    int nprocs_;
    bool inSync_ = false;
    /** The parked spin wait, or null. */
    SpinAwaiter *spin_ = nullptr;
    SpinStats spinStats_;

    std::vector<Addr> arrivedBlocks_;
    std::coroutine_handle<> recvWaiter_;
    std::coroutine_handle<> sendWaiter_;
    std::coroutine_handle<> fetchOpWaiter_;
};

// The per-reference awaiters, inline: a workload's read or write goes
// straight to the processor with the coroutine handle to resume.
inline void
MemAwaiter::await_suspend(std::coroutine_handle<> h)
{
    if (isWrite)
        env->proc().write(addr, env->inSync(), h);
    else
        env->proc().read(addr, env->inSync(), h);
}

inline bool
BusyAwaiter::await_ready() noexcept
{
    env->proc().busy(instrs, env->inSync());
    return true;
}

/** RAII-style toggle used by the sync primitives. */
class SyncRegion
{
  public:
    explicit SyncRegion(Env &env) : env_(env), prev_(env.inSync())
    {
        env_.setInSync(true);
    }
    ~SyncRegion() { env_.setInSync(prev_); }

  private:
    Env &env_;
    bool prev_;
};

} // namespace flashsim::tango

#endif // FLASHSIM_TANGO_RUNTIME_HH_
