#include "tango/runtime.hh"

#include "cpu/cache.hh"
#include "magic/magic.hh"
#include "sim/logging.hh"
#include "tango/sync_phase.hh"

namespace flashsim::tango
{

bool
SyncPointAwaiter::await_ready() const noexcept
{
    if (env->syncPhase == nullptr)
        return true;
    return env->syncPhase->inlineOk(env->proc().cursor());
}

void
SyncPointAwaiter::await_suspend(std::coroutine_handle<> h)
{
    env->syncPhase->park(env->proc().cursor(),
                         static_cast<NodeId>(env->id()), h);
}

void
BlockSendAwaiter::await_suspend(std::coroutine_handle<> h)
{
    env->sendWaiter_ = h;
    env->magic->sendBlock(dest, addr, bytes, env->proc().cursor());
}

void
BlockSendAwaiter::await_resume() const noexcept
{
    env->proc().absorbExternalWait(env->inSync());
}

bool
BlockRecvAwaiter::await_ready() const noexcept
{
    return !env->arrivedBlocks_.empty();
}

void
BlockRecvAwaiter::await_suspend(std::coroutine_handle<> h)
{
    env->recvWaiter_ = h;
}

Addr
BlockRecvAwaiter::await_resume() const noexcept
{
    env->proc().absorbExternalWait(env->inSync());
    Addr token = env->arrivedBlocks_.front();
    env->arrivedBlocks_.erase(env->arrivedBlocks_.begin());
    return token;
}

void
FetchOpAwaiter::await_suspend(std::coroutine_handle<> h)
{
    env->fetchOpWaiter_ = h;
    env->magic->fetchOp(addr, env->proc().cursor());
}

void
FetchOpAwaiter::await_resume() const noexcept
{
    env->proc().absorbExternalWait(env->inSync());
}

bool
SpinAwaiter::await_ready() noexcept
{
    cpu::Processor &p = env->proc();
    const cpu::Cache &c = p.cache();
    if (env->syncPhase != nullptr && c.quiet() && c.freeAt() <= p.cursor() &&
        c.state(addr) != cpu::Cache::State::Invalid && env->magic->idle())
        return false;
    ++env->spinStats_.simulated;
    return true;
}

void
SpinAwaiter::await_suspend(std::coroutine_handle<> handle)
{
    h = handle;
    env->spin_ = this;
    parked->push_back(env);
}

void
Env::wakeSpin(Tick now)
{
    SpinAwaiter &s = *spin_;
    spin_ = nullptr;
    std::erase(*s.parked, this);
    cpu::Processor &p = proc();
    const NodeId node = static_cast<NodeId>(id_);

    // The parked state is the sync operation that parked: the cursor
    // and carries are its own, and iteration k's re-test falls at
    // cursor + cyclesFor(k * instrs). Every re-test up to the settled
    // tick ran and failed, since the variable has not changed.
    const Tick settled = syncPhase->settledThrough(node, now);
    if (settled < p.cursor())
        panic("Env %d: spin wake at %llu before its park at %llu", id_,
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(p.cursor()));
    std::uint64_t n = p.repetitionsWithin(settled - p.cursor(), s.instrs);
    const bool join =
        syncPhase->joinable(node, now) &&
        p.cursor() + p.cyclesFor((n + 1) * s.instrs) == now;
    if (join)
        ++n; // its spin read at now already hit

    p.busy(n * s.instrs, true);
    p.cache().replayHits(s.addr, n);
    spinStats_.elided += n;
    ++spinStats_.wakes;
    s.atTest = join;
    if (join) {
        ++spinStats_.joins;
        syncPhase->join(node, s.h);
    } else {
        ++spinStats_.simulated; // the pending iteration runs live
        s.h.resume();
    }
}

namespace
{

/** The variable changed in the sync operation at @p now: wake every
 *  waiter parked on it. */
void
wakeParked(std::vector<Env *> &parked, Tick now)
{
    while (!parked.empty())
        parked.front()->wakeSpin(now);
}

} // namespace

void
Env::notifyFetchOpDone(Addr)
{
    if (fetchOpWaiter_) {
        auto h = fetchOpWaiter_;
        fetchOpWaiter_ = nullptr;
        h.resume();
    }
}

void
Env::notifyBlockReceived(Addr token)
{
    arrivedBlocks_.push_back(token);
    if (recvWaiter_) {
        auto h = recvWaiter_;
        recvWaiter_ = nullptr;
        h.resume();
    }
}

void
Env::notifyBlockAcked(Addr)
{
    if (sendWaiter_) {
        auto h = sendWaiter_;
        sendWaiter_ = nullptr;
        h.resume();
    }
}

// Every access to the shared host-side variables (LockVar, BarrierVar)
// below sits behind a syncPoint(): the decision logic runs inside the
// machine's sync phase, in (tick, node, sequence) order, so races on
// the *host* state resolve by simulated time and node number alone.
// The simulated traffic (reads, writes, fetch&ops) is untouched —
// syncPoint costs zero simulated time. Where a variable changes, the
// waiters parked on it wake first (wakeParked).

Task
Env::lockAcquire(LockVar &l)
{
    SyncRegion region(*this);
    // Test: spin on a (usually cached) read of the lock line.
    co_await read(l.addr);
    co_await syncPoint();
    while (true) {
        if (!l.held) {
            // Test-and-set: gain exclusive ownership, then check that no
            // other processor won the race while our GETX was in flight.
            co_await write(l.addr);
            co_await syncPoint();
            if (!l.held) {
                l.held = true;
                ++l.acquisitions;
                co_return;
            }
        }
        // Backoff, then re-test; a parked waiter may wake at the test.
        if (co_await SpinAwaiter{this, &l.parked, l.addr, 32 + 1})
            continue;
        co_await busy(32);
        co_await read(l.addr);
        co_await syncPoint();
    }
}

Task
Env::lockRelease(LockVar &l)
{
    SyncRegion region(*this);
    co_await syncPoint();
    wakeParked(l.parked, proc().cursor());
    l.held = false;
    co_await write(l.addr);
}

Task
Env::barrier(BarrierVar &b)
{
    SyncRegion region(*this);
    co_await syncPoint();
    ++b.episodes;
    const int my_gen = b.gen;
    BarrierVar::Group &g =
        b.groups[static_cast<std::size_t>(id() / BarrierVar::kArity)];

    // Arrival: fetch&increment on the group's count line — via cached
    // exclusive ownership (the default) or MAGIC's uncached fetch&op.
    if (b.useFetchOp) {
        co_await fetchOp(g.countAddr);
    } else {
        co_await read(g.countAddr);
        co_await write(g.countAddr);
    }
    co_await syncPoint();
    ++g.count;

    if (g.count == g.size) {
        // Last in the group: combine at the root.
        g.count = 0;
        if (b.useFetchOp) {
            co_await fetchOp(b.rootCountAddr);
        } else {
            co_await read(b.rootCountAddr);
            co_await write(b.rootCountAddr);
        }
        co_await syncPoint();
        ++b.rootCount;
        if (b.rootCount == static_cast<int>(b.groups.size())) {
            // Global last arrival: release every group.
            b.rootCount = 0;
            wakeParked(b.parked, proc().cursor());
            ++b.gen;
            for (BarrierVar::Group &rg : b.groups)
                co_await write(rg.flagAddr);
            co_return;
        }
    }
    co_await syncPoint();
    while (b.gen == my_gen) {
        // Backoff, then re-read the flag; a parked waiter may wake at
        // the test.
        if (co_await SpinAwaiter{this, &b.parked, g.flagAddr, 16 + 1})
            continue;
        co_await busy(16);
        co_await read(g.flagAddr);
        co_await syncPoint();
    }
}

} // namespace flashsim::tango
