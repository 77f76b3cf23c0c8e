#include "magic/magic.hh"

#include <algorithm>
#include <utility>

#include "cpu/cache.hh"
#include "network/mesh.hh"
#include "sim/logging.hh"
#include "tango/runtime.hh"
#include "verify/fault.hh"
#include "verify/oracle.hh"
#include "verify/trace.hh"

namespace flashsim::magic
{

using protocol::Gate;
using protocol::HandlerId;
using protocol::HandlerResult;
using protocol::Message;
using protocol::MsgType;

Magic::Magic(EventQueue &eq, NodeId self, const MagicParams &params,
             const protocol::AddressMap &map,
             const protocol::HandlerPrograms &programs)
    : eq_(eq), self_(self), params_(params), map_(map), dir_(),
      mem_(kMemAccess, kMemBusy), programs_(programs), engine_(self, dir_)
{
    if (params_.usePpEmulator && !params_.ideal)
        pp_ = std::make_unique<PpTimingModel>(programs_, dir_, params_);
}

Magic::~Magic() = default;

Tick
Magic::inboundArrival(Cycles base, Tick &last)
{
    Tick t = eq_.now() + base;
    if (injector_) {
        t += injector_->inboundStall(self_);
        // Queue-full backpressure must not reorder the queue: clamp to
        // the latest stalled arrival (same-tick ties keep FIFO order).
        t = std::max(t, last);
        last = t;
    }
    return t;
}

void
Magic::fromProcessor(const Message &msg)
{
    Tick t = inboundArrival(kPiInbound, lastPiArrival_);
    eq_.scheduleAt(t, [this, msg] { enqueue(piQueue_, msg); });
}

void
Magic::fromProcessorAfter(const Message &msg, Cycles delay)
{
    if (injector_) {
        eq_.schedule(delay, [this, msg] { fromProcessor(msg); });
        return;
    }
    eq_.scheduleAt(eq_.now() + delay + kPiInbound,
                   [this, msg] { enqueue(piQueue_, msg); });
}

void
Magic::fromNetwork(const Message &msg)
{
    // A home request still takes its one injector draw, so seeded
    // injection runs keep their decisions (see skipRequestDraw).
    if (injector_ &&
        (msg.type == MsgType::NetGet || msg.type == MsgType::NetGetx) &&
        map_.homeOf(msg.addr) == self_)
        injector_->skipRequestDraw(self_);
    Tick t = inboundArrival(kNiInbound, lastNiArrival_);
    eq_.scheduleAt(t, [this, msg] { enqueue(niQueue_, msg); });
}

void
Magic::sendBlock(NodeId dest, Addr addr, std::uint32_t bytes, Tick issue)
{
    eq_.scheduleAt(std::max(issue, eq_.now()), [this, dest, addr, bytes] {
        streamBlock(dest, addr, bytes);
    });
}

void
Magic::fetchOp(Addr addr, Tick issue)
{
    const Message m{MsgType::PiFetchOp, self_, self_, self_, lineBase(addr)};
    eq_.scheduleAt(std::max(issue, eq_.now()),
                   [this, m] { fromProcessor(m); });
}

void
Magic::streamBlock(NodeId dest, Addr addr, std::uint32_t bytes)
{
    const Addr base = lineBase(addr);
    const std::uint32_t chunks =
        (bytes + static_cast<std::uint32_t>(kLineSize) - 1) /
        static_cast<std::uint32_t>(kLineSize);
    // The PP runs the send handler once to program the transfer; the
    // data-transfer logic then streams chunks at memory speed, with a
    // couple of PP cycles per chunk to compose each header.
    const Cycles setup = params_.ideal ? 0 : 8;
    ppOcc.addBusy(setup);
    Tick launch = eq_.now() + setup;
    for (std::uint32_t i = 0; i < chunks; ++i) {
        Tick data_ready = mem_.read(launch);
        if (!params_.ideal)
            ppOcc.addBusy(2);
        Message m;
        m.type = MsgType::NetBlockXfer;
        m.src = self_;
        m.dest = dest;
        m.requester = self_;
        m.addr = base + static_cast<Addr>(i) * kLineSize;
        m.aux = chunks - 1 - i; // chunks remaining after this one
        ++blockChunksSent;
        Tick t = std::max(launch + kNiOutbound, data_ready);
        net_->sendAt(m, t);
        launch = t; // chunks stay ordered on the wire
    }
}

void
Magic::enqueue(MagicFifo<Pending> &q, const Message &msg)
{
    // A message entering the node is the first thing that can reach the
    // processor cache of a spin waiter parked while MAGIC was idle: the
    // waiter catches up to now before anything here is scheduled.
    if (env_->spinParked())
        env_->wakeSpin(eq_.now());
    // Injected replacement-hint perturbation: a dropped hint leaves a
    // stale sharer pointer in the directory (cleaned up by a later
    // invalidation), a duplicated one a double entry — both states the
    // real machine can reach through lost or replayed hint messages.
    int copies = 1;
    if (injector_ && (msg.type == MsgType::PiReplaceHint ||
                      msg.type == MsgType::NetReplaceHint)) {
        switch (injector_->hintFate(self_)) {
          case verify::FaultInjector::HintFate::Drop:
            ring_->record(eq_.now(), verify::TraceEntry::Kind::DroppedHint,
                          msg);
            return;
          case verify::FaultInjector::HintFate::Duplicate:
            ring_->record(eq_.now(), verify::TraceEntry::Kind::DupedHint,
                          msg);
            copies = 2;
            break;
          case verify::FaultInjector::HintFate::Deliver:
            break;
        }
    }
    // The inbox decodes the header once: the line's home, then the
    // jump-table entry the PP will run.
    const NodeId home = map_.homeOf(msg.addr);
    const protocol::HandlerPrograms::Entry &entry =
        programs_.dispatch(msg.type, home == self_);
    for (int c = 0; c < copies; ++c) {
        ++msgsIn;
        Pending p{msg, &entry, home, false, eq_.now(), 0};
        // Speculative memory initiation happens as the inbox preprocesses
        // the incoming header, concurrently with the PP working on earlier
        // messages — this is what hides protocol processing behind the
        // memory access time even when the PP is backed up (Section 4.3).
        // Each early read stages into one of the 16 data buffers.
        if (!params_.ideal && params_.speculation && freeBuffers_ > 0 &&
            entry.specRead) {
            --freeBuffers_;
            p.specIssued = true;
            p.specReady = mem_.read(eq_.now() + kJumpLookup);
            ++specIssued;
        }
        q.push_back(p);
    }
    tryDispatch();
}

void
Magic::tryDispatch()
{
    if (ppBusy_)
        return;
    MagicFifo<Pending> *q = nullptr;
    if (!piQueue_.empty() && !niQueue_.empty()) {
        q = pickPiFirst_ ? &piQueue_ : &niQueue_;
        pickPiFirst_ = !pickPiFirst_;
    } else if (!piQueue_.empty()) {
        q = &piQueue_;
    } else if (!niQueue_.empty()) {
        q = &niQueue_;
    } else {
        return;
    }

    running_ = q->front();
    q->pop_front();
    queueStallCycles += eq_.now() - running_.enqueued;
    ppBusy_ = true;

    // Inbox: queue selection/arbitration, then the jump-table lookup.
    Cycles lead = kInboxArb + (params_.ideal ? 0 : kJumpLookup);
    eq_.schedule(lead, [this] { runHandler(); });
}

void
Magic::runHandler()
{
    const Pending &pending = running_;
    const Message &msg = pending.msg;
    const protocol::HandlerPrograms::Entry &entry = *pending.entry;
    const Tick now = eq_.now();
    const NodeId home = pending.home;
    const bool at_home = home == self_;

    setLogNode(self_);

    // Injector-forced NACK: the request is bounced as if the line were
    // in a transient state, exercising the retry paths without waiting
    // for a genuine race.
    if (injector_ && at_home &&
        (msg.type == MsgType::PiGet || msg.type == MsgType::PiGetx ||
         msg.type == MsgType::NetGet || msg.type == MsgType::NetGetx) &&
        injector_->rollNack(self_)) {
        injectedNack(pending, pending.specIssued);
        setLogNode(kInvalidNode);
        return;
    }

    // Speculative memory initiation: usually already launched by the
    // inbox at message arrival; the ideal machine (or an inbox that ran
    // out of data buffers) starts the read here instead.
    bool spec_issued = pending.specIssued;
    bool release_buffer = pending.specIssued;
    Tick mem_ready = pending.specReady;
    if (!spec_issued && params_.speculation && entry.specRead) {
        mem_ready = mem_.read(now);
        spec_issued = true;
        ++specIssued;
    }

    // The PP program and the C++ handler run from the same entry on the
    // same inputs. The program runs against the directory as the C++
    // handler finds it, so it is timed first.
    const bool cache_dirty = cache_->holdsDirty(msg.addr);
    HandlerTiming ht;
    if (pp_)
        ht = pp_->run(entry, msg, self_, home, cache_dirty);
    HandlerResult &res = (engine_.*entry.handler)(msg, home, cache_dirty);
    if (!pp_)
        ht.occupancy = tableCost(res.id, res.costParam);
    else if (res.cacheRetrieve)
        ht.occupancy += kCacheRetrieveCycles;

    Cycles occ = params_.ideal ? 0 : ht.occupancy;

    // Optional PP-side page monitoring (Section 4.4): count remote
    // requests per local page, paying a couple of handler cycles.
    if (params_.monitorPages && at_home && msg.requester != self_ &&
        (msg.type == MsgType::PiGet || msg.type == MsgType::NetGet ||
         msg.type == MsgType::PiGetx || msg.type == MsgType::NetGetx)) {
        const std::uint64_t page = map_.pageIndexOf(msg.addr);
        if (page >= pageRemoteAccesses.size())
            pageRemoteAccesses.resize(page + 1);
        ++pageRemoteAccesses[page];
        if (!params_.ideal)
            occ += kMonitorCost;
    }

    ppOcc.addBusy(occ);
    ++invocations;
    handlerCount[static_cast<std::size_t>(res.id)] += 1;
    handlerCycles[static_cast<std::size_t>(res.id)] += ht.occupancy;
    if (ht.micColdMiss)
        ++micColdMisses;
    if (res.nackedRequest)
        ++nacksSent;

    // Classify read-miss services (Tables 3.3 / 4.1). NACKed requests
    // are classified when the successful retry is serviced.
    if (msg.type == MsgType::PiGet || msg.type == MsgType::NetGet) {
        const bool local = msg.requester == self_;
        switch (res.id) {
          case HandlerId::ServeReadMemory:
            (local ? readClasses.localClean : readClasses.remoteClean) += 1;
            break;
          case HandlerId::RetrieveFromCache:
            readClasses.remoteDirtyHome += 1;
            break;
          case HandlerId::FwdHomeToDirty:
            (local ? readClasses.localDirtyRemote
                   : readClasses.remoteDirtyRemote) += 1;
            break;
          default:
            break;
        }
    }

    // Protocol-data traffic: MDC fills and victim writebacks occupy the
    // node's memory system (Section 5.2).
    for (std::uint32_t i = 0; i < ht.mdcMisses + ht.mdcWritebacks; ++i)
        mem_.protocolAccess(now);

    const Tick pp_end = now + occ;

    if (res.id == HandlerId::FetchOpService) {
        // Word-granular RMW at the home memory (fetch&op).
        mem_ready = mem_.rmw(now);
    }
    if (spec_issued && !res.memRead)
        ++specUseless; // the data in memory was not the up-to-date copy
    if (!spec_issued && res.memRead) {
        // Without speculation the PP initiates the access itself once it
        // has read the directory state.
        mem_ready = mem_.read(pp_end);
    }
    if (res.memWrite)
        mem_.write(pp_end);

    // Processor-cache operations directed through the PI.
    Tick cache_ready = 0;
    if (res.cacheRetrieve) {
        cache_ready = now + kCacheStateRetrieve + kCacheDataRetrieve;
        cache_->busyUntil(cache_ready);
        if (res.cacheSharing)
            cache_->downgrade(msg.addr);
        if (res.cacheInvalidate)
            cache_->invalidate(msg.addr);
    } else if (res.cacheInvalidate) {
        cache_ready = now + kCacheStateRetrieve;
        cache_->busyUntil(cache_ready);
        cache_->invalidate(msg.addr);
    } else if (res.cacheSharing) {
        cache_->downgrade(msg.addr);
    }

    // The handler's directory transition and cache operations are all
    // applied: trace it, and let the oracle (if on) update its golden
    // state and cross-check the machine. The test mutator (if any)
    // corrupts state first so tests can prove a broken handler is
    // caught.
    if (*mutator_)
        (*mutator_)(self_, msg, res);
    ring_->record(now, verify::TraceEntry::Kind::Handler, msg, res.id);
    if (oracle_)
        oracle_->onHandler(self_, at_home, now, msg, res);

    for (const protocol::OutMsg &o : res.out) {
        Tick gate = 0;
        switch (o.gate) {
          case Gate::MemData: gate = mem_ready; break;
          case Gate::CacheData: gate = cache_ready; break;
          case Gate::None: break;
        }
        launch(o.msg, pp_end, gate);
    }

    // Message-passing notifications.
    if (msg.type == MsgType::NetBlockXfer) {
        ++blockChunksReceived;
        if (msg.aux == 0) {
            ++blocksCompleted;
            Addr base = msg.addr; // last chunk; block base not carried
            eq_.scheduleAt(pp_end,
                           [this, base] { env_->notifyBlockReceived(base); });
        }
    } else if (msg.type == MsgType::NetBlockAck) {
        Addr base = msg.addr;
        eq_.scheduleAt(pp_end,
                       [this, base] { env_->notifyBlockAcked(base); });
    } else if (msg.type == MsgType::NetFetchOpAck) {
        Addr fa = msg.addr;
        eq_.scheduleAt(pp_end,
                       [this, fa] { env_->notifyFetchOpDone(fa); });
    }

    // A NACK reply at the requester: tell the cache so it retries.
    if (msg.type == MsgType::NetNack) {
        ++nacksReceived;
        Tick t = pp_end + (params_.ideal ? 0 : kOutbox);
        eq_.scheduleAt(t, [this, msg] { cache_->deliver(msg); });
    }

    eq_.scheduleAt(pp_end, [this, release_buffer] {
        if (release_buffer)
            ++freeBuffers_;
        ppBusy_ = false;
        tryDispatch();
    });

    setLogNode(kInvalidNode);
}

void
Magic::injectedNack(const Pending &pending, bool release_buffer)
{
    const Message &msg = pending.msg;
    const Tick now = eq_.now();

    // The PP reads the header, decides to bounce, and composes the
    // NACK — about what a genuine transient-state NACK costs (HomeNack
    // in Table 3.4 territory). The protocol engine and the PP timing
    // model never see the message, so neither real directory state nor
    // the emulator's internal bookkeeping is touched.
    const Cycles occ = params_.ideal ? 0 : 6;
    ppOcc.addBusy(occ);
    ++invocations;
    handlerCount[static_cast<std::size_t>(HandlerId::HomeNack)] += 1;
    handlerCycles[static_cast<std::size_t>(HandlerId::HomeNack)] += occ;
    ++nacksSent;
    if (pending.specIssued)
        ++specUseless;

    ring_->record(now, verify::TraceEntry::Kind::InjectedNack, msg);

    Message nack;
    nack.type = MsgType::NetNack;
    nack.src = self_;
    nack.dest = msg.requester;
    nack.requester = msg.requester;
    nack.addr = msg.addr;

    const Tick pp_end = now + occ;
    launch(nack, pp_end, 0);
    eq_.scheduleAt(pp_end, [this, release_buffer] {
        if (release_buffer)
            ++freeBuffers_;
        ppBusy_ = false;
        tryDispatch();
    });
}

void
Magic::launch(const Message &msg, Tick pp_end, Tick gate)
{
    const Cycles outbox = params_.ideal ? 0 : kOutbox;
    const Tick header_start = pp_end + outbox;

    if (!protocol::isNetMsg(msg.type)) {
        // Processor-bound reply: outbound PI processing overlaps with
        // data staging; first word hits the bus after arbitration.
        const Cycles pi_out = params_.ideal ? kPiOutboundIdeal : kPiOutbound;
        Tick t = std::max(header_start + pi_out, gate) + kBusArb + kBusTransit;
        eq_.scheduleAt(t, [this, msg] { cache_->deliver(msg); });
        return;
    }

    if (msg.dest == self_) {
        // Local loopback (e.g. a NACK the home sends itself): re-enters
        // through the network interface without transiting the mesh.
        Tick t = std::max(header_start, gate);
        eq_.scheduleAt(t, [this, msg] { fromNetwork(msg); });
        return;
    }

    // Network-bound: NI outbound header processing overlaps with data
    // staging (pipelined data buffers). The network takes the future
    // departure time directly; no event exists only to hand it over.
    net_->sendAt(msg, std::max(header_start + kNiOutbound, gate));
}

} // namespace flashsim::magic
