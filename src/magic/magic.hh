/**
 * @file
 * The MAGIC node controller model.
 *
 * All transactions in a FLASH node pass through MAGIC: requests from
 * the processor (PI), messages from the network (NI), and everything
 * the protocol generates locally. The model implements the control
 * macropipeline of Figure 2.2:
 *
 *   interface inbound -> incoming queue -> inbox (arbitration + jump
 *   table + speculative memory initiation) -> protocol processor ->
 *   outbox -> interface outbound
 *
 * with the data-transfer logic expressed as launch gates: a data-
 * carrying reply leaves as soon as both its header has cleared the
 * control pipeline and its data is staged (memory first-word time or
 * processor-cache retrieval time), which is what the multiported,
 * per-word-valid data buffers buy the real chip.
 *
 * The ideal machine (params.ideal) is the same pipeline with all
 * macropipeline stages at zero cycles, infinite queues and unlimited
 * data buffers.
 *
 * The jump table is built with the handler programs
 * (protocol::HandlerPrograms); each entry names the C++ handler and
 * its PP program and says whether the inbox starts a speculative
 * memory read. The inbox decodes each message once, as it arrives: the
 * home node of its line, then that entry. When the PP takes the
 * message, MAGIC asks the processor cache once whether it holds the
 * line dirty and runs the PP timing model and the C++ handler from the
 * same entry on the same (message, home, cache dirty) inputs. A
 * speculative read's data occupies one of the 16 data buffers until
 * its handler finishes; with none free, the read starts with the
 * handler instead.
 */

#ifndef FLASHSIM_MAGIC_MAGIC_HH_
#define FLASHSIM_MAGIC_MAGIC_HH_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "magic/params.hh"
#include "magic/timing_model.hh"
#include "memsys/memory_controller.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "protocol/pp_programs.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace flashsim::verify
{
class CoherenceOracle;
class FaultInjector;
class TraceRing;
}
namespace flashsim::cpu
{
class Cache;
}
namespace flashsim::network
{
class MeshNetwork;
}
namespace flashsim::tango
{
class Env;
}

namespace flashsim::magic
{

/** Test hook run after each handler's directory transition and cache
 *  operations, before the trace and the oracle see it: free to corrupt
 *  machine state so tests can prove a broken handler is caught. */
using HandlerMutator = std::function<void(
    NodeId node, const protocol::Message &msg, protocol::HandlerResult &res)>;

/**
 * FIFO of inbound messages waiting for the PP: a growable power-of-two
 * ring. A std::deque allocates and frees a chunk every few messages as
 * the queue cycles; the ring allocates only when it grows past its
 * high-water mark, keeping the order of the elements it holds.
 */
template <typename T>
class MagicFifo
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    T &front() { return buf_[head_]; }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            grow();
        buf_[(head_ + size_) & (cap_ - 1)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

  private:
    void
    grow()
    {
        const std::size_t cap = cap_ == 0 ? 16 : cap_ * 2;
        std::unique_ptr<T[]> buf(new T[cap]);
        for (std::size_t i = 0; i < size_; ++i)
            buf[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
        buf_ = std::move(buf);
        cap_ = cap;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

class Magic
{
  public:
    Magic(EventQueue &eq, NodeId self, const MagicParams &params,
          const protocol::AddressMap &map,
          const protocol::HandlerPrograms &programs);
    ~Magic();

    Magic(const Magic &) = delete;
    Magic &operator=(const Magic &) = delete;

    /** A processor request appears on the bus at MAGIC's pins (the
     *  miss-detect and bus-transit cycles are charged by the cache). */
    void fromProcessor(const protocol::Message &msg);

    /** fromProcessor as it will stand @p delay cycles from now, folded
     *  into one event: the request lands in the PI queue at
     *  now + delay + piInbound directly. Falls back to the two-stage
     *  path under an active fault injector, whose inbound-stall clamp
     *  must observe arrivals in order. */
    void fromProcessorAfter(const protocol::Message &msg, Cycles delay);

    /** A network message arrives at the NI pins. */
    void fromNetwork(const protocol::Message &msg);

    /** Wire MAGIC to its node's processor cache (replies, NACKs and
     *  PI-directed cache operations), the mesh, and the node's workload
     *  environment (message-passing and fetch&op completions). Called
     *  once, after construction, before any message arrives. */
    void
    connect(cpu::Cache &cache, network::MeshNetwork &net, tango::Env &env)
    {
        cache_ = &cache;
        net_ = &net;
        env_ = &env;
    }

    /**
     * Initiate an uncached block transfer (the message-passing
     * protocol) that the processor issued at @p issue: stream @p bytes
     * starting at @p addr to @p dest, beginning at max(issue, now). The
     * PP sets the transfer up and the data-transfer logic pipelines
     * one line-sized chunk per local memory read; the receiver's
     * handler deposits chunks straight into its memory and the final
     * chunk is acknowledged back (Env::notifyBlockAcked).
     */
    void sendBlock(NodeId dest, Addr addr, std::uint32_t bytes, Tick issue);

    /** Issue the processor's uncached fetch&op on @p addr's line at
     *  max(@p issue, now); completion is Env::notifyFetchOpDone. */
    void fetchOp(Addr addr, Tick issue);

    memsys::MemoryController &memory() { return mem_; }
    const memsys::MemoryController &memory() const { return mem_; }
    protocol::DirectoryStore &directory() { return dir_; }
    const MagicParams &params() const { return params_; }
    NodeId self() const { return self_; }

    /** No message is queued or being handled: until the next message
     *  enters (enqueue), MAGIC will not touch the processor cache. */
    bool
    idle() const
    {
        return !ppBusy_ && piQueue_.empty() && niQueue_.empty();
    }

    /** The PP emulator timing model, if in use (Table 5.2 stats). */
    const PpTimingModel *ppModel() const { return pp_.get(); }

    /** Wire MAGIC to the machine's trace ring for this node, its
     *  coherence oracle and fault injector (each null when off) and its
     *  test mutator. Every handler invocation and injector action is
     *  recorded in the ring; the oracle checks each handler, and with
     *  it the PP engine checks each handler program run against its
     *  reference interpreter. Called once, after construction, before
     *  any message arrives. */
    void
    attachTrace(verify::TraceRing &ring, verify::CoherenceOracle *oracle,
                verify::FaultInjector *inj, const HandlerMutator &mutator)
    {
        ring_ = &ring;
        oracle_ = oracle;
        injector_ = inj;
        mutator_ = &mutator;
        if (pp_)
            pp_->checkEngine(oracle != nullptr);
    }

    // -- Statistics ---------------------------------------------------------
    Occupancy ppOcc;        ///< protocol processor busy time
    Counter invocations = 0;    ///< handler invocations
    Counter specIssued = 0;     ///< speculative memory reads launched
    Counter specUseless = 0;    ///< ... whose data was not needed
    Counter nacksSent = 0;
    Counter nacksReceived = 0;
    Counter msgsIn = 0;
    Counter micColdMisses = 0;
    Counter queueStallCycles = 0; ///< cycles messages waited for the PP
    Counter blockChunksSent = 0;
    Counter blockChunksReceived = 0;
    Counter blocksCompleted = 0;  ///< transfers fully received here

    /** Read-miss service classification (Tables 3.3 / 4.1), counted at
     *  the home node when the servicing handler runs. */
    struct MissClasses
    {
        Counter localClean = 0;
        Counter localDirtyRemote = 0;
        Counter remoteClean = 0;
        Counter remoteDirtyHome = 0;
        Counter remoteDirtyRemote = 0;

        Counter
        total() const
        {
            return localClean + localDirtyRemote + remoteClean +
                   remoteDirtyHome + remoteDirtyRemote;
        }
    };
    MissClasses readClasses;

    /** Per-handler invocation counts and cycles (Table 3.4). */
    std::array<Counter, protocol::kNumHandlerIds> handlerCount{};
    std::array<Counter, protocol::kNumHandlerIds> handlerCycles{};

    /**
     * Per-page remote-request counts (params.monitorPages): the
     * protocol-processor-side performance monitoring the paper names as
     * a key advantage of flexibility (Sections 1 and 4.4), usable to
     * drive page migration policies. Indexed by page index
     * (AddressMap::pageIndexOf); grows when a page past its end is first
     * counted, so a page with no remote traffic reads 0 or lies past
     * the end.
     */
    std::vector<Counter> pageRemoteAccesses;

  private:
    struct Pending
    {
        protocol::Message msg;
        /** The inbox's decode of msg: the jump-table entry for its type
         *  and line-is-local bit, and the home node of its line. */
        const protocol::HandlerPrograms::Entry *entry = nullptr;
        NodeId home = 0;
        /** The inbox issued the speculative memory read on arrival
         *  (macropipeline: this overlaps queued messages' memory time
         *  with the PP's processing of earlier messages). */
        bool specIssued = false;
        Tick enqueued = 0;
        Tick specReady = 0;
    };

    void streamBlock(NodeId dest, Addr addr, std::uint32_t bytes);
    void enqueue(MagicFifo<Pending> &q, const protocol::Message &msg);
    void tryDispatch();
    /** Run the handler for running_, the message the PP took. */
    void runHandler();
    void launch(const protocol::Message &msg, Tick pp_end, Tick gate);
    /** Injector-forced NACK of a request at the home node; bypasses the
     *  protocol engine and the PP timing model entirely. */
    void injectedNack(const Pending &pending, bool release_buffer);
    /** Inbound arrival time with injected stall, FIFO-clamped per
     *  queue so no message overtakes an earlier one. */
    Tick inboundArrival(Cycles base, Tick &last);

    EventQueue &eq_;
    NodeId self_;
    MagicParams params_;
    const protocol::AddressMap &map_;
    cpu::Cache *cache_ = nullptr;
    network::MeshNetwork *net_ = nullptr;
    tango::Env *env_ = nullptr;

    protocol::DirectoryStore dir_;
    memsys::MemoryController mem_;
    /** The handler programs and the inbox jump table. */
    const protocol::HandlerPrograms &programs_;
    /** Table 3.1 data buffers not holding a speculative read's data.
     *  The ideal machine never claims one (its buffers are unlimited). */
    int freeBuffers_ = kDataBuffers;

    protocol::ProtocolEngine engine_;

    /** PPsim handler timing; null on the ideal machine and under
     *  --table-timing, which charge tableCost() instead. Held on the
     *  heap, not inline: an inline model grew Magic to 2.5 KB and
     *  shifted the heap enough that Radix's key vectors re-faulted
     *  every set-up round. */
    std::unique_ptr<PpTimingModel> pp_;

    MagicFifo<Pending> piQueue_;
    MagicFifo<Pending> niQueue_;
    /** The message the PP is handling; valid while ppBusy_. The PP
     *  runs one handler at a time, so one slot suffices. */
    Pending running_;
    bool ppBusy_ = false;
    bool pickPiFirst_ = true;

    verify::TraceRing *ring_ = nullptr;
    verify::CoherenceOracle *oracle_ = nullptr;
    verify::FaultInjector *injector_ = nullptr;
    const HandlerMutator *mutator_ = nullptr;
    /** Last injector-stalled arrival per inbound queue (FIFO clamps). */
    Tick lastPiArrival_ = 0;
    Tick lastNiArrival_ = 0;
};

} // namespace flashsim::magic

#endif // FLASHSIM_MAGIC_MAGIC_HH_
