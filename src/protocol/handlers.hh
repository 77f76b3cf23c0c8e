/**
 * @file
 * Authoritative cache-coherence handler logic.
 *
 * The inbox jump table (protocol::HandlerPrograms, built with the PP
 * handler programs) names, per message type and line-is-local decode,
 * both the C++ handler here and its PP program counterpart. MAGIC decodes
 * each message once and runs both from that entry on the same inputs:
 * the message, the home node of its line, and whether the local
 * processor cache holds the line dirty. The C++ handlers perform the
 * authoritative directory state transition and tell MAGIC what to do
 * (messages to launch, memory/cache operations to perform); the PP
 * programs in pp_programs.cc reproduce the same control flow for
 * cycle-accurate timing, and a conformance test checks both agree.
 *
 * Race handling follows the NACK/retry discipline: requests that find
 * the line in a transient state (owner not yet holding data, writeback
 * in flight) are NACKed and retried by the requesting MAGIC. With the
 * simulator's FIFO point-to-point message delivery this converges.
 */

#ifndef FLASHSIM_PROTOCOL_HANDLERS_HH_
#define FLASHSIM_PROTOCOL_HANDLERS_HH_

#include <cstdint>
#include <utility>
#include <vector>

#include "protocol/directory.hh"
#include "protocol/message.hh"
#include "sim/types.hh"

namespace flashsim::protocol
{

/** Maps physical addresses to their home node (page placement policy). */
class AddressMap
{
  public:
    virtual ~AddressMap() = default;
    virtual NodeId homeOf(Addr addr) const = 0;
    /** Index of @p addr's page in allocation order, the key space of
     *  page placement and of MAGIC's page monitoring. */
    virtual std::uint64_t pageIndexOf(Addr addr) const = 0;
};

/** What an outgoing message's launch must wait for. */
enum class Gate : std::uint8_t
{
    None,      ///< launch as soon as the handler completes
    MemData,   ///< wait for local memory read data
    CacheData, ///< wait for the local processor-cache retrieval
};

struct OutMsg
{
    Message msg;
    Gate gate = Gate::None;
};

/**
 * Handler identities for occupancy accounting (rows of Table 3.4 plus
 * the small receive-side handlers the table does not list).
 */
enum class HandlerId : std::uint8_t
{
    ServeReadMemory,   ///< service read miss from main memory (11)
    ServeWriteMemory,  ///< service write miss (14 + 10..15 per inval)
    FwdToHome,         ///< requester-side forward of request (3)
    FwdHomeToDirty,    ///< home forwards to dirty node (18)
    RetrieveFromCache, ///< retrieve data from processor cache (38)
    ReplyToProc,       ///< forward network reply to processor (2)
    LocalWriteback,    ///< local writeback (10)
    LocalHint,         ///< local replacement hint (7)
    RemoteWriteback,   ///< writeback from a remote processor (8)
    RemoteHintOnly,    ///< remote hint, only node on list (17)
    RemoteHintNth,     ///< remote hint, Nth node (23 + 14N)
    InvalReceive,      ///< invalidation request at a sharer
    InvalAck,          ///< invalidation ack at the requester
    SwbReceive,        ///< sharing writeback at home
    OwnXferReceive,    ///< ownership transfer at home
    NackReceive,       ///< NACK at the requester (schedule retry)
    HomeNack,          ///< home NACKs a request in transient state
    BlockXferReceive,  ///< message-passing chunk lands in local memory
    BlockAckReceive,   ///< block-transfer completion at the sender
    FetchOpService,    ///< fetch&op read-modify-write at home memory
    FetchOpAck,        ///< fetch&op result back at the requester
};

/** Number of HandlerId values (for per-handler stat arrays). */
inline constexpr int kNumHandlerIds = 21;

const char *handlerIdName(HandlerId id);

/** Result of running a handler: directives for MAGIC. */
struct HandlerResult
{
    HandlerId id = HandlerId::ServeReadMemory;
    int costParam = 0; ///< inval count / sharer-list position, as needed

    /** Outgoing messages. The engine reuses one result, so this list
     *  keeps its capacity: it allocates only for a fan-out wider than
     *  any before it. */
    std::vector<OutMsg> out;

    bool memRead = false;   ///< handler needs local memory read data
    bool memWrite = false;  ///< handler writes the line back to memory
    bool cacheRetrieve = false;   ///< retrieve data from local proc cache
    bool cacheInvalidate = false; ///< invalidate line in local proc cache
    bool cacheSharing = false;    ///< downgrade local proc cache to shared
    bool nackedRequest = false;   ///< request was NACKed (stats)
};

/**
 * The per-node protocol engine: owns no timing, only state transitions.
 */
class ProtocolEngine
{
  public:
    ProtocolEngine(NodeId self, DirectoryStore &dir) : self_(self), dir_(dir)
    {}

    // The handlers, one per jump-table entry (see HandlerPrograms). Each
    // takes @p msg of a type its entry names, the @p home node of
    // msg.addr's line, and whether the local processor cache holds that
    // line dirty (@p cache_dirty), the inputs the PP program gets in
    // registers. Public so buildHandlerPrograms can place them. Each
    // returns the engine's one result (handlers never call each other),
    // valid until the next call; a caller that keeps it copies it.
    HandlerResult &handleGetAtHome(const Message &msg, NodeId home,
                                   bool cache_dirty);
    HandlerResult &handleGetxAtHome(const Message &msg, NodeId home,
                                    bool cache_dirty);
    HandlerResult &handleFwdGet(const Message &msg, NodeId home,
                                bool cache_dirty);
    HandlerResult &handleFwdGetx(const Message &msg, NodeId home,
                                 bool cache_dirty);
    HandlerResult &handleWritebackAtHome(const Message &msg, NodeId home,
                                         bool cache_dirty);
    HandlerResult &handleReplaceHintAtHome(const Message &msg, NodeId home,
                                           bool cache_dirty);
    HandlerResult &handleSwb(const Message &msg, NodeId home,
                             bool cache_dirty);
    HandlerResult &handleOwnXfer(const Message &msg, NodeId home,
                                 bool cache_dirty);
    HandlerResult &handleInval(const Message &msg, NodeId home,
                               bool cache_dirty);
    HandlerResult &handlePut(const Message &msg, NodeId home,
                             bool cache_dirty);
    HandlerResult &handlePutx(const Message &msg, NodeId home,
                              bool cache_dirty);
    HandlerResult &handleBlockXfer(const Message &msg, NodeId home,
                                   bool cache_dirty);
    HandlerResult &handleFetchOp(const Message &msg, NodeId home,
                                 bool cache_dirty);

    /** Requester side: pass the processor's request on to the home
     *  node as @p Net ("Forward request to home node", Table 3.4: 3
     *  cycles). */
    template <MsgType Net>
    HandlerResult &
    handleForward(const Message &msg, NodeId home, bool)
    {
        HandlerResult &r = fresh();
        r.id = HandlerId::FwdToHome;
        r.out.push_back({make(Net, home, msg.addr, self_), Gate::None});
        return r;
    }

    /** A receipt MAGIC books itself (invalidation-ack counting, NACK
     *  retry, block-transfer and fetch&op completion): the handler only
     *  names itself. */
    template <HandlerId Id>
    HandlerResult &
    handleReceipt(const Message &, NodeId, bool)
    {
        HandlerResult &r = fresh();
        r.id = Id;
        return r;
    }

  private:
    /** The engine's one result, reset for a new invocation: every field
     *  back to its default, the message list empty but keeping its
     *  capacity. */
    HandlerResult &
    fresh()
    {
        result_.out.clear();
        result_ = HandlerResult{.out = std::move(result_.out)};
        return result_;
    }

    Message make(MsgType type, NodeId dest, Addr addr, NodeId requester,
                 std::uint32_t aux = 0) const;

    NodeId self_;
    DirectoryStore &dir_;
    HandlerResult result_;
};

/** A C++ handler as a jump-table entry names it. */
using Handler = HandlerResult &(ProtocolEngine::*)(const Message &msg,
                                                    NodeId home,
                                                    bool cache_dirty);

} // namespace flashsim::protocol

#endif // FLASHSIM_PROTOCOL_HANDLERS_HH_
