/**
 * @file
 * Protocol message definitions.
 *
 * Everything that moves between units in a FLASH node (and between
 * nodes) is a message; MAGIC's inbox dispatches each message type,
 * local or remote, to a protocol handler via the jump table
 * (HandlerPrograms in pp_programs.hh). The message vocabulary below
 * implements the dynamic pointer allocation cache-coherence protocol
 * (Simoni; the paper's initial FLASH protocol) with NACK/retry conflict
 * resolution and three-hop dirty forwarding.
 */

#ifndef FLASHSIM_PROTOCOL_MESSAGE_HH_
#define FLASHSIM_PROTOCOL_MESSAGE_HH_

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace flashsim::protocol
{

/**
 * Message types. Pi* messages cross the processor interface; Net*
 * messages cross the network interface. Values are stable because the
 * PP handler programs encode them in Send immediates.
 */
enum class MsgType : std::uint8_t
{
    // Processor -> MAGIC
    PiGet = 0,        ///< read miss
    PiGetx = 1,       ///< write miss / upgrade
    PiWriteback = 2,  ///< dirty line eviction (data)
    PiReplaceHint = 3,///< clean line eviction notice
    // MAGIC -> processor
    PiPut = 4,        ///< read data reply
    PiPutx = 5,       ///< exclusive data reply; aux = pending inval acks
    PiInval = 6,      ///< invalidate processor cache line
    // Network request messages
    NetGet = 8,       ///< read request to home
    NetGetx = 9,      ///< exclusive request to home
    NetFwdGet = 10,   ///< home -> dirty owner: forward read
    NetFwdGetx = 11,  ///< home -> dirty owner: forward exclusive
    // Network reply messages
    NetPut = 12,      ///< data reply (home or owner -> requester)
    NetPutx = 13,     ///< exclusive data reply; aux = pending inval acks
    NetSwb = 14,      ///< sharing writeback (owner -> home, data)
    NetOwnXfer = 15,  ///< ownership transfer notice (owner -> home)
    NetInval = 16,    ///< invalidation request (home -> sharer)
    NetInvalAck = 17, ///< invalidation ack (sharer -> requester)
    NetWriteback = 18,///< dirty eviction writeback (owner -> home, data)
    NetReplaceHint = 19, ///< clean eviction notice (sharer -> home)
    NetNack = 20,     ///< negative ack: line pending, retry
    // Message-passing protocol (the "second protocol" MAGIC's
    // flexibility exists to support; cf. the companion [HGD+94] work):
    NetBlockXfer = 21, ///< one line of an uncached block transfer;
                       ///< aux = remaining chunks after this one
    NetBlockAck = 22,  ///< whole block landed in the receiver's memory
    // Uncached fetch&op synchronization (FLASH's MAGIC performed these
    // at the home memory, so hot counters never ping-pong as lines):
    PiFetchOp = 23,    ///< processor-issued fetch&op on an uncached word
    NetFetchOp = 24,   ///< fetch&op forwarded to the home node
    NetFetchOpAck = 25,///< fetch&op result back to the requester
};

/** Number of distinct message type codes (jump table rows). */
inline constexpr int kNumMsgTypes = 26;

/** True for messages that carry a full cache line of data. */
bool carriesData(MsgType t);

/** True for messages that arrive over the network interface. */
bool isNetMsg(MsgType t);

const char *msgTypeName(MsgType t);

/**
 * A protocol message. For forwarded requests, @c requester preserves the
 * original requesting node across the three-hop path.
 */
struct Message
{
    MsgType type = MsgType::PiGet;
    NodeId src = 0;       ///< sending node
    NodeId dest = 0;      ///< destination node
    NodeId requester = 0; ///< original requester (== src for 2-hop)
    Addr addr = 0;        ///< line-aligned address
    std::uint32_t aux = 0;///< inval count / sharer count as needed

    std::string toString() const;
};

/**
 * Packing of (addr, aux) into the single 64-bit Send argument used by PP
 * handler programs: bits [0,40) address, bits [40,56) aux, bits [56,64)
 * requester. Conformance tests compare C++ handler output against PP
 * program output through this encoding.
 */
constexpr std::uint64_t
packSendArg(Addr addr, std::uint32_t aux, NodeId requester)
{
    return (addr & ((std::uint64_t{1} << 40) - 1)) |
           (static_cast<std::uint64_t>(aux & 0xffff) << 40) |
           (static_cast<std::uint64_t>(requester & 0xff) << 56);
}

constexpr Addr
sendArgAddr(std::uint64_t arg)
{
    return arg & ((std::uint64_t{1} << 40) - 1);
}

constexpr std::uint32_t
sendArgAux(std::uint64_t arg)
{
    return static_cast<std::uint32_t>((arg >> 40) & 0xffff);
}

constexpr NodeId
sendArgRequester(std::uint64_t arg)
{
    return static_cast<NodeId>((arg >> 56) & 0xff);
}

} // namespace flashsim::protocol

#endif // FLASHSIM_PROTOCOL_MESSAGE_HH_
