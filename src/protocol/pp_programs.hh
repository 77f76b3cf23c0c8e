/**
 * @file
 * PP handler programs: the protocol handlers written in the PP IR.
 *
 * Each program mirrors the control flow of its authoritative C++
 * counterpart in handlers.cc, which the same jump-table entry names and
 * which takes the same inputs (the message, r7 and r10 below). It
 * performs the same directory-word loads and stores (through the MAGIC
 * data cache) and launches the same outgoing messages via Send.
 * PpTimingModel executes these against a shadow of the live directory
 * to obtain cycle-accurate handler occupancies; the conformance test in
 * tests/ checks message-level agreement with the C++ handlers across
 * the protocol input space.
 *
 * Handler ABI (registers preloaded by the inbox before dispatch):
 *   r1  message type          r2  line address
 *   r3  source node           r4  message aux field
 *   r5  original requester    r6  this node's id
 *   r7  home node of address  r8  directory header word address
 *   r9  link pool base        r10 local-cache-holds-dirty flag
 *   r11 ack-table entry address for this line
 *   r12 raw message argument word (packSendArg of addr/aux/requester)
 */

#ifndef FLASHSIM_PROTOCOL_PP_PROGRAMS_HH_
#define FLASHSIM_PROTOCOL_PP_PROGRAMS_HH_

#include <array>
#include <cstddef>
#include <vector>

#include "ppc/compiler.hh"
#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/message.hh"

namespace flashsim::protocol
{

/**
 * The compiled handler programs and the inbox jump table that
 * dispatches to them: the one (message type, line is local) -> handler
 * decision. The table is indexed by message type and by the inbox's
 * address decode (the line is local, i.e. homed here, or remote), so
 * processor requests have distinct local-service and forward-to-home
 * handlers, exactly as the real protocol code does. Each entry names
 * the authoritative C++ handler and its PP program, and says whether
 * the inbox starts a speculative memory read for the message (Section
 * 5.1). Built once, with the programs, by buildHandlerPrograms;
 * read-only afterwards.
 */
struct HandlerPrograms
{
    /** One jump-table entry. An entry has a program iff it has a
     *  handler; both are unset for a type MAGIC never receives. */
    struct Entry
    {
        /** Index into `programs`; -1 when unset. */
        int program = -1;
        /** The C++ handler; null when unset. */
        Handler handler = nullptr;
        /** Start a speculative memory read as the header is decoded. */
        bool specRead = false;
    };

    std::vector<ppisa::Program> programs;
    /** The jump table, indexed [message type][line is local]. Several
     *  entries may share a program (fetch&op service at home serves
     *  both PiFetchOp and NetFetchOp). */
    std::array<std::array<Entry, 2>, kNumMsgTypes> table{};

    /** The entry the inbox dispatches a message of type @p t through
     *  (+ its address decode); panics for a type with no handler. */
    const Entry &dispatch(MsgType t, bool at_home) const;

    /** The PP program of dispatch(t, at_home). */
    const ppisa::Program &
    forMessage(MsgType t, bool at_home) const
    {
        return programs[static_cast<std::size_t>(
            dispatch(t, at_home).program)];
    }

    /** All programs, for code-size and toolchain statistics. */
    std::vector<const ppisa::Program *> all() const;

    /** Total static code size (Table 5.2 "static code size"). */
    std::size_t totalCodeBytes() const;
};

/** Compile all handler programs with the given compiler options. */
HandlerPrograms buildHandlerPrograms(const ppc::CompileOptions &opts = {});

/**
 * Process-wide cache of compiled handler programs, keyed by the
 * compile options. The handler toolchain is deterministic, so every
 * machine with the same options can share one immutable program set
 * (each program lowered once, as it is built) instead of re-running
 * the compiler per Machine. Thread-safe: sweep workers construct
 * machines concurrently, and the published set is only ever read.
 */
std::shared_ptr<const HandlerPrograms>
sharedHandlerPrograms(const ppc::CompileOptions &opts = {});

/**
 * Prepare the handler-ABI register file for @p msg arriving at @p self.
 * Inline: this runs once per handler invocation on the PP dispatch hot
 * path (see BM_PpDispatchCompiled), where an out-of-line copy of the
 * 256-byte register file costs as much as several executed pairs.
 */
inline ppisa::RegFile
makeHandlerRegs(const Message &msg, NodeId self, NodeId home,
                bool cache_dirty)
{
    // Not `RegFile regs{}`: GCC lowers that 256-byte value-init to a
    // rep-stos memset whose startup latency alone costs as much as the
    // defined-register stores below. Explicit stores (with the scratch
    // range unrolled so it is not re-idiomized into memset) compile to
    // straight vector stores at half the cost.
    ppisa::RegFile regs;
    std::uint64_t *const r = regs.data();
    r[0] = 0;
    r[1] = static_cast<std::uint64_t>(msg.type);
    r[2] = msg.addr;
    r[3] = msg.src;
    r[4] = msg.aux;
    r[5] = msg.requester;
    r[6] = self;
    r[7] = home;
    r[8] = headerAddr(msg.addr);
    r[9] = kLinkPoolBase;
    r[10] = cache_dirty ? 1 : 0;
    r[11] = ackAddr(msg.addr);
    // The inbox passes the raw message header through to the PP, so
    // pass-through sends (forwards, replies, NACKs) need no repacking.
    r[12] = packSendArg(msg.addr, msg.aux, msg.requester);
#pragma GCC unroll 19
    for (int i = 13; i < ppisa::kNumRegs; ++i)
        r[i] = 0;
    return regs;
}

/** Decode a PP Send back into a protocol message (for conformance). */
Message decodeSent(const ppisa::SentMessage &s, NodeId self);

} // namespace flashsim::protocol

#endif // FLASHSIM_PROTOCOL_PP_PROGRAMS_HH_
