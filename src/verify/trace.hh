/**
 * @file
 * Bounded per-node trace of recent protocol activity.
 *
 * Every machine keeps one fixed-depth ring per node, and that node's
 * MAGIC records each handler invocation and each injector action into
 * it on every run, verified or not. A record is one entry store and a
 * counter bump and never allocates. The machine's post-mortem replays
 * the rings when the oracle flags a violation or the process dies in
 * fatal()/panic() (a hang among other causes). This is the simulator's
 * one trace facility.
 */

#ifndef FLASHSIM_VERIFY_TRACE_HH_
#define FLASHSIM_VERIFY_TRACE_HH_

#include <array>
#include <cstdint>
#include <ostream>

#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "sim/types.hh"

namespace flashsim::verify
{

/** Entries kept in each node's message/handler trace ring. */
inline constexpr std::uint32_t kTraceDepth = 64;

/** One recorded protocol event. */
struct TraceEntry
{
    enum class Kind : std::uint8_t
    {
        Handler,      ///< a handler ran for the message
        InjectedNack, ///< the injector NACKed the request instead
        DroppedHint,  ///< the injector swallowed a replacement hint
        DupedHint,    ///< the injector duplicated a replacement hint
    };

    Tick tick = 0;
    Kind kind = Kind::Handler;
    protocol::MsgType type = protocol::MsgType::PiGet;
    protocol::HandlerId handler = protocol::HandlerId::ServeReadMemory;
    NodeId src = 0;
    NodeId requester = 0;
    Addr addr = 0;
    std::uint32_t aux = 0;
};

/** Ring of the last kTraceDepth TraceEntry records. */
class TraceRing
{
  public:
    /** Record @p msg at @p now: run by @p handler (Kind::Handler), or
     *  NACKed, dropped or duplicated by the injector. */
    void
    record(Tick now, TraceEntry::Kind kind, const protocol::Message &msg,
           protocol::HandlerId handler = protocol::HandlerId::ServeReadMemory)
    {
        entries_[next_ % kTraceDepth] = {now, kind, msg.type, handler,
                                         msg.src, msg.requester, msg.addr,
                                         msg.aux};
        ++next_;
    }

    /** Replay oldest-to-newest onto @p os, prefixing @p node. */
    void
    dump(std::ostream &os, NodeId node) const
    {
        const std::uint64_t first =
            next_ < kTraceDepth ? 0 : next_ - kTraceDepth;
        for (std::uint64_t i = first; i < next_; ++i) {
            const TraceEntry &e = entries_[i % kTraceDepth];
            os << "  [node " << node << " t=" << e.tick << "] ";
            switch (e.kind) {
              case TraceEntry::Kind::Handler:
                os << protocol::msgTypeName(e.type) << " -> "
                   << protocol::handlerIdName(e.handler);
                break;
              case TraceEntry::Kind::InjectedNack:
                os << protocol::msgTypeName(e.type)
                   << " -> HomeNack (injected)";
                break;
              case TraceEntry::Kind::DroppedHint:
                os << protocol::msgTypeName(e.type) << " dropped (injected)";
                break;
              case TraceEntry::Kind::DupedHint:
                os << protocol::msgTypeName(e.type)
                   << " duplicated (injected)";
                break;
            }
            os << " src=" << e.src << " req=" << e.requester << " addr=0x"
               << std::hex << e.addr << std::dec;
            if (e.aux)
                os << " aux=" << e.aux;
            os << "\n";
        }
    }

  private:
    std::array<TraceEntry, kTraceDepth> entries_{};
    std::uint64_t next_ = 0;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_TRACE_HH_
