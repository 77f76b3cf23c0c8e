#include "magic/timing_model.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sim/logging.hh"

namespace flashsim::magic
{

using protocol::HandlerId;

Cycles
tableCost(HandlerId id, int param)
{
    switch (id) {
      case HandlerId::ServeReadMemory: return 11;
      case HandlerId::ServeWriteMemory:
        return 14 + 13 * static_cast<Cycles>(param);
      case HandlerId::FwdToHome: return 3;
      case HandlerId::FwdHomeToDirty: return 18;
      case HandlerId::RetrieveFromCache: return 38;
      case HandlerId::ReplyToProc: return 2;
      case HandlerId::LocalWriteback: return 10;
      case HandlerId::LocalHint: return 7;
      case HandlerId::RemoteWriteback: return 8;
      case HandlerId::RemoteHintOnly: return 17;
      case HandlerId::RemoteHintNth:
        return 23 + 14 * static_cast<Cycles>(param);
      case HandlerId::InvalReceive: return 9;
      case HandlerId::InvalAck: return 4;
      case HandlerId::SwbReceive: return 10;
      case HandlerId::OwnXferReceive: return 5;
      case HandlerId::NackReceive: return 3;
      case HandlerId::HomeNack: return 6;
      // Not in Table 3.4: warm PPsim occupancies of the handlers in
      // protocol/pp_programs.cc (a block-transfer chunk costs 6, or 7
      // for the final chunk that also sends the ack).
      case HandlerId::BlockXferReceive: return 6;
      case HandlerId::BlockAckReceive: return 3;
      case HandlerId::FetchOpService: return 5;
      case HandlerId::FetchOpAck: return 3;
    }
    return 0;
}

std::uint64_t
PpTimingModel::ShadowMemory::load(Addr addr, Cycles &extra)
{
    MdcAccess a = mdc_.access(addr, false);
    if (trace)
        std::fprintf(stderr, "[mdc] ld 0x%llx %s\n",
                     static_cast<unsigned long long>(addr),
                     a.hit ? "hit" : "MISS");
    extra = a.hit ? 0 : missPenalty_;
    if (!a.hit)
        ++misses;
    if (a.victimWriteback)
        ++writebacks;
    const std::uint64_t *w = writes_.find(addr);
    return w != nullptr ? *w : dir_.loadWord(addr);
}

void
PpTimingModel::ShadowMemory::store(Addr addr, std::uint64_t value,
                                   Cycles &extra)
{
    MdcAccess a = mdc_.access(addr, true);
    if (trace)
        std::fprintf(stderr, "[mdc] sd 0x%llx %s\n",
                     static_cast<unsigned long long>(addr),
                     a.hit ? "hit" : "MISS");
    extra = a.hit ? 0 : missPenalty_;
    if (!a.hit)
        ++misses;
    if (a.victimWriteback)
        ++writebacks;
    writes_.put(addr, value);
}

void
PpTimingModel::ShadowMemory::reset()
{
    writes_.reset();
    misses = 0;
    writebacks = 0;
}

PpTimingModel::PpTimingModel(const protocol::HandlerPrograms &programs,
                             const protocol::DirectoryStore &dir,
                             const MagicParams &params)
    : micColdMiss_(params.micColdMiss),
      mdc_(params.mdcBytes, kMdcAssoc, kMdcLineBytes),
      shadow_(dir, mdc_, params.mdcMissPenalty)
{
    // Debug aid: FS_TRACE_MDC=1 logs every MDC access on stderr.
    shadow_.trace = std::getenv("FS_TRACE_MDC") != nullptr;
    // Resolve the (type, at_home) -> program mapping once — the handler
    // load point — so no dispatch work remains on the per-message path.
    // Entries aliasing the same program share a warm slot (see
    // DispatchEntry).
    std::vector<const ppisa::Program *> uniq;
    for (int t = 0; t < protocol::kNumMsgTypes; ++t) {
        for (int at_home = 0; at_home < 2; ++at_home) {
            const ppisa::Program *prog = programs.forMessageOrNull(
                static_cast<protocol::MsgType>(t), at_home != 0);
            if (prog == nullptr)
                continue;
            auto it = std::find(uniq.begin(), uniq.end(), prog);
            if (it == uniq.end())
                it = uniq.insert(uniq.end(), prog);
            dispatch_[static_cast<std::size_t>(t)]
                     [static_cast<std::size_t>(at_home)] = DispatchEntry{
                prog, static_cast<std::int8_t>(it - uniq.begin())};
        }
    }
}

HandlerTiming
PpTimingModel::run(const protocol::Message &msg, NodeId self, NodeId home,
                   bool cache_dirty)
{
    const DispatchEntry &e =
        dispatch_[static_cast<std::size_t>(msg.type)][home == self ? 1 : 0];
    if (e.prog == nullptr)
        panic("HandlerPrograms: no program for type %d",
              static_cast<int>(msg.type));
    shadow_.reset();
    ppisa::RegFile regs =
        protocol::makeHandlerRegs(msg, self, home, cache_dirty);
    sent_.clear();

    HandlerTiming t;
    t.occupancy = sim_.run(*e.prog, regs, shadow_, sent_, stats_);
    t.mdcMisses = shadow_.misses;
    t.mdcWritebacks = shadow_.writebacks;
    bool &warm = warm_[static_cast<std::size_t>(e.warmSlot)];
    if (!warm) {
        warm = true;
        t.micColdMiss = true;
        t.occupancy += micColdMiss_;
    }
    return t;
}

} // namespace flashsim::magic
