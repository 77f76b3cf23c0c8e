#include "magic/timing_model.hh"

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
    extra = a.hit ? 0 : missPenalty_;
    if (!a.hit)
        ++misses;
    if (a.victimWriteback)
        ++writebacks;
    for (const auto &[at, word] : writes_)
        if (at == addr)
            return word;
    return dir_.loadWord(addr);
}

void
PpTimingModel::ShadowMemory::store(Addr addr, std::uint64_t value,
                                   Cycles &extra)
{
    MdcAccess a = mdc_.access(addr, true);
    extra = a.hit ? 0 : missPenalty_;
    if (!a.hit)
        ++misses;
    if (a.victimWriteback)
        ++writebacks;
    for (auto &[at, word] : writes_) {
        if (at == addr) {
            word = value;
            return;
        }
    }
    writes_.emplace_back(addr, value);
}

void
PpTimingModel::ShadowMemory::reset()
{
    writes_.clear();
    misses = 0;
    writebacks = 0;
}

PpTimingModel::PpTimingModel(const protocol::HandlerPrograms &programs,
                             const protocol::DirectoryStore &dir,
                             const MagicParams &params)
    : programs_(programs), micColdMiss_(params.micColdMiss),
      mdc_(params.mdcBytes, kMdcAssoc, kMdcLineBytes),
      shadow_(dir, mdc_, params.mdcMissPenalty),
      warm_(programs.programs.size(), false)
{}

HandlerTiming
PpTimingModel::run(const protocol::HandlerPrograms::Entry &entry,
                   const protocol::Message &msg, NodeId self, NodeId home,
                   bool cache_dirty)
{
    const auto i = static_cast<std::size_t>(entry.program);
    const ppisa::Program &prog = programs_.programs[i];
    shadow_.reset();
    ppisa::RegFile regs =
        protocol::makeHandlerRegs(msg, self, home, cache_dirty);
    sent_.clear();

    HandlerTiming t;
    t.occupancy = sim_.run(prog, regs, shadow_, sent_, stats_);
    t.mdcMisses = shadow_.misses;
    t.mdcWritebacks = shadow_.writebacks;
    if (!warm_[i]) {
        warm_[i] = true;
        t.micColdMiss = true;
        t.occupancy += micColdMiss_;
    }
    return t;
}

} // namespace flashsim::magic
