#include "verify/oracle.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace flashsim::verify
{

using protocol::DirHeader;
using protocol::HandlerId;
using protocol::HandlerResult;
using protocol::Message;
using protocol::MsgType;

namespace
{

bool
isGetKind(MsgType t)
{
    return t == MsgType::PiGet || t == MsgType::NetGet ||
           t == MsgType::NetFwdGet;
}

bool
isGetxKind(MsgType t)
{
    return t == MsgType::PiGetx || t == MsgType::NetGetx ||
           t == MsgType::NetFwdGetx;
}

std::uint64_t
bit(NodeId n)
{
    return std::uint64_t{1} << n;
}

} // namespace

CoherenceOracle::CoherenceOracle(Wiring wiring, bool allow_hint_anomalies)
    : w_(std::move(wiring)), allowHintAnomalies_(allow_hint_anomalies)
{
    if (w_.numNodes > 64)
        fatal("CoherenceOracle: sharer bitmasks support at most 64 nodes "
              "(machine has %d)", w_.numNodes);
}

CoherenceOracle::GoldenLine &
CoherenceOracle::line(Addr line_base)
{
    GoldenLine &g = lines_[line_base];
    if (g.mirrorCount.empty())
        g.mirrorCount.resize(static_cast<std::size_t>(w_.numNodes), 0);
    return g;
}

CoherenceOracle::GoldenLine *
CoherenceOracle::find(Addr line_base)
{
    auto it = lines_.find(line_base);
    return it == lines_.end() ? nullptr : &it->second;
}

void
CoherenceOracle::fail(Tick now, NodeId node, Addr addr, const char *kind,
                      std::string detail)
{
    Violation v{now, node, addr, kind, std::move(detail)};
    ++violationCount_;
    if (log_.size() < kLogCap)
        log_.push_back(v);
    if (onViolation)
        onViolation(v);
}

void
CoherenceOracle::onHandler(NodeId node, bool at_home, Tick now,
                           const Message &msg, const HandlerResult &res)
{
    const Addr lb = lineBase(msg.addr);
    if (!applyTransition(node, at_home, now, msg, res, lb))
        return;

    GoldenLine *g = find(lb);
    if (g == nullptr)
        return;
    if (at_home)
        checkDirectory(now, node, lb, *g);
    checkCaches(now, node, lb, *g, /*quiesced=*/false);
}

bool
CoherenceOracle::applyTransition(NodeId node, bool at_home, Tick now,
                                 const Message &msg,
                                 const HandlerResult &res, Addr lb)
{
    switch (res.id) {
      // Message-passing and fetch&op traffic bypasses the directory.
      case HandlerId::BlockXferReceive:
      case HandlerId::BlockAckReceive:
      case HandlerId::FetchOpService:
      case HandlerId::FetchOpAck:
      case HandlerId::FwdToHome:
        return false;
      default:
        break;
    }

    switch (res.id) {
      case HandlerId::ServeReadMemory: {
        GoldenLine &g = line(lb);
        if (g.truthDirty) {
            fail(now, node, lb, "stale-read",
                 "read served from memory while the line is dirty in a "
                 "cache (owner " + std::to_string(g.truthOwner) + ")");
        } else if (g.memEpoch != g.writeEpoch) {
            fail(now, node, lb, "lost-dirty-data",
                 "read served from memory holding epoch " +
                     std::to_string(g.memEpoch) + " but latest is " +
                     std::to_string(g.writeEpoch));
        }
        if (g.mirrorCount[msg.requester] != 0 && !allowHintAnomalies_) {
            fail(now, node, lb, "dup-sharer",
                 "requester " + std::to_string(msg.requester) +
                     " already on the sharer list when its GET arrived");
        }
        ++g.mirrorCount[msg.requester];
        g.truthSharers |= bit(msg.requester);
        if (msg.requester != node)
            g.putInFlight |= bit(msg.requester);
        break;
      }

      case HandlerId::ServeWriteMemory: {
        GoldenLine &g = line(lb);
        if (g.truthDirty) {
            fail(now, node, lb, "double-grant",
                 "write serviced from memory while the line is dirty "
                 "(owner " + std::to_string(g.truthOwner) + ")");
        } else if (g.memEpoch != g.writeEpoch) {
            fail(now, node, lb, "lost-dirty-data",
                 "exclusive grant from memory holding epoch " +
                     std::to_string(g.memEpoch) + " but latest is " +
                     std::to_string(g.writeEpoch));
        }
        for (NodeId s = 0; s < static_cast<NodeId>(w_.numNodes); ++s) {
            if (g.mirrorCount[s] == 0 || s == msg.requester)
                continue;
            // The home's own copy is invalidated synchronously inside
            // the handler; remote sharers have an inval in flight.
            // Either way the sharer may have evicted already, with its
            // replacement hint still crossing the mesh toward us.
            g.hintDebt |= bit(s);
            if (s != node)
                g.invalPending |= bit(s);
        }
        std::fill(g.mirrorCount.begin(), g.mirrorCount.end(), 0);
        g.truthSharers = 0;
        g.mirrorDirty = true;
        g.mirrorOwner = msg.requester;
        g.truthDirty = true;
        g.truthOwner = msg.requester;
        ++g.writeEpoch;
        break;
      }

      case HandlerId::RetrieveFromCache: {
        GoldenLine &g = line(lb);
        if (!g.truthDirty || g.truthOwner != node) {
            fail(now, node, lb, "retrieve-not-owner",
                 "cache retrieval at node " + std::to_string(node) +
                     " but golden owner is " +
                     (g.truthDirty ? std::to_string(g.truthOwner)
                                   : std::string("<clean>")));
        }
        if (isGetKind(msg.type)) {
            // Old owner downgrades and serves the requester; memory is
            // brought current now (home case) or at the SWB (3-hop).
            g.truthDirty = false;
            g.truthOwner = kInvalidNode;
            g.truthSharers = bit(node) | bit(msg.requester);
            if (msg.requester != node)
                g.putInFlight |= bit(msg.requester);
            if (at_home) {
                g.memEpoch = g.writeEpoch;
                g.mirrorDirty = false;
                g.mirrorOwner = kInvalidNode;
                std::fill(g.mirrorCount.begin(), g.mirrorCount.end(), 0);
                ++g.mirrorCount[node];
                if (msg.requester != node)
                    ++g.mirrorCount[msg.requester];
            } else {
                g.swbInFlight = true;
            }
        } else if (isGetxKind(msg.type)) {
            // Ownership moves to the requester; the old copy was
            // invalidated synchronously inside this handler.
            g.truthOwner = msg.requester;
            ++g.writeEpoch;
            if (at_home)
                g.mirrorOwner = msg.requester;
        }
        break;
      }

      case HandlerId::LocalWriteback:
      case HandlerId::RemoteWriteback: {
        GoldenLine &g = line(lb);
        const NodeId writer = msg.src;
        if (g.truthDirty && g.truthOwner == writer) {
            g.truthDirty = false;
            g.truthOwner = kInvalidNode;
            g.memEpoch = g.writeEpoch;
        }
        if (g.mirrorDirty && g.mirrorOwner == writer) {
            g.mirrorDirty = false;
            g.mirrorOwner = kInvalidNode;
        }
        break;
      }

      case HandlerId::LocalHint:
      case HandlerId::RemoteHintOnly:
      case HandlerId::RemoteHintNth: {
        GoldenLine &g = line(lb);
        const NodeId src = msg.src;
        if (g.mirrorCount[src] > 0) {
            if (--g.mirrorCount[src] == 0)
                g.truthSharers &= ~bit(src);
        } else if ((g.hintDebt & bit(src)) != 0) {
            // The hint crossed the invalidation from a later exclusive
            // grant; the directory entry it meant to retire is already
            // gone. Benign race — consume the forgiveness so a second,
            // genuinely spurious hint from this node still fails.
            g.hintDebt &= ~bit(src);
        } else if (!allowHintAnomalies_) {
            fail(now, node, lb, "hint-underflow",
                 "replacement hint from node " + std::to_string(src) +
                     " which is not on the golden sharer list");
        }
        break;
      }

      case HandlerId::SwbReceive: {
        GoldenLine &g = line(lb);
        g.mirrorDirty = false;
        g.mirrorOwner = kInvalidNode;
        ++g.mirrorCount[msg.src];
        if (msg.requester != msg.src)
            ++g.mirrorCount[msg.requester];
        if (g.swbInFlight) {
            g.memEpoch = g.writeEpoch;
            g.swbInFlight = false;
        }
        break;
      }

      case HandlerId::OwnXferReceive: {
        GoldenLine &g = line(lb);
        g.mirrorDirty = true;
        g.mirrorOwner = msg.requester;
        break;
      }

      case HandlerId::InvalReceive: {
        GoldenLine &g = line(lb);
        g.invalPending &= ~bit(node);
        g.invalCrossedPut |= g.putInFlight & bit(node);
        break;
      }

      case HandlerId::ReplyToProc: {
        GoldenLine *g = find(lb);
        if (g == nullptr)
            break;
        if (msg.type == MsgType::NetPutx && g->truthOwner != msg.requester) {
            fail(now, node, lb, "putx-not-owner",
                 "exclusive reply delivered to node " +
                     std::to_string(msg.requester) +
                     " but golden owner is " +
                     std::to_string(g->truthOwner));
        }
        if (msg.type == MsgType::NetPut) {
            const std::uint64_t req = bit(msg.requester);
            if ((g->truthSharers & req) == 0 &&
                (g->invalPending & req) == 0 &&
                (g->invalCrossedPut & req) == 0) {
                fail(now, node, lb, "put-not-sharer",
                     "read reply delivered to node " +
                         std::to_string(msg.requester) +
                         " which is not an entitled sharer");
            }
            g->putInFlight &= ~req;
            g->invalCrossedPut &= ~req;
        }
        break;
      }

      // NACKs and acks change no golden state.
      case HandlerId::HomeNack:
      case HandlerId::NackReceive:
      case HandlerId::InvalAck:
      case HandlerId::FwdHomeToDirty:
        break;

      default:
        break;
    }
    return true;
}

void
CoherenceOracle::checkDirectory(Tick now, NodeId home, Addr line_base,
                                const GoldenLine &g)
{
    DirHeader h = w_.header(home, line_base);
    if (h.dirty != g.mirrorDirty) {
        fail(now, home, line_base, "dir-mismatch",
             std::string("directory dirty bit is ") +
                 (h.dirty ? "set" : "clear") + " but golden mirror says " +
                 (g.mirrorDirty ? "set" : "clear"));
        return;
    }
    if (g.mirrorDirty && h.owner != g.mirrorOwner) {
        fail(now, home, line_base, "dir-mismatch",
             "directory owner is " + std::to_string(h.owner) +
                 " but golden mirror says " +
                 std::to_string(g.mirrorOwner));
        return;
    }
    std::vector<NodeId> list = w_.sharers(home, line_base);
    std::vector<std::uint16_t> want = g.mirrorCount;
    for (NodeId s : list) {
        if (s >= static_cast<NodeId>(w_.numNodes) || want[s] == 0) {
            fail(now, home, line_base, "dir-mismatch",
                 "directory sharer list contains node " +
                     std::to_string(s) +
                     " not in the golden mirror (list size " +
                     std::to_string(list.size()) + ")");
            return;
        }
        --want[s];
    }
    for (NodeId s = 0; s < static_cast<NodeId>(w_.numNodes); ++s) {
        if (want[s] != 0) {
            fail(now, home, line_base, "dir-mismatch",
                 "directory sharer list is missing node " +
                     std::to_string(s) + " (golden mirror has it " +
                     std::to_string(g.mirrorCount[s]) + "x, list has it " +
                     std::to_string(g.mirrorCount[s] - want[s]) + "x)");
            return;
        }
    }
}

void
CoherenceOracle::checkCaches(Tick now, NodeId node, Addr line_base,
                             const GoldenLine &g, bool quiesced)
{
    int exclusive = 0;
    NodeId holder = kInvalidNode;
    for (NodeId n = 0; n < static_cast<NodeId>(w_.numNodes); ++n) {
        int st = w_.cacheState(n, line_base);
        if (st == 2) {
            ++exclusive;
            holder = n;
            if (exclusive > 1) {
                fail(now, node, line_base, "multi-writer",
                     "more than one cache holds the line Exclusive");
                return;
            }
        } else if (st == 1) {
            std::uint64_t allowed = g.truthSharers;
            if (!quiesced) {
                allowed |= g.invalPending;
                if (g.truthDirty && g.truthOwner != kInvalidNode)
                    allowed |= bit(g.truthOwner); // upgrade in flight
            }
            if ((allowed & bit(n)) == 0) {
                fail(now, node, line_base, "rogue-sharer",
                     "node " + std::to_string(n) +
                         " holds a Shared copy without being an entitled "
                         "sharer or having an invalidation in flight");
            }
        }
    }
    if (exclusive == 1) {
        if (!g.truthDirty) {
            fail(now, node, line_base, "rogue-writer",
                 "node " + std::to_string(holder) +
                     " holds the line Exclusive but the golden state is "
                     "clean");
        } else if (holder != g.truthOwner) {
            fail(now, node, line_base, "wrong-owner",
                 "node " + std::to_string(holder) +
                     " holds the line Exclusive but the golden owner is " +
                     std::to_string(g.truthOwner));
        }
    }
    if (quiesced) {
        if (g.truthDirty && exclusive == 0) {
            fail(now, node, line_base, "lost-owner",
                 "quiesced machine: golden state dirty (owner " +
                     std::to_string(g.truthOwner) +
                     ") but no cache holds the line Exclusive");
        }
        if (!g.truthDirty && g.memEpoch != g.writeEpoch) {
            fail(now, node, line_base, "lost-dirty-data",
                 "quiesced machine: memory holds epoch " +
                     std::to_string(g.memEpoch) + " but latest is " +
                     std::to_string(g.writeEpoch));
        }
    }
}

void
CoherenceOracle::finalCheck(Tick now)
{
    std::vector<Addr> addrs;
    addrs.reserve(lines_.size());
    for (const auto &[a, g] : lines_)
        addrs.push_back(a);
    std::sort(addrs.begin(), addrs.end());
    for (Addr a : addrs) {
        GoldenLine &g = lines_[a];
        if (g.invalPending != 0) {
            fail(now, 0, a, "stuck-inval",
                 "quiesced machine: invalidations still marked in flight "
                 "(mask 0x" + [&] {
                     std::ostringstream os;
                     os << std::hex << g.invalPending;
                     return os.str();
                 }() + ")");
        }
        if (g.swbInFlight) {
            fail(now, 0, a, "stuck-swb",
                 "quiesced machine: sharing writeback never arrived at "
                 "the home node");
        }
        NodeId home = w_.homeOf(a);
        checkDirectory(now, home, a, g);
        checkCaches(now, home, a, g, /*quiesced=*/true);
    }
}

} // namespace flashsim::verify
