/**
 * @file
 * Deterministic fault injector.
 *
 * Each node owns an independent xorshift64* stream (seeded from the
 * run seed and the node id), drawn in that node's event order, so a
 * (seed, config) pair replays bit-identically: every draw is keyed by
 * the node whose event stream triggered it (the message source for
 * mesh jitter, the local MAGIC for queue stalls, NACKs, hint fates and
 * the discarded per-request draw), so enabling one injection class
 * never shifts another node's draws. The injector itself is pure
 * policy — it only answers "what should happen to this message"; the
 * mechanism (delaying delivery, synthesizing a NACK, swallowing a
 * hint) lives at the call sites in the mesh and in MAGIC, which are
 * also responsible for preserving the point-to-point FIFO ordering the
 * NACK/retry protocol depends on (delivery times are clamped
 * monotonically per (src, dest) pair and per inbound queue).
 */

#ifndef FLASHSIM_VERIFY_FAULT_HH_
#define FLASHSIM_VERIFY_FAULT_HH_

#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "verify/params.hh"

namespace flashsim::verify
{

class FaultInjector
{
  public:
    FaultInjector(const FaultParams &params, int num_nodes)
        : p_(params), per_(static_cast<std::size_t>(num_nodes))
    {
        // Per-node seeds via a splitmix-style mix of the run seed and
        // the node id: decorrelated streams from one knob.
        for (std::size_t n = 0; n < per_.size(); ++n)
            per_[n].rng = Rng(params.seed ^
                              (0x9e3779b97f4a7c15ull * (n + 1)));
    }

    const FaultParams &params() const { return p_; }

    // The injector exists only while some class is nonzero (see
    // FaultParams::any), and then every decision method below consumes
    // exactly the same number of stream draws regardless of which
    // classes are on: a zero class draws and discards rather than
    // early-outing. Otherwise flipping one class (say, turning on NACKs)
    // would shift the per-node stream positions and change every
    // *other* class's decisions for the same seed.

    /** Extra mesh transit cycles for one message, drawn from the
     *  stream of its source node. */
    Cycles
    meshJitter(NodeId src)
    {
        PerNode &n = per_[src];
        Cycles j = n.rng.below(p_.meshJitter + 1);
        n.jitterCycles += j;
        return j;
    }

    /** Extra cycles a message waits to enter node @p at's MAGIC
     *  inbound queue (models queue-full backpressure). */
    Cycles
    inboundStall(NodeId at)
    {
        PerNode &n = per_[at];
        Cycles s = n.rng.below(p_.inboundStall + 1);
        n.stallCycles += s;
        return s;
    }

    /** Should home node @p home NACK this GET/GETX outright? */
    bool
    rollNack(NodeId home)
    {
        PerNode &n = per_[home];
        if (n.rng.uniform() >= p_.extraNackProb)
            return false;
        ++n.nacksInjected;
        return true;
    }

    enum class HintFate
    {
        Deliver,
        Drop,
        Duplicate,
    };

    /** Fate of a replacement hint arriving at home node @p home. */
    HintFate
    hintFate(NodeId home)
    {
        PerNode &n = per_[home];
        double u = n.rng.uniform();
        if (u < p_.dropHintProb) {
            ++n.hintsDropped;
            return HintFate::Drop;
        }
        if (u < p_.dropHintProb + p_.dupHintProb) {
            ++n.hintsDuped;
            return HintFate::Duplicate;
        }
        return HintFate::Deliver;
    }

    /** Draw and discard one value from home node @p home's stream for
     *  a NetGet/NetGetx arriving at its home. No injection class
     *  consumes it; it stays so that every (seed, config) pair keeps
     *  the stream positions, and so the decisions, it has always had. */
    void
    skipRequestDraw(NodeId home)
    {
        (void)per_[home].rng.uniform();
    }

    /** True when hint perturbation can leave duplicate or stale sharer
     *  pointers in the directory (the oracle relaxes its checks). */
    bool
    perturbsHints() const
    {
        return p_.dropHintProb > 0.0 || p_.dupHintProb > 0.0;
    }

    // -- Statistics (summed over nodes) -------------------------------------
    Counter
    nacksInjected() const
    {
        return sum(&PerNode::nacksInjected);
    }
    Counter
    hintsDropped() const
    {
        return sum(&PerNode::hintsDropped);
    }
    Counter
    hintsDuped() const
    {
        return sum(&PerNode::hintsDuped);
    }
    Counter
    jitterCycles() const
    {
        return sum(&PerNode::jitterCycles);
    }
    Counter
    stallCycles() const
    {
        return sum(&PerNode::stallCycles);
    }

  private:
    /** One node's fault stream + injection counters. */
    struct PerNode
    {
        Rng rng{0};
        Counter nacksInjected = 0;
        Counter hintsDropped = 0;
        Counter hintsDuped = 0;
        Counter jitterCycles = 0;
        Counter stallCycles = 0;
    };

    Counter
    sum(Counter PerNode::*f) const
    {
        Counter total = 0;
        for (const PerNode &n : per_)
            total += n.*f;
        return total;
    }

    FaultParams p_;
    std::vector<PerNode> per_;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_FAULT_HH_
