#include "protocol/pp_programs.hh"

#include <memory>
#include <mutex>

#include "protocol/directory.hh"
#include "sim/logging.hh"

namespace flashsim::protocol
{

namespace
{

using ppc::IrFunction;
using ppc::Label;
using ppc::Reg;
namespace df = dirfield;

/** The handler ABI register set (see pp_programs.hh). */
struct Abi
{
    Reg msgType, addr, src, aux, req, self, home, hdrAddr, linkBase,
        cacheDirty, ackAddr, rawArg;

    explicit Abi(IrFunction &f)
        : msgType(f.reg()), addr(f.reg()), src(f.reg()), aux(f.reg()),
          req(f.reg()), self(f.reg()), home(f.reg()), hdrAddr(f.reg()),
          linkBase(f.reg()), cacheDirty(f.reg()), ackAddr(f.reg()),
          rawArg(f.reg())
    {}
};

constexpr int
mt(MsgType t)
{
    return static_cast<int>(t);
}

/** Scratch registers shared by repeated list-prepend expansions. */
struct AllocTemps
{
    Reg fh, fa, fw, e;
};

/**
 * Emit the dynamic-pointer-allocation list prepend: pop the free list,
 * write the new entry {node, next = old head}, splice into the header.
 * Mirrors DirectoryStore::addSharer; @p hdr is updated in-register and
 * the caller stores it back.
 */
void
emitAddSharerFixed(IrFunction &f, const Abi &a, Reg hdr, Reg node,
                   const AllocTemps &t)
{
    f.ld(t.fh, a.linkBase, 0);
    f.ext(t.e, hdr, df::kHeadLo, df::kHeadWidth);
    f.slli(t.e, t.e, 16);               // next field position
    f.slli(t.fa, t.fh, 3);
    f.add(t.fa, t.fa, a.linkBase);
    f.ld(t.fw, t.fa, 0);
    f.ins(t.e, node, 0, 16);
    f.ext(t.fw, t.fw, 16, 16);
    f.sd(a.linkBase, 0, t.fw);
    f.sd(t.fa, 0, t.e);
    f.ins(hdr, t.fh, df::kHeadLo, df::kHeadWidth);
}

/**
 * Requester-side program forwarding a processor request to the home
 * node. The jump table dispatches this variant directly when the inbox
 * address decode says the line is remote ("forward request to home
 * node", Table 3.4: 3 cycles).
 */
IrFunction
buildForwardToHome(const char *name, MsgType net_type)
{
    IrFunction f(name);
    Abi a(f);
    f.send(mt(net_type), a.home, a.rawArg);
    f.halt();
    return f;
}

/**
 * Home-side bookkeeping when a request is forwarded to a dirty owner:
 * the protocol records the outstanding forward (so stale writebacks and
 * re-requests can be sorted out later) in a transaction record next to
 * the ack-table entry. This is what makes "forward request from home to
 * dirty node" cost 18 cycles in Table 3.4.
 */
void
emitForwardRecord(IrFunction &f, const Abi &a, Reg owner, Reg scratch)
{
    f.ld(scratch, a.ackAddr, 0);      // outstanding-transaction record
    f.addi(scratch, scratch, 0);
    f.ins(scratch, a.req, 0, 8);      // requester field
    f.ins(scratch, owner, 8, 8);      // owner field
    f.orfi(scratch, scratch, 16, 1);  // forward-pending flag
    f.ins(scratch, a.msgType, 24, 8); // original request type
    f.sd(a.ackAddr, 0, scratch);
}

/**
 * GET service at the home node (shared by PiGet and NetGet programs).
 * @p reply_type is PiPut for the local case, NetPut for the remote case.
 */
IrFunction
buildGet(const char *name, MsgType reply_type)
{
    IrFunction f(name);
    Abi a(f);

    Label dirty = f.label();
    Label nack = f.label();
    Label owner_self = f.label();

    Reg hdr = f.reg();
    f.ld(hdr, a.hdrAddr, 0);
    f.bbs(hdr, df::kDirtyBit, dirty);

    // Clean: prepend the requester and reply with data from memory.
    AllocTemps t{f.reg(), f.reg(), f.reg(), f.reg()};
    emitAddSharerFixed(f, a, hdr, a.req, t);
    f.sd(a.hdrAddr, 0, hdr);
    f.send(mt(reply_type), a.req, a.rawArg);
    f.halt();

    f.bind(dirty);
    Reg owner = f.reg();
    Reg rec = f.reg();
    f.ext(owner, hdr, df::kOwnerLo, df::kOwnerWidth);
    f.beq(owner, a.req, nack);      // requester's writeback in flight
    f.beq(owner, a.self, owner_self);
    emitForwardRecord(f, a, owner, rec);
    f.send(mt(MsgType::NetFwdGet), owner, a.rawArg); // three-hop forward
    f.halt();

    f.bind(owner_self);
    f.bbc(a.cacheDirty, 0, nack);   // local writeback raced ahead
    // Dirty in our own processor cache: downgrade to shared, sharing
    // writeback to memory, reply directly.
    f.andfi(hdr, hdr, df::kDirtyBit, 1);
    f.andfi(hdr, hdr, df::kOwnerLo, df::kOwnerWidth);
    emitAddSharerFixed(f, a, hdr, a.self, t);
    emitAddSharerFixed(f, a, hdr, a.req, t);
    f.sd(a.hdrAddr, 0, hdr);
    f.send(mt(MsgType::NetPut), a.req, a.rawArg);
    f.halt();

    f.bind(nack);
    f.send(mt(MsgType::NetNack), a.req, a.rawArg);
    f.halt();
    return f;
}

/** GETX service at the home node (PiGetx and NetGetx programs). */
IrFunction
buildGetx(const char *name, MsgType reply_type)
{
    IrFunction f(name);
    Abi a(f);

    Label dirty = f.label();
    Label nack = f.label();
    Label owner_self = f.label();
    Label loop = f.label();
    Label loop_end = f.label();
    Label not_self = f.label();
    Label skip = f.label();

    Reg hdr = f.reg();
    f.ld(hdr, a.hdrAddr, 0);
    f.bbs(hdr, df::kDirtyBit, dirty);

    // Clean: invalidate every sharer except the requester, freeing the
    // list as we walk it, then grant exclusive with data from memory.
    Reg cur = f.reg();
    Reg fh = f.reg();
    Reg acks = f.reg();
    Reg t0 = f.reg();
    Reg lw = f.reg();
    Reg lnode = f.reg();
    Reg lnext = f.reg();
    Reg e = f.reg();
    f.ext(cur, hdr, df::kHeadLo, df::kHeadWidth);
    f.ld(fh, a.linkBase, 0);
    f.li(acks, 0);

    f.bind(loop);
    Reg zero{0};
    f.beq(cur, zero, loop_end);
    f.slli(t0, cur, 3);
    f.add(t0, t0, a.linkBase);
    f.ld(lw, t0, 0);
    f.ext(lnode, lw, 0, 16);
    f.ext(lnext, lw, 16, 16);
    f.beq(lnode, a.req, skip);      // requester keeps its copy
    f.beq(lnode, a.self, not_self);
    f.send(mt(MsgType::NetInval), lnode, a.rawArg);
    f.addi(acks, acks, 1);
    f.j(skip);
    f.bind(not_self);
    // Home itself is a sharer: invalidate the local cache (done by the
    // PI under handler control) and ack on the home's behalf.
    f.send(mt(MsgType::NetInvalAck), a.req, a.rawArg);
    f.addi(acks, acks, 1);
    f.bind(skip);
    // Free this link entry: entry = {0, old free head}; free head = cur.
    f.slli(e, fh, 16);
    f.sd(t0, 0, e);
    f.mv(fh, cur);
    f.mv(cur, lnext);
    f.j(loop);

    f.bind(loop_end);
    f.sd(a.linkBase, 0, fh);
    f.ins(hdr, zero, df::kHeadLo, df::kHeadWidth);
    f.orfi(hdr, hdr, df::kDirtyBit, 1);
    f.ins(hdr, a.req, df::kOwnerLo, df::kOwnerWidth);
    f.sd(a.hdrAddr, 0, hdr);
    Reg argx = f.reg();
    f.mv(argx, a.rawArg);
    f.ins(argx, acks, 40, 16);
    f.send(mt(reply_type), a.req, argx);
    f.halt();

    f.bind(dirty);
    Reg owner = f.reg();
    Reg rec = f.reg();
    f.ext(owner, hdr, df::kOwnerLo, df::kOwnerWidth);
    f.beq(owner, a.req, nack);
    f.beq(owner, a.self, owner_self);
    emitForwardRecord(f, a, owner, rec);
    f.send(mt(MsgType::NetFwdGetx), owner, a.rawArg);
    f.halt();

    f.bind(owner_self);
    f.bbc(a.cacheDirty, 0, nack);
    // Dirty in our own cache: hand ownership straight to the requester.
    f.ins(hdr, a.req, df::kOwnerLo, df::kOwnerWidth);
    f.sd(a.hdrAddr, 0, hdr);
    f.send(mt(MsgType::NetPutx), a.req, a.rawArg);
    f.halt();

    f.bind(nack);
    f.send(mt(MsgType::NetNack), a.req, a.rawArg);
    f.halt();
    return f;
}

/** Writeback at home (PiWriteback local path and NetWriteback). */
IrFunction
buildWriteback(const char *name)
{
    IrFunction f(name);
    Abi a(f);

    Label skip = f.label();
    Reg hdr = f.reg();
    Reg owner = f.reg();
    f.ld(hdr, a.hdrAddr, 0);
    f.li(owner, 0); // fill load delay
    f.bbc(hdr, df::kDirtyBit, skip);
    f.ext(owner, hdr, df::kOwnerLo, df::kOwnerWidth);
    f.bne(owner, a.src, skip);      // stale writeback: leave directory
    f.andfi(hdr, hdr, df::kDirtyBit, 1);
    f.andfi(hdr, hdr, df::kOwnerLo, df::kOwnerWidth);
    f.sd(a.hdrAddr, 0, hdr);
    f.bind(skip);
    f.halt();
    return f;
}

/** Replacement hint at home: unlink @c src from the sharer list. */
IrFunction
buildHint(const char *name)
{
    IrFunction f(name);
    Abi a(f);

    Label loop = f.label();
    Label found = f.label();
    Label at_head = f.label();
    Label free_entry = f.label();
    Label done = f.label();

    Reg hdr = f.reg();
    Reg cur = f.reg();
    Reg prev_addr = f.reg();
    Reg t0 = f.reg();
    Reg lw = f.reg();
    Reg lnode = f.reg();
    Reg lnext = f.reg();
    Reg e = f.reg();
    Reg fh = f.reg();
    Reg zero{0};

    f.ld(hdr, a.hdrAddr, 0);
    f.li(prev_addr, 0);
    f.ext(cur, hdr, df::kHeadLo, df::kHeadWidth);

    f.bind(loop);
    f.beq(cur, zero, done);         // node not on list: stale hint
    f.slli(t0, cur, 3);
    f.add(t0, t0, a.linkBase);
    f.ld(lw, t0, 0);
    f.li(lnode, 0); // fill load delay
    f.ext(lnode, lw, 0, 16);
    f.ext(lnext, lw, 16, 16);
    f.beq(lnode, a.src, found);
    f.mv(prev_addr, t0);
    f.mv(cur, lnext);
    f.j(loop);

    f.bind(found);
    f.beq(prev_addr, zero, at_head);
    f.ld(lw, prev_addr, 0);         // predecessor entry
    f.li(e, 0);
    f.ins(lw, lnext, 16, 16);       // unlink
    f.sd(prev_addr, 0, lw);
    f.j(free_entry);

    f.bind(at_head);
    f.ins(hdr, lnext, df::kHeadLo, df::kHeadWidth);
    f.sd(a.hdrAddr, 0, hdr);

    f.bind(free_entry);
    f.ld(fh, a.linkBase, 0);
    f.li(e, 0);
    f.ins(e, fh, 16, 16);           // entry = {0, old free head}
    f.sd(t0, 0, e);
    f.sd(a.linkBase, 0, cur);       // free head = freed entry

    f.bind(done);
    f.halt();
    return f;
}

/** NetFwdGet at the dirty owner. */
IrFunction
buildFwdGet()
{
    IrFunction f("ni_fwdget");
    Abi a(f);
    Label nack = f.label();
    f.bbc(a.cacheDirty, 0, nack);
    // The PP directs the PI intervention and the data transfer logic;
    // the transfer setup is a handful of control-register writes modeled
    // by the ack-table store below.
    Reg t0 = f.reg();
    f.li(t0, 1);
    f.sd(a.ackAddr, 0, t0);
    f.send(mt(MsgType::NetPut), a.req, a.rawArg);
    f.send(mt(MsgType::NetSwb), a.home, a.rawArg);
    f.halt();
    f.bind(nack);
    f.send(mt(MsgType::NetNack), a.req, a.rawArg);
    f.halt();
    return f;
}

/** NetFwdGetx at the dirty owner. */
IrFunction
buildFwdGetx()
{
    IrFunction f("ni_fwdgetx");
    Abi a(f);
    Label nack = f.label();
    f.bbc(a.cacheDirty, 0, nack);
    Reg t0 = f.reg();
    f.li(t0, 1);
    f.sd(a.ackAddr, 0, t0);
    f.send(mt(MsgType::NetPutx), a.req, a.rawArg);
    f.send(mt(MsgType::NetOwnXfer), a.home, a.rawArg);
    f.halt();
    f.bind(nack);
    f.send(mt(MsgType::NetNack), a.req, a.rawArg);
    f.halt();
    return f;
}

/**
 * NetSwb at home: old owner and requester become sharers. This handler
 * is on the critical occupancy path of migratory sharing (every
 * three-hop read ends here), so it is hand-tuned the way the paper's
 * handlers were: both sharer-list entries are carved out of the free
 * list with a single pop-two sequence instead of two independent
 * allocations.
 */
IrFunction
buildSwb()
{
    IrFunction f("ni_swb");
    Abi a(f);
    Label single = f.label();
    Reg hdr = f.reg();
    Reg fh = f.reg();   // first free index
    Reg fa1 = f.reg();  // its address
    Reg fw1 = f.reg();  // its link word
    Reg f2 = f.reg();   // second free index
    Reg e1 = f.reg();
    Reg oh = f.reg();   // old list head

    f.ld(fh, a.linkBase, 0);
    f.ld(hdr, a.hdrAddr, 0);
    f.slli(fa1, fh, 3);
    f.add(fa1, fa1, a.linkBase);
    f.ld(fw1, fa1, 0);
    f.ext(oh, hdr, df::kHeadLo, df::kHeadWidth);
    f.andfi(hdr, hdr, df::kDirtyBit, 1);
    f.andfi(hdr, hdr, df::kOwnerLo, df::kOwnerWidth);
    f.ext(f2, fw1, 16, 16);
    // entry1 = {old owner, next = old head} at index fh.
    f.slli(e1, oh, 16);
    f.ins(e1, a.src, 0, 16);
    f.sd(fa1, 0, e1);
    f.beq(a.req, a.src, single);

    // entry2 = {requester, next = fh} at index f2; new list head = f2.
    Reg fa2 = f.reg();
    Reg fw2 = f.reg();
    Reg e2 = f.reg();
    Reg nf = f.reg();
    f.slli(fa2, f2, 3);
    f.add(fa2, fa2, a.linkBase);
    f.ld(fw2, fa2, 0);
    f.slli(e2, fh, 16);
    f.ins(e2, a.req, 0, 16);
    f.ext(nf, fw2, 16, 16);
    f.sd(fa2, 0, e2);
    f.sd(a.linkBase, 0, nf);
    f.ins(hdr, f2, df::kHeadLo, df::kHeadWidth);
    f.sd(a.hdrAddr, 0, hdr);
    f.halt();

    f.bind(single);
    f.sd(a.linkBase, 0, f2);
    f.ins(hdr, fh, df::kHeadLo, df::kHeadWidth);
    f.sd(a.hdrAddr, 0, hdr);
    f.halt();
    return f;
}

/** NetOwnXfer at home: record the new owner. */
IrFunction
buildOwnXfer()
{
    IrFunction f("ni_ownxfer");
    Abi a(f);
    Reg hdr = f.reg();
    f.ld(hdr, a.hdrAddr, 0);
    f.addi(hdr, hdr, 0); // load delay (scheduler keeps the gap)
    f.ins(hdr, a.req, df::kOwnerLo, df::kOwnerWidth);
    f.orfi(hdr, hdr, df::kDirtyBit, 1);
    f.sd(a.hdrAddr, 0, hdr);
    f.halt();
    return f;
}

/** NetInval at a sharer: invalidate local cache, ack to the requester. */
IrFunction
buildInval()
{
    IrFunction f("ni_inval");
    Abi a(f);
    // Model the PI invalidation control sequence.
    Reg t0 = f.reg();
    f.li(t0, 2);
    f.sd(a.ackAddr, 0, t0);
    f.send(mt(MsgType::NetInvalAck), a.req, a.rawArg);
    f.halt();
    return f;
}

/** NetInvalAck at the requester: decrement the pending-ack count. */
IrFunction
buildInvalAck()
{
    IrFunction f("ni_invalack");
    Abi a(f);
    Reg cnt = f.reg();
    f.ld(cnt, a.ackAddr, 0);
    f.addi(cnt, cnt, -1);
    f.sd(a.ackAddr, 0, cnt);
    f.halt();
    return f;
}

/** NetPut at the requester: forward the reply to the processor. */
IrFunction
buildPut()
{
    IrFunction f("ni_put");
    Abi a(f);
    f.send(mt(MsgType::PiPut), a.self, a.rawArg);
    f.halt();
    return f;
}

/** NetPutx at the requester: forward + arm the ack counter. */
IrFunction
buildPutx()
{
    IrFunction f("ni_putx");
    Abi a(f);
    f.sd(a.ackAddr, 0, a.aux);
    f.send(mt(MsgType::PiPutx), a.self, a.rawArg);
    f.halt();
    return f;
}

/**
 * NetBlockXfer at the receiver: steer the chunk into local memory via
 * the data-transfer logic and update the transfer record; the final
 * chunk acknowledges the sender (message-passing protocol).
 */
IrFunction
buildBlockXfer()
{
    IrFunction f("ni_block_xfer");
    Abi a(f);
    Label not_last = f.label();
    Reg rec = f.reg();
    f.ld(rec, a.ackAddr, 0);        // transfer record for this block
    f.addi(rec, rec, 1);            // chunks landed
    f.sd(a.ackAddr, 0, rec);
    f.bne(a.aux, Reg{0}, not_last); // aux = chunks remaining after this
    f.send(mt(MsgType::NetBlockAck), a.src, a.rawArg);
    f.bind(not_last);
    f.halt();
    return f;
}

/** NetBlockAck at the sender: mark the transfer complete. */
IrFunction
buildBlockAck()
{
    IrFunction f("ni_block_ack");
    Abi a(f);
    Reg t0 = f.reg();
    f.li(t0, 0);
    f.sd(a.ackAddr, 0, t0); // clear the transfer record
    f.halt();
    return f;
}

/**
 * Fetch&op service at the home node: the PP performs the uncached
 * read-modify-write (the data access itself is the speculative memory
 * read) and replies with the old value.
 */
IrFunction
buildFetchOp()
{
    IrFunction f("ni_fetchop");
    Abi a(f);
    Reg rec = f.reg();
    f.ld(rec, a.ackAddr, 0);   // op descriptor / combining record
    f.addi(rec, rec, 1);
    f.sd(a.ackAddr, 0, rec);
    f.send(mt(MsgType::NetFetchOpAck), a.req, a.rawArg);
    f.halt();
    return f;
}

/** Fetch&op result back at the requester. */
IrFunction
buildFetchOpAck()
{
    IrFunction f("ni_fetchop_ack");
    Abi a(f);
    Reg t0 = f.reg();
    f.li(t0, 0);
    f.sd(a.ackAddr, 0, t0);
    f.halt();
    return f;
}

/** NetNack at the requester: MAGIC schedules the retry. */
IrFunction
buildNack()
{
    IrFunction f("ni_nack");
    Abi a(f);
    Reg t0 = f.reg();
    f.li(t0, 1);
    f.sd(a.ackAddr, 0, t0); // mark the miss entry for retry
    f.halt();
    return f;
}

} // namespace

HandlerPrograms
buildHandlerPrograms(const ppc::CompileOptions &opts)
{
    HandlerPrograms p;
    const auto add = [&](const IrFunction &f) {
        p.programs.push_back(ppc::compile(f, opts));
        return static_cast<int>(p.programs.size() - 1);
    };
    // Jump-table slots: a message for a line homed here (local), homed
    // elsewhere (remote), or either. Each places a program and the C++
    // handler it mirrors. Only the memory-reading requests at home
    // start a speculative read.
    const auto local = [&](MsgType t, int prog, Handler h,
                           bool spec_read = false) {
        p.table[static_cast<std::size_t>(t)][1] = {prog, h, spec_read};
    };
    const auto remote = [&](MsgType t, int prog, Handler h) {
        p.table[static_cast<std::size_t>(t)][0] = {prog, h, false};
    };
    const auto either = [&](MsgType t, int prog, Handler h,
                            bool spec_read = false) {
        local(t, prog, h, spec_read);
        remote(t, prog, h);
    };
    using E = ProtocolEngine;

    local(MsgType::PiGet, add(buildGet("pi_get_local", MsgType::PiPut)),
          &E::handleGetAtHome, true);
    remote(MsgType::PiGet,
           add(buildForwardToHome("pi_get_remote", MsgType::NetGet)),
           &E::handleForward<MsgType::NetGet>);
    local(MsgType::PiGetx,
          add(buildGetx("pi_getx_local", MsgType::PiPutx)),
          &E::handleGetxAtHome, true);
    remote(MsgType::PiGetx,
           add(buildForwardToHome("pi_getx_remote", MsgType::NetGetx)),
           &E::handleForward<MsgType::NetGetx>);
    local(MsgType::PiWriteback, add(buildWriteback("pi_wb_local")),
          &E::handleWritebackAtHome);
    remote(MsgType::PiWriteback,
           add(buildForwardToHome("pi_wb_remote", MsgType::NetWriteback)),
           &E::handleForward<MsgType::NetWriteback>);
    local(MsgType::PiReplaceHint, add(buildHint("pi_hint_local")),
          &E::handleReplaceHintAtHome);
    remote(MsgType::PiReplaceHint,
           add(buildForwardToHome("pi_hint_remote",
                                  MsgType::NetReplaceHint)),
           &E::handleForward<MsgType::NetReplaceHint>);
    either(MsgType::NetGet, add(buildGet("ni_get", MsgType::NetPut)),
           &E::handleGetAtHome, true);
    either(MsgType::NetGetx, add(buildGetx("ni_getx", MsgType::NetPutx)),
           &E::handleGetxAtHome, true);
    either(MsgType::NetFwdGet, add(buildFwdGet()), &E::handleFwdGet);
    either(MsgType::NetFwdGetx, add(buildFwdGetx()), &E::handleFwdGetx);
    either(MsgType::NetSwb, add(buildSwb()), &E::handleSwb);
    either(MsgType::NetOwnXfer, add(buildOwnXfer()), &E::handleOwnXfer);
    either(MsgType::NetInval, add(buildInval()), &E::handleInval);
    either(MsgType::NetInvalAck, add(buildInvalAck()),
           &E::handleReceipt<HandlerId::InvalAck>);
    either(MsgType::NetPut, add(buildPut()), &E::handlePut);
    either(MsgType::NetPutx, add(buildPutx()), &E::handlePutx);
    either(MsgType::NetNack, add(buildNack()),
           &E::handleReceipt<HandlerId::NackReceive>);
    either(MsgType::NetWriteback, add(buildWriteback("ni_wb")),
           &E::handleWritebackAtHome);
    either(MsgType::NetReplaceHint, add(buildHint("ni_hint")),
           &E::handleReplaceHintAtHome);
    either(MsgType::NetBlockXfer, add(buildBlockXfer()),
           &E::handleBlockXfer);
    either(MsgType::NetBlockAck, add(buildBlockAck()),
           &E::handleReceipt<HandlerId::BlockAckReceive>);
    // The fetch&op service runs for the home's own processor and for
    // forwarded requests alike (the word RMW is issued by the handler).
    const int fetchop = add(buildFetchOp());
    local(MsgType::PiFetchOp, fetchop, &E::handleFetchOp);
    either(MsgType::NetFetchOp, fetchop, &E::handleFetchOp);
    either(MsgType::NetFetchOpAck, add(buildFetchOpAck()),
           &E::handleReceipt<HandlerId::FetchOpAck>);
    remote(MsgType::PiFetchOp,
           add(buildForwardToHome("pi_fetchop_remote",
                                  MsgType::NetFetchOp)),
           &E::handleForward<MsgType::NetFetchOp>);
    return p;
}

std::shared_ptr<const HandlerPrograms>
sharedHandlerPrograms(const ppc::CompileOptions &opts)
{
    // Four possible option combinations; each slot is built once per
    // process under the lock. Programs are immutable and lowered as
    // they are built, so concurrent machines only ever read the set.
    static std::mutex mu;
    static std::shared_ptr<const HandlerPrograms> cache[2][2];

    std::lock_guard<std::mutex> lock(mu);
    std::shared_ptr<const HandlerPrograms> &slot =
        cache[opts.useSpecialInstrs ? 1 : 0][opts.dualIssue ? 1 : 0];
    if (!slot)
        slot = std::make_shared<HandlerPrograms>(
            buildHandlerPrograms(opts));
    return slot;
}

const HandlerPrograms::Entry &
HandlerPrograms::dispatch(MsgType t, bool at_home) const
{
    const Entry &e = table[static_cast<std::size_t>(t)][at_home ? 1 : 0];
    if (e.handler == nullptr)
        panic("jump table: no handler for %s (%s line)", msgTypeName(t),
              at_home ? "local" : "remote");
    return e;
}

std::vector<const ppisa::Program *>
HandlerPrograms::all() const
{
    std::vector<const ppisa::Program *> v;
    v.reserve(programs.size());
    for (const ppisa::Program &prog : programs)
        v.push_back(&prog);
    return v;
}

std::size_t
HandlerPrograms::totalCodeBytes() const
{
    std::size_t total = 0;
    for (const ppisa::Program &prog : programs)
        total += prog.codeBytes();
    return total;
}

Message
decodeSent(const ppisa::SentMessage &s, NodeId self)
{
    Message m;
    m.type = static_cast<MsgType>(s.type);
    m.src = self;
    m.dest = static_cast<NodeId>(s.dest);
    m.addr = sendArgAddr(s.arg);
    m.aux = sendArgAux(s.arg);
    m.requester = sendArgRequester(s.arg);
    return m;
}

} // namespace flashsim::protocol
