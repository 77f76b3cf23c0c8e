/**
 * @file
 * Protocol explorer: a guided tour of the MAGIC protocol machinery.
 *
 * Walks a single coherence transaction through every layer the library
 * exposes: the PP handler programs the compiler produces (optimized
 * dual-issue vs the DLX baseline), the cycle-by-cycle PPsim execution
 * with MAGIC-data-cache effects, and the authoritative directory state
 * transitions. Useful as a worked example for writing new protocol
 * handlers.
 */

#include <cstdio>

#include "ppc/compiler.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"

using namespace flashsim;
using namespace flashsim::protocol;

namespace
{

/** PP memory adapter over a directory store. */
struct DirMem : ppisa::PpMemory
{
    DirectoryStore &d;
    explicit DirMem(DirectoryStore &dd) : d(dd) {}
    std::uint64_t
    load(Addr a, Cycles &e) override
    {
        e = 0;
        return d.loadWord(a);
    }
    void
    store(Addr a, std::uint64_t v, Cycles &e) override
    {
        e = 0;
        d.storeWord(a, v);
    }
};

void
showState(const DirectoryStore &dir, Addr line)
{
    DirHeader h = dir.header(line);
    std::printf("  directory: dirty=%d owner=%u sharers={", h.dirty,
                h.owner);
    bool first = true;
    for (NodeId s : dir.sharers(line)) {
        std::printf("%s%u", first ? "" : ",", s);
        first = false;
    }
    std::printf("}\n");
}

} // namespace

int
main()
{
    std::printf("FlashSim protocol explorer\n");
    std::printf("==========================\n\n");

    const Addr line = 0x0000; // homed on node 0
    const NodeId home = 0;
    const HandlerPrograms progs = buildHandlerPrograms();
    DirectoryStore dir;
    ProtocolEngine engine(home, dir);
    // MAGIC's inbox decode: the jump-table entry for the message type
    // and line-is-local bit names the C++ handler and its PP program;
    // both take the message, the line's home and whether the local
    // processor cache holds the line dirty (here it never does).
    const auto run = [&](const Message &m) {
        const HandlerPrograms::Entry &e = progs.dispatch(m.type, true);
        return (engine.*e.handler)(m, home, false);
    };

    // Scenario: nodes 2 and 3 read the line, then node 1 writes it.
    std::printf("1. Node 2 and node 3 read the line (clean at home):\n");
    for (NodeId reader : {NodeId{2}, NodeId{3}}) {
        Message m;
        m.type = MsgType::NetGet;
        m.src = reader;
        m.dest = 0;
        m.requester = reader;
        m.addr = line;
        HandlerResult r = run(m);
        std::printf("  GET from node %u -> handler %s, %zu message(s): ",
                    reader, handlerIdName(r.id), r.out.size());
        for (const OutMsg &o : r.out)
            std::printf("%s->%u ", msgTypeName(o.msg.type), o.msg.dest);
        std::printf("\n");
    }
    showState(dir, line);

    std::printf("\n2. Node 1 requests exclusive ownership:\n");
    Message getx;
    getx.type = MsgType::NetGetx;
    getx.src = 1;
    getx.dest = 0;
    getx.requester = 1;
    getx.addr = line;
    HandlerResult r = run(getx);
    std::printf("  GETX from node 1 -> handler %s (%d invalidations):\n",
                handlerIdName(r.id), r.costParam);
    for (const OutMsg &o : r.out)
        std::printf("    %s\n", o.msg.toString().c_str());
    showState(dir, line);

    // The same GETX through the PP program, instruction by instruction.
    std::printf("\n3. The same GETX as PP handler code:\n\n");
    const ppisa::Program &getx_prog = progs.forMessage(MsgType::NetGetx, true);
    std::printf("%s\n", getx_prog.toString().c_str());

    std::printf("4. Executing it on PPsim against a fresh directory "
                "with two sharers:\n");
    DirectoryStore dir2;
    dir2.addSharer(line, 2);
    dir2.addSharer(line, 3);
    DirMem mem(dir2);
    ppisa::RegFile regs = makeHandlerRegs(getx, home, home, false);
    std::vector<ppisa::SentMessage> sent;
    ppisa::RunStats stats;
    ppisa::PpSim sim;
    Cycles cycles = sim.run(getx_prog, regs, mem, sent, stats);
    std::printf("  %llu cycles, %llu instruction pairs, dual-issue "
                "efficiency %.2f, %llu special instructions\n",
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(stats.pairs),
                stats.dualIssueEfficiency(),
                static_cast<unsigned long long>(stats.specials));
    for (const ppisa::SentMessage &s : sent)
        std::printf("  PP sent: %s\n", decodeSent(s, 0).toString().c_str());
    showState(dir2, line);

    std::printf("\n5. The compiler's baseline (no special instructions, "
                "single issue) for comparison:\n");
    HandlerPrograms base = buildHandlerPrograms({false, false});
    const ppisa::Program &base_getx =
        base.forMessage(MsgType::NetGetx, true);
    DirectoryStore dir3;
    dir3.addSharer(line, 2);
    dir3.addSharer(line, 3);
    DirMem mem3(dir3);
    regs = makeHandlerRegs(getx, home, home, false);
    sent.clear();
    ppisa::RunStats base_stats;
    Cycles base_cycles =
        sim.run(base_getx, regs, mem3, sent, base_stats);
    std::printf("  optimized: %llu cycles / %zu bytes;  baseline: %llu "
                "cycles / %zu bytes (%.1fx slower)\n",
                static_cast<unsigned long long>(cycles),
                getx_prog.codeBytes(),
                static_cast<unsigned long long>(base_cycles),
                base_getx.codeBytes(),
                static_cast<double>(base_cycles) /
                    static_cast<double>(cycles));
    return 0;
}
