/**
 * @file
 * Google-Benchmark microbenchmarks over the simulator's two hot paths
 * (the event core and the PP emulator) plus a whole-node miss
 * round-trip, tracked across PRs via BENCH_hotpath.json (see
 * scripts/bench_hotpath.sh). Unlike the evaluation benches (which
 * reproduce paper tables), this suite measures the *simulator's* own
 * speed, the ROADMAP's "as fast as the hardware allows" axis.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "machine/machine.hh"
#include "network/mesh.hh"
#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/pp_programs.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace flashsim;

/**
 * Capture payload matching what the simulator actually schedules: the
 * MAGIC/network/processor lambdas carry a protocol::Message (or more)
 * by value, ~40 bytes on top of the object pointer — past the inline
 * buffer of a libstdc++ std::function, so this is the capture shape
 * whose allocation behaviour matters.
 */
struct EventPayload
{
    std::uint64_t addr;
    std::uint64_t aux;
    std::uint32_t src, dest, req, type;
};

/**
 * Classic hold model: keep @p depth events pending, each iteration
 * schedules one event at a pseudo-random small delay and executes one.
 * Exercises schedule + pop at a steady queue depth.
 */
void
BM_EventQueueHold(benchmark::State &state)
{
    const std::size_t depth = static_cast<std::size_t>(state.range(0));
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint32_t lcg = 12345;
    auto delay = [&]() -> Cycles {
        lcg = lcg * 1664525u + 1013904223u;
        return (lcg >> 20) & 0xff; // 0..255 cycles: near-term events
    };
    auto post = [&](Cycles d) {
        EventPayload p{sink, d, 1, 2, 3, 4};
        eq.schedule(d, [&sink, p] { sink += p.addr ^ p.aux; });
    };
    for (std::size_t i = 0; i < depth; ++i)
        post(delay());
    for (auto _ : state) {
        post(delay());
        eq.step();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/** Hold model with far-future delays (overflow/heap level). */
void
BM_EventQueueHoldFar(benchmark::State &state)
{
    const std::size_t depth = static_cast<std::size_t>(state.range(0));
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint32_t lcg = 99999;
    auto delay = [&]() -> Cycles {
        lcg = lcg * 1664525u + 1013904223u;
        return 4096 + ((lcg >> 16) & 0xfff); // beyond any near-term ring
    };
    auto post = [&](Cycles d) {
        EventPayload p{sink, d, 1, 2, 3, 4};
        eq.schedule(d, [&sink, p] { sink += p.addr ^ p.aux; });
    };
    for (std::size_t i = 0; i < depth; ++i)
        post(delay());
    for (auto _ : state) {
        post(delay());
        eq.step();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/**
 * Bulk schedule + drain: fill the queue with @p depth events, run to
 * empty. The shape of Machine::run's inner life (bursts of nearby
 * events), measured end to end.
 */
void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const std::size_t depth = static_cast<std::size_t>(state.range(0));
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        std::uint32_t lcg = 7;
        for (std::size_t i = 0; i < depth; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            Cycles d = (lcg >> 20) & 0x3ff;
            EventPayload p{sink, d, 1, 2, 3, 4};
            eq.schedule(d, [&sink, p] { sink += p.addr ^ p.aux; });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(depth));
}

/**
 * PP handler dispatch: execute protocol handler programs back to back
 * the way PpTimingModel does per invocation (register-file setup +
 * emulated execution). The mix alternates the hot read path (GET at
 * home, clean) with the cheap forward program.
 *
 * The engine runs unchecked, as in every machine without --verify, so
 * this is the production configuration.
 */
void
BM_PpDispatchCompiled(benchmark::State &state)
{
    using protocol::Message;
    using protocol::MsgType;

    static const protocol::HandlerPrograms programs =
        protocol::buildHandlerPrograms();
    const ppisa::PpSim sim;
    ppisa::FlatPpMemory mem;
    ppisa::RunStats stats;
    std::vector<ppisa::SentMessage> sent;

    Message get;
    get.type = MsgType::NetGet;
    get.src = 1;
    get.dest = 0;
    get.requester = 1;
    get.addr = 0x10000;

    Message fwd;
    fwd.type = MsgType::PiGet;
    fwd.src = 0;
    fwd.dest = 0;
    fwd.requester = 0;
    fwd.addr = 0x20000;

    // Resolve programs up front, the way the inbox resolves each
    // message's jump-table entry once, before the PP runs it.
    const ppisa::Program &getProg =
        programs.forMessage(get.type, /*at_home=*/true);
    const ppisa::Program &fwdProg =
        programs.forMessage(fwd.type, /*at_home=*/false);

    Cycles total = 0;
    for (auto _ : state) {
        {
            ppisa::RegFile regs =
                protocol::makeHandlerRegs(get, 0, 0, false);
            sent.clear();
            total += sim.run(getProg, regs, mem, sent, stats);
        }
        {
            ppisa::RegFile regs =
                protocol::makeHandlerRegs(fwd, 0, 1, false);
            sent.clear();
            total += sim.run(fwdProg, regs, mem, sent, stats);
        }
    }
    benchmark::DoNotOptimize(total);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2);
}

/**
 * Whole-node miss round-trip: processor 0 streams reads over lines
 * homed on node 1 (remote-clean misses), every one a full PI -> MAGIC
 * -> network -> home PP -> reply round trip with the PP emulator in the
 * loop. One benchmark iteration = one whole machine lifetime, so this
 * tracks the end-to-end cost of everything the simulator does per miss.
 */
void
BM_MissRoundTrip(benchmark::State &state)
{
    constexpr int kLines = 512;
    std::uint64_t misses = 0;
    for (auto _ : state) {
        machine::MachineConfig cfg = machine::MachineConfig::flash(4);
        machine::Machine m(cfg);
        Addr base = m.alloc(kLines * kLineSize, /*node=*/1);
        auto workload = [base](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            if (env.id() != 0)
                co_return;
            for (int i = 0; i < kLines; ++i)
                co_await env.read(base +
                                  static_cast<Addr>(i) * kLineSize);
        };
        m.run(workload);
        m.drain();
        misses += kLines;
    }
    benchmark::DoNotOptimize(misses);
    state.SetItemsProcessed(static_cast<std::int64_t>(misses));
}

/**
 * Directory hot ops over the paged flat store: the add/remove/clear
 * sharer-list walks every home-node handler performs, plus the raw
 * word view the PP shadow memory reads through. 64 lines cycle
 * through 1-sharer and 3-sharer states so both the header fast path
 * and the link pool (alloc + free-list reuse) stay exercised.
 */
void
BM_DirectoryOps(benchmark::State &state)
{
    protocol::DirectoryStore dir;
    constexpr int kLines = 64;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < kLines; ++i) {
            Addr line = static_cast<Addr>(i) * kLineSize;
            dir.addSharer(line, 1);
            dir.addSharer(line, 2);
            dir.addSharer(line, 3);
            sink += dir.countSharers(line);
            sink += dir.loadWord(protocol::headerAddr(line));
            dir.removeSharer(line, 2);
            sink += dir.isSharer(line, 3) ? 1 : 0;
            dir.clearSharers(line);
        }
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kLines);
}

/**
 * Mesh send: inject and deliver messages (send -> delivery event
 * carrying the message -> deliver), 16 in flight like a busy 16-node
 * machine.
 */
void
BM_MeshSend(benchmark::State &state)
{
    EventQueue eq;
    network::MeshNetwork net(eq, 16);
    std::uint64_t delivered = 0;
    for (NodeId n = 0; n < 16; ++n)
        net.connect(n, [&delivered](const protocol::Message &m) {
            delivered += m.addr;
        });
    protocol::Message msg;
    msg.type = protocol::MsgType::NetGet;
    msg.requester = 0;
    msg.addr = 0x10000;
    std::uint32_t lcg = 99;
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            msg.src = static_cast<NodeId>((lcg >> 8) & 15);
            msg.dest = static_cast<NodeId>((lcg >> 12) & 15);
            net.send(msg);
        }
        eq.run();
    }
    benchmark::DoNotOptimize(delivered);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            16);
}

BENCHMARK(BM_EventQueueHold)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_EventQueueHoldFar)->Arg(256)->Arg(4096);
BENCHMARK(BM_EventQueueScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_PpDispatchCompiled);
BENCHMARK(BM_DirectoryOps);
BENCHMARK(BM_MeshSend);
BENCHMARK(BM_MissRoundTrip)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
