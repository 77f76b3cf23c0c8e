/**
 * @file
 * The paper driver: every table, figure and section study of the
 * evaluation, regenerated from one deduplicated set of machine runs.
 *
 *   bench_paper [--paper] [section...]
 *
 * Sections (default: all, in this order): table_3_3, table_3_4,
 * fig_4_1, fig_4_2, fig_4_3, sec_4_3, sec_4_5, table_5_1, sec_5_2,
 * table_5_2, table_5_3, migration, msgpass, fetchop, ablations.
 * --paper runs Figure 4.1 at the paper's problem sizes.
 *
 * A run has three steps:
 *  - Collect: each selected section declares the machine runs it needs
 *    and returns its renderer.
 *  - Run: every distinct RunSpec and every distinct miss-latency probe
 *    is simulated once through one SweepRunner, longest first by a
 *    static cost hint; a run keeps only its Summary and PP statistics,
 *    not its Machine.
 *  - Render: each section prints from the results, paper values next
 *    to measured ones.
 * Results are indexed by submission order, so stdout does not depend
 * on the worker count (FLASHSIM_JOBS). The one-line sweep report goes
 * to stderr.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/fft.hh"
#include "apps/radix.hh"
#include "apps/workload.hh"
#include "machine/report.hh"
#include "machine/runner.hh"
#include "magic/timing_model.hh"
#include "ppc/compiler.hh"
#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"

namespace flashsim::bench
{
namespace
{

using apps::Scale;
using machine::Machine;
using machine::MachineConfig;
using machine::MissLatencies;
using machine::Placement;
using machine::ProbeResult;
using machine::Summary;

// ---- Collect and run ----------------------------------------------------

/** One application run. Equal specs share a single simulation. */
struct RunSpec
{
    std::string app;
    Scale scale = Scale::Default;
    MachineConfig cfg;

    bool operator==(const RunSpec &) const = default;
};

/**
 * Relative host cost of a keyed run, used only to hand the longest runs
 * to the sweep first. Per app: serial host milliseconds of the
 * 16-processor FLASH run with 1 MB caches, and the factors a 64 KB
 * cache, a smaller one, and the paper's problem size multiply it by
 * (bench_paper with one job, GCC 12 RelWithDebInfo, 4-core x86 host).
 * The ideal machine runs about a quarter cheaper.
 */
double
costHint(const RunSpec &s)
{
    struct Cost
    {
        const char *app;
        double ms, x64K, xSmall, xPaper;
    };
    static constexpr Cost kCosts[] = {
        {"barnes", 150, 2, 14, 2.6}, {"fft", 24, 1, 4.5, 6},
        {"lu", 70, 2, 2, 12},        {"mp3d", 540, 1, 1, 3},
        {"ocean", 75, 1.4, 1.4, 5},  {"os", 30, 1, 1, 1.8},
        {"radix", 210, 2.4, 5, 1},
    };
    for (const Cost &c : kCosts) {
        if (s.app != c.app)
            continue;
        const std::uint32_t bytes = s.cfg.cache.sizeBytes;
        double ms = c.ms * (bytes < (64u << 10)   ? c.xSmall
                            : bytes < (1u << 20) ? c.x64K
                                                 : 1.0);
        if (s.scale == Scale::Paper)
            ms *= c.xPaper;
        if (s.cfg.magic.ideal)
            ms *= 0.75;
        return ms * s.cfg.numProcs / 16;
    }
    return 0;
}

/** What a run leaves behind once its machine is gone. */
struct RunResult
{
    Summary summary;
    ppisa::RunStats pp; ///< PP statistics summed over the nodes
    /** Pages with remote traffic, hottest first and ties in page
     *  order (monitorPages only). */
    std::vector<std::pair<std::uint64_t, Counter>> hotPages;
};

RunResult
simulate(const MachineConfig &cfg, apps::Workload &w)
{
    std::unique_ptr<Machine> m = apps::runWorkload(cfg, w);
    RunResult r;
    r.summary = machine::summarize(*m);
    for (int i = 0; i < m->numProcs(); ++i)
        if (const magic::PpTimingModel *pm = m->node(i).magic().ppModel())
            r.pp.accumulate(pm->runStats());
    if (cfg.magic.monitorPages) {
        const std::vector<Counter> heat = m->pageHeat();
        for (std::uint64_t page = 0; page < heat.size(); ++page)
            if (heat[page] != 0)
                r.hotPages.emplace_back(page, heat[page]);
        std::sort(r.hotPages.begin(), r.hotPages.end(),
                  [](const auto &a, const auto &b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                  });
    }
    return r;
}

/**
 * The runs the selected sections need. A keyed run (app, scale,
 * config) is simulated once however many sections ask for it; an
 * unkeyed job (a workload the registry cannot name, or a run built
 * from another run's result) always runs. Handles index the results
 * once execute() has returned.
 */
class Plan
{
  public:
    using Run = std::size_t;
    using Probe = std::size_t;

    // after() jobs hold `this`.
    Plan() = default;
    Plan(const Plan &) = delete;
    Plan &operator=(const Plan &) = delete;

    /** A keyed run. @p cfg must have no placementHook, which
     *  MachineConfig equality cannot see. */
    Run
    run(const std::string &app, const MachineConfig &cfg,
        Scale scale = Scale::Default)
    {
        if (cfg.placementHook)
            panic("bench_paper: a keyed run of %s has a placementHook",
                  app.c_str());
        ++requested_;
        // Radix's paper problem size is its default one: key both
        // scales as one run.
        if (app == "radix" &&
            apps::RadixParams::paper() == apps::RadixParams{})
            scale = Scale::Default;
        RunSpec spec{app, scale, cfg};
        for (const auto &[key, id] : keyed_)
            if (key == spec)
                return id;
        keyed_.emplace_back(spec, jobs_.size());
        return add(costHint(spec), [spec] {
            auto w = apps::makeWorkload(spec.app, spec.scale);
            return simulate(spec.cfg, *w);
        });
    }

    /** An unkeyed run: always simulated, never shared. @p cost is its
     *  costHint-scale host cost. */
    Run
    job(double cost, std::function<RunResult()> body)
    {
        ++requested_;
        return add(cost, std::move(body));
    }

    /** An unkeyed job fed @p first's result; runs in a second round. */
    Run
    after(Run first, std::function<RunResult(const RunResult &)> body)
    {
        ++requested_;
        Run id = add(0, [this, first, body = std::move(body)] {
            return body(results_[first]);
        });
        secondRound_.push_back(id);
        return id;
    }

    /** Table 3.3's no-contention probe of @p cfg. */
    Probe
    probe(const MachineConfig &cfg)
    {
        ++probesRequested_;
        for (std::size_t i = 0; i < probeCfgs_.size(); ++i)
            if (probeCfgs_[i] == cfg)
                return i;
        probeCfgs_.push_back(cfg);
        return probeCfgs_.size() - 1;
    }

    void
    execute()
    {
        sim::SweepRunner runner;
        double wall = 0, serial = 0;
        auto tally = [&] {
            wall += runner.lastMetrics().wallSeconds;
            serial += runner.lastMetrics().serialSeconds;
        };
        for (const MachineConfig &cfg : probeCfgs_) {
            probes_.push_back(machine::probeMissLatencies(cfg, &runner));
            tally();
        }
        results_.resize(jobs_.size());
        std::vector<Run> rounds[2];
        for (Run id = 0; id < jobs_.size(); ++id)
            rounds[std::count(secondRound_.begin(), secondRound_.end(),
                              id)]
                .push_back(id);
        for (std::vector<Run> &round : rounds) {
            // Longest first, so no long run starts last and sets the
            // tail; results stay indexed by handle.
            std::stable_sort(round.begin(), round.end(),
                             [this](Run a, Run b) {
                                 return cost_[a] > cost_[b];
                             });
            runner.runIndexed(round.size(), [&](std::size_t i) {
                results_[round[i]] = jobs_[round[i]]();
            });
            tally();
        }
        std::fprintf(stderr,
                     "[sweep] paper: %zu runs requested, %zu distinct; "
                     "%zu probes requested, %zu distinct; %d workers, "
                     "wall %.2fs, serial %.2fs\n",
                     requested_, jobs_.size(), probesRequested_,
                     probeCfgs_.size(), runner.workers(), wall, serial);
    }

    const RunResult &operator[](Run id) const { return results_[id]; }
    const Summary &summary(Run id) const { return results_[id].summary; }
    const ProbeResult &probeResult(Probe p) const { return probes_[p]; }

  private:
    Run
    add(double cost, std::function<RunResult()> body)
    {
        jobs_.push_back(std::move(body));
        cost_.push_back(cost);
        return jobs_.size() - 1;
    }

    std::vector<std::function<RunResult()>> jobs_;
    std::vector<double> cost_; ///< per job, costHint scale
    std::vector<std::pair<RunSpec, Run>> keyed_;
    std::vector<Run> secondRound_;
    std::vector<RunResult> results_;
    std::size_t requested_ = 0;

    std::vector<MachineConfig> probeCfgs_;
    std::vector<ProbeResult> probes_;
    std::size_t probesRequested_ = 0;
};

/** A section's second half: prints from the executed plan. */
using Render = std::function<void(const Plan &)>;

// ---- Shared measurements and printing -----------------------------------

/** Percent by which @p t exceeds @p base. */
double
pctOver(Tick t, Tick base)
{
    return 100.0 *
           (static_cast<double>(t) / static_cast<double>(base) - 1.0);
}

/** FLASH/ideal runs of one workload. */
struct Pair
{
    Plan::Run flash;
    Plan::Run ideal;

    double
    slowdownPct(const Plan &plan) const
    {
        return pctOver(plan.summary(flash).execTime,
                       plan.summary(ideal).execTime);
    }
};

Pair
pair(Plan &plan, const std::string &app, int procs,
     std::uint32_t cache_bytes, Scale scale = Scale::Default,
     Placement placement = Placement::RoundRobinPages)
{
    MachineConfig flash = MachineConfig::flash(procs, cache_bytes);
    MachineConfig ideal = MachineConfig::ideal(procs, cache_bytes);
    flash.placement = ideal.placement = placement;
    return {plan.run(app, flash, scale), plan.run(app, ideal, scale)};
}

/** The 16-node FLASH and ideal probes Sections 3 and 4 compare. */
struct Probes
{
    Plan::Probe flash;
    Plan::Probe ideal;

    explicit Probes(Plan &plan)
        : flash(plan.probe(MachineConfig::flash(16))),
          ideal(plan.probe(MachineConfig::ideal(16)))
    {}
};

/** Figure 4.1-style paired bars, FLASH normalized to 100. */
void
printBars(const std::string &app, const Summary &flash,
          const Summary &ideal)
{
    double norm = static_cast<double>(flash.execTime);
    auto bar = [&](const char *label, const Summary &s) {
        double h = 100.0 * static_cast<double>(s.execTime) / norm;
        std::printf("  %-8s %-6s %6.1f |", app.c_str(), label, h);
        std::printf(" busy %5.1f cont %4.1f read %5.1f write %4.1f sync "
                    "%5.1f\n",
                    h * s.busy, h * s.cont, h * s.read, h * s.write,
                    h * s.sync);
    };
    bar("FLASH", flash);
    bar("ideal", ideal);
}

/**
 * The body every Figure 4.x section shares: the breakdown bars, then
 * one Table 4.x statistics row per workload.
 */
void
printComparison(const Plan &plan, const char *table,
                const std::vector<std::string> &apps,
                const std::vector<Pair> &pairs, const Probes &probes)
{
    std::printf("Execution time breakdowns (FLASH normalized to 100):\n");
    for (std::size_t i = 0; i < apps.size(); ++i)
        printBars(apps[i], plan.summary(pairs[i].flash),
                  plan.summary(pairs[i].ideal));

    const MissLatencies &flash_lat =
        plan.probeResult(probes.flash).latency;
    const MissLatencies &ideal_lat =
        plan.probeResult(probes.ideal).latency;
    std::printf("\n%s statistics (measured):\n", table);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const Summary &s = plan.summary(pairs[i].flash);
        std::printf("%-8s miss %5.2f%% | LC %5.1f LDR %5.1f RC %5.1f RDH "
                    "%5.1f RDR %5.1f | CRMT F %3.0f I %3.0f | mem %4.1f%% "
                    "pp %4.1f%% | FLASH +%.1f%%\n",
                    apps[i].c_str(), 100.0 * s.missRate,
                    100.0 * s.dist.localClean,
                    100.0 * s.dist.localDirtyRemote,
                    100.0 * s.dist.remoteClean,
                    100.0 * s.dist.remoteDirtyHome,
                    100.0 * s.dist.remoteDirtyRemote, flash_lat.crmt(s.dist),
                    ideal_lat.crmt(plan.summary(pairs[i].ideal).dist),
                    100.0 * s.avgMemOcc, 100.0 * s.avgPpOcc,
                    pairs[i].slowdownPct(plan));
    }
}

// ---- Table 3.3 + Figure 3.1: no-contention latencies --------------------

Render
table_3_3(Plan &plan)
{
    Probes probes(plan);
    return [probes](const Plan &plan) {
        struct Row
        {
            const char *name;
            double paper_ideal;
            double paper_flash;
            double paper_occ;
            double MissLatencies::*slot;
        };
        const Row rows[] = {
            {"Local read, clean in memory", 24, 27, 11,
             &MissLatencies::localClean},
            {"Local read, dirty in remote cache", 100, 143, 53,
             &MissLatencies::localDirtyRemote},
            {"Remote read, clean in home memory", 92, 111, 16,
             &MissLatencies::remoteClean},
            {"Remote read, dirty in home cache", 100, 145, 53,
             &MissLatencies::remoteDirtyHome},
            {"Remote read, dirty in 3rd node", 136, 191, 61,
             &MissLatencies::remoteDirtyRemote},
        };
        using namespace magic;
        auto u = [](Cycles c) { return static_cast<unsigned long long>(c); };

        std::printf("Table 3.2: sub-operation latencies (10 ns cycles)\n");
        std::printf("  miss detect %llu, bus transit %llu, PI in %llu, "
                    "PI out %llu (ideal %llu)\n",
                    u(kMissDetect), u(kBusTransit), u(kPiInbound),
                    u(kPiOutbound), u(kPiOutboundIdeal));
        std::printf("  cache state retrieve %llu, cache data retrieve "
                    "%llu\n",
                    u(kCacheStateRetrieve), u(kCacheDataRetrieve));
        std::printf("  NI in %llu, NI out %llu, inbox arb %llu, jump "
                    "table %llu, outbox %llu\n",
                    u(kNiInbound), u(kNiOutbound), u(kInboxArb),
                    u(kJumpLookup), u(kOutbox));
        std::printf("  MDC miss penalty %llu, memory access %llu\n\n",
                    u(MachineConfig::flash(16).magic.mdcMissPenalty),
                    u(kMemAccess));

        std::printf("Probing the five read-miss classes "
                    "(16-node machines, no contention)...\n\n");
        const ProbeResult &pf = plan.probeResult(probes.flash);
        const ProbeResult &pi = plan.probeResult(probes.ideal);
        std::printf("Table 3.3: memory latencies and occupancies, no "
                    "contention (10 ns cycles)\n");
        std::printf("%-36s | %6s %6s | %6s %6s | %7s %7s | %6s %6s\n",
                    "operation", "idealP", "idealM", "flashP", "flashM",
                    "deltaP", "deltaM", "occP", "occM");
        for (const Row &r : rows) {
            double im = pi.latency.*(r.slot);
            double fm = pf.latency.*(r.slot);
            double om = pf.ppOccupancy.*(r.slot);
            std::printf("%-36s | %6.0f %6.0f | %6.0f %6.0f | %7.0f %7.0f "
                        "| %6.0f %6.0f\n",
                        r.name, r.paper_ideal, im, r.paper_flash, fm,
                        r.paper_flash - r.paper_ideal, fm - im,
                        r.paper_occ, om);
        }
        std::printf("\n(P = paper value, M = measured; delta = FLASH - "
                    "ideal, the cost of flexibility per miss class)\n");

        std::printf("\nFigure 3.1: sub-operations of a local clean read\n");
        Tick t = 0;
        std::printf("  t=%2llu processor detects miss\n", u(t));
        t += kMissDetect + kBusTransit;
        std::printf("  t=%2llu request on bus at MAGIC\n", u(t));
        t += kPiInbound + kInboxArb;
        std::printf("  t=%2llu inbox selects message\n", u(t));
        t += kJumpLookup;
        std::printf("  t=%2llu jump table done; speculative memory read "
                    "issued; PP handler starts\n",
                    u(t));
        std::printf("  t=%2llu memory returns first 8 bytes (handler has "
                    "been hidden underneath)\n",
                    u(t + kMemAccess));
        std::printf("  t=%2llu first 8 bytes on processor bus (measured "
                    "total: %.0f; paper: 27)\n",
                    u(t + kMemAccess + kBusArb + kBusTransit),
                    pf.latency.localClean);
    };
}

// ---- Table 3.4: PP occupancy per handler (PPsim, no machine) ------------

constexpr Addr kLine = 0x2000;

/** Warm occupancy of handler @p id for @p m in a set-up directory. */
double
handlerOccupancy(const protocol::HandlerPrograms &programs,
                 const protocol::Message &m, NodeId home, bool cache_dirty,
                 protocol::HandlerId id,
                 const std::function<void(protocol::DirectoryStore &)> &setup)
{
    Cycles out = 0;
    // Two passes: the first warms the MIC and MDC, the second is the
    // steady-state cost Table 3.4 reports. Rebuilding the store
    // invalidates nothing in the MDC (the addresses repeat).
    const magic::MagicParams params;
    protocol::DirectoryStore dir;
    magic::PpTimingModel model(programs, dir, params);
    for (int pass = 0; pass < 2; ++pass) {
        dir = protocol::DirectoryStore();
        setup(dir);
        out = model
                  .run(programs.dispatch(m.type, home == 0), m, 0, home,
                       cache_dirty)
                  .occupancy;
    }
    if (id == protocol::HandlerId::RetrieveFromCache)
        out += magic::kCacheRetrieveCycles;
    return static_cast<double>(out);
}

protocol::Message
msg(protocol::MsgType t, NodeId src, Addr addr, NodeId req)
{
    protocol::Message m;
    m.type = t;
    m.src = src;
    m.dest = 0;
    m.requester = req;
    m.addr = addr;
    return m;
}

void
table_3_4(const Plan &)
{
    using protocol::DirectoryStore;
    using protocol::DirHeader;
    using protocol::HandlerId;
    using protocol::MsgType;
    const protocol::HandlerPrograms programs =
        protocol::buildHandlerPrograms();
    auto measure = [&](const protocol::Message &m, NodeId home,
                       bool cache_dirty, HandlerId id,
                       const std::function<void(DirectoryStore &)> &setup) {
        return handlerOccupancy(programs, m, home, cache_dirty, id, setup);
    };
    auto nop_setup = [](DirectoryStore &) {};
    auto dirty_at = [](NodeId owner) {
        return [owner](DirectoryStore &d) {
            DirHeader h = d.header(kLine);
            h.dirty = true;
            h.owner = owner;
            d.setHeader(kLine, h);
        };
    };

    std::printf("Table 3.4: PP occupancies for common operations "
                "(10 ns cycles)\n");
    std::printf("%-44s %6s %9s\n", "operation", "paper", "measured");
    auto row = [](const char *name, double paper, double measured) {
        std::printf("%-44s %6.0f %9.0f\n", name, paper, measured);
    };

    row("Service read miss from main memory", 11,
        measure(msg(MsgType::NetGet, 2, kLine, 2), 0, false,
                HandlerId::ServeReadMemory, nop_setup));

    // Write miss: base (no sharers) plus per-invalidation increments.
    auto getx_with = [&](int sharers) {
        return measure(msg(MsgType::NetGetx, 2, kLine, 2), 0, false,
                       HandlerId::ServeWriteMemory,
                       [sharers](DirectoryStore &d) {
                           for (int i = 0; i < sharers; ++i)
                               d.addSharer(kLine,
                                           static_cast<NodeId>(i + 4));
                       });
    };
    double w0 = getx_with(0);
    double w1 = getx_with(1);
    double w4 = getx_with(4);
    row("Service write miss from main memory", 14, w0);
    row("  ... per invalidation (paper: 10 to 15)", 12.5, (w4 - w1) / 3.0);

    row("Forward request to home node", 3,
        measure(msg(MsgType::PiGet, 0, 0x1000, 0), 1, false,
                HandlerId::FwdToHome, nop_setup));
    row("Forward request from home to dirty node", 18,
        measure(msg(MsgType::NetGet, 2, kLine, 2), 0, false,
                HandlerId::FwdHomeToDirty, dirty_at(3)));
    row("Retrieve data from processor cache", 38,
        measure(msg(MsgType::NetFwdGet, 1, 0x1000, 2), 1, true,
                HandlerId::RetrieveFromCache, nop_setup));
    row("Forward reply from network to processor", 2,
        measure(msg(MsgType::NetPut, 1, 0x1000, 0), 1, false,
                HandlerId::ReplyToProc, nop_setup));
    row("Local writeback", 10,
        measure(msg(MsgType::PiWriteback, 0, kLine, 0), 0, false,
                HandlerId::LocalWriteback, dirty_at(0)));
    row("Local replacement hint", 7,
        measure(msg(MsgType::PiReplaceHint, 0, kLine, 0), 0, false,
                HandlerId::LocalHint,
                [](DirectoryStore &d) { d.addSharer(kLine, 0); }));
    row("Writeback from a remote processor", 8,
        measure(msg(MsgType::NetWriteback, 2, kLine, 2), 0, false,
                HandlerId::RemoteWriteback, dirty_at(2)));

    // Replacement hints: only node, and Nth node on the list.
    auto hint_nth = [&](int n_ahead) {
        return measure(
            msg(MsgType::NetReplaceHint, 9, kLine, 9), 0, false,
            n_ahead ? HandlerId::RemoteHintNth : HandlerId::RemoteHintOnly,
            [n_ahead](DirectoryStore &d) {
                d.addSharer(kLine, 9);
                for (int i = 0; i < n_ahead; ++i)
                    d.addSharer(kLine, static_cast<NodeId>(i + 1));
            });
    };
    double h0 = hint_nth(0);
    double h1 = hint_nth(1);
    double h5 = hint_nth(5);
    row("Replacement hint, only node on list", 17, h0);
    row("Replacement hint, Nth node: base", 23, h1 - (h5 - h1) / 4.0);
    row("  ... per list node (paper: 14)", 14, (h5 - h1) / 4.0);

    std::printf("\nHandler code: %zu bytes total (paper: ~14.8 KB for "
                "the full protocol; MIC is 32 KB)\n",
                programs.totalCodeBytes());
}

// ---- Figures 4.1-4.3 + Tables 4.1-4.2: FLASH vs ideal -------------------

Render
fig_4_1(Plan &plan, Scale scale)
{
    Probes probes(plan);
    std::vector<std::string> apps = apps::allWorkloadNames();
    std::vector<Pair> pairs;
    for (const std::string &app : apps)
        pairs.push_back(pair(plan, app, app == "os" ? 8 : 16, 1u << 20,
                             scale));
    return [=](const Plan &plan) {
        struct PaperRow
        {
            const char *app;
            double missRate; // Table 4.1
            double ppOcc;
        };
        const PaperRow paper[] = {
            {"barnes", 0.06, 5.4}, {"fft", 0.64, 14.3},
            {"lu", 0.05, 1.7},     {"mp3d", 6.00, 36.2},
            {"ocean", 0.91, 17.7}, {"radix", 0.78, 22.8},
            {"os", 0.09, 21.0},
        };

        std::printf("Figure 4.1 / Table 4.1: FLASH vs ideal, 1 MB caches "
                    "(16 processors, OS: 8)%s\n\n",
                    scale == Scale::Paper ? " [paper problem sizes]" : "");
        printComparison(plan, "Table 4.1", apps, pairs, probes);

        std::printf("\nPaper vs measured summary:\n");
        std::printf("%-8s | %9s %9s | %8s %8s | %10s\n", "app", "missP",
                    "missM", "ppOccP", "ppOccM", "slowdownM");
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const Summary &s = plan.summary(pairs[i].flash);
            std::printf("%-8s | %8.2f%% %8.2f%% | %7.1f%% %7.1f%% | "
                        "%9.1f%%\n",
                        apps[i].c_str(), paper[i].missRate,
                        100.0 * s.missRate, paper[i].ppOcc,
                        100.0 * s.avgPpOcc, pairs[i].slowdownPct(plan));
        }
        std::printf("\n(paper: optimized workloads land between 2%% and "
                    "12%%, MP3D near 25%%)\n");
    };
}

/** One workload of Figure 4.2 or 4.3 with its Table 4.2 paper values. */
struct SmallCacheRow
{
    const char *app;
    std::uint32_t cacheBytes;
    double paperMiss;
    double paperLocalClean;
};

/**
 * Figures 4.2 and 4.3: the Figure 4.1 comparison at smaller caches,
 * then Table 4.2's miss rate and local-clean share, paper vs measured.
 */
Render
smallCaches(Plan &plan, const char *title, const char *vs_label,
            const char *note, std::vector<SmallCacheRow> rows)
{
    Probes probes(plan);
    std::vector<std::string> apps;
    std::vector<Pair> pairs;
    for (const SmallCacheRow &row : rows) {
        apps.push_back(row.app);
        pairs.push_back(pair(plan, row.app, 16, row.cacheBytes));
    }
    return [=](const Plan &plan) {
        std::printf("%s\n\n", title);
        printComparison(plan, "Table 4.2", apps, pairs, probes);
        std::printf("\nPaper vs measured (%s):\n", vs_label);
        std::printf("%-8s | %8s %8s | %8s %8s\n", "app", "missP", "missM",
                    "LCp", "LCm");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Summary &s = plan.summary(pairs[i].flash);
            std::printf("%-8s | %7.2f%% %7.2f%% | %7.1f%% %7.1f%%\n",
                        rows[i].app, rows[i].paperMiss,
                        100.0 * s.missRate, rows[i].paperLocalClean,
                        100.0 * s.dist.localClean);
        }
        std::printf("%s", note);
    };
}

/** Figure 4.2: 64 KB caches (the paper omits LU and the OS here). */
Render
fig_4_2(Plan &plan)
{
    const std::uint32_t kb64 = 64u * 1024u;
    return smallCaches(plan,
                       "Figure 4.2 / Table 4.2 (64 KB caches, 16 procs)",
                       "64 KB", "",
                       {{"barnes", kb64, 0.6, 7.0},
                        {"fft", kb64, 1.1, 42.7},
                        {"mp3d", kb64, 7.1, 1.4},
                        {"ocean", kb64, 2.5, 88.6},
                        {"radix", kb64, 4.2, 80.1}});
}

/**
 * Figure 4.3: 4 KB caches, Ocean 16 KB (line conflicts at 4 KB). Most
 * misses are then local, where FLASH and the ideal machine differ
 * least, so the cost of flexibility stays moderate.
 */
Render
fig_4_3(Plan &plan)
{
    return smallCaches(plan,
                       "Figure 4.3 / Table 4.2 (4 KB caches; Ocean 16 KB)",
                       "small caches",
                       "\n(key shape: with tiny caches the miss mix shifts "
                       "to local lines, so the FLASH/ideal gap does not "
                       "blow up)\n",
                       {{"fft", 4096, 8.7, 64.7},
                        {"mp3d", 4096, 11.4, 3.8},
                        {"ocean", 16384, 10.0, 95.6},
                        {"radix", 4096, 10.0, 91.3}});
}

// ---- Section 4.3: PP occupancy vs memory occupancy ----------------------

/**
 * FFT with 4 KB caches and all memory on node 0 (paper: node 0 PP
 * 81.6%, memory 67.7%, yet FLASH only 2.6% slower), and the OS with
 * first-fit placement (PP 81% with memory 33%: 29% slower). High PP
 * occupancy hurts only when memory occupancy is low.
 */
Render
sec_4_3(Plan &plan)
{
    struct Row
    {
        const char *label;
        Pair pair;
        double paperPp, paperMem, paperSlowdown;
    };
    std::vector<Row> rows = {
        {"FFT 4KB, all memory on node 0:",
         pair(plan, "fft", 16, 4096, Scale::Default, Placement::Node0),
         81.6, 67.7, 2.6},
        {"FFT 4KB, round-robin pages:", pair(plan, "fft", 16, 4096), 0, 0,
         0},
        {"OS, first-fit placement:",
         pair(plan, "os", 8, 1u << 20, Scale::Default, Placement::FirstFit),
         81, 33, 29},
        {"OS, round-robin placement:", pair(plan, "os", 8, 1u << 20), 0, 0,
         10},
    };
    return [rows](const Plan &plan) {
        std::printf("Section 4.3: PP occupancy vs memory occupancy\n\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            const Summary &s = plan.summary(r.pair.flash);
            if (i == 2)
                std::printf("\n");
            std::printf("%-34s maxPP %5.1f%% (paper %4.0f%%)  maxMem "
                        "%5.1f%% (paper %4.0f%%)  FLASH +%5.1f%% (paper "
                        "+%.1f%%)\n",
                        r.label, 100.0 * s.maxPpOcc, r.paperPp,
                        100.0 * s.maxMemOcc, r.paperMem,
                        r.pair.slowdownPct(plan), r.paperSlowdown);
        }
        std::printf("\nShape check: the hot node's PP occupancy is high in "
                    "both hot-spot runs, but only the OS/first-fit case "
                    "(high PP occupancy with LOW memory occupancy) costs "
                    "FLASH significantly against the ideal machine.\n");
    };
}

// ---- Section 4.5: scaling to 64 processors ------------------------------

/**
 * The same problem sizes on 64 processors raise the remote miss share
 * and widen the gap (paper: FFT 17%, Ocean 12%, LU 0.7%); scaling
 * FFT's data set 4x brings it back down (12%).
 */
Render
sec_4_5(Plan &plan)
{
    struct Row
    {
        const char *app;
        Pair p16, p64;
        double paper64;
    };
    const std::pair<const char *, double> paper64[] = {
        {"fft", 17.0}, {"ocean", 12.0}, {"lu", 0.7}};
    std::vector<Row> rows;
    for (auto [app, paper] : paper64)
        rows.push_back({app, pair(plan, app, 16, 1u << 20),
                        pair(plan, app, 64, 1u << 20), paper});
    auto scaled_fft = [&plan](MachineConfig cfg) {
        return plan.job(170 /* ms, measured */, [cfg] {
            apps::FftParams p;
            p.logN += 2;
            apps::Fft w(p);
            return simulate(cfg, w);
        });
    };
    Pair scaled{scaled_fft(MachineConfig::flash(64)),
                scaled_fft(MachineConfig::ideal(64))};

    return [rows, scaled](const Plan &plan) {
        std::printf("Section 4.5: scaling to 64 processors "
                    "(same problem sizes as the 16-processor runs)\n\n");
        std::printf("%-26s %10s %10s %10s\n", "configuration", "16p slow%",
                    "64p slow%", "paper 64p");
        for (const Row &r : rows) {
            std::printf("%-26s %9.1f%% %9.1f%% %9.1f%%\n", r.app,
                        r.p16.slowdownPct(plan), r.p64.slowdownPct(plan),
                        r.paper64);
            if (std::strcmp(r.app, "fft") == 0)
                std::printf("%-26s %10s %9.1f%% %9.1f%%\n",
                            "fft (scaled data)", "-",
                            scaled.slowdownPct(plan), 12.0);
        }
        std::printf("\n(key shape: shrinking per-processor work raises the "
                    "remote miss rate and widens the gap, except for LU "
                    "whose communication stays negligible)\n");
    };
}

// ---- Table 5.1: speculative memory operations ---------------------------

/**
 * Each workload with and without the jump table's speculative memory
 * reads, at 1 MB and at the small cache size (4 KB; Ocean 16 KB; the
 * paper marks Barnes, LU and the OS N/A there).
 */
Render
table_5_1(Plan &plan)
{
    struct Row
    {
        const char *app;
        double paperUseless1M, paperSlow1M;
        double paperUselessSmall; // <0: N/A
        double paperSlowSmall;
        Plan::Run on1M = 0, off1M = 0, onSmall = 0, offSmall = 0;
    };
    std::vector<Row> rows = {
        {"barnes", 54.0, 12.7, -1, -1}, {"fft", 43.5, 0.9, 5.9, 6.8},
        {"lu", 33.5, 0.2, -1, -1},      {"mp3d", 67.8, 11.8, 37.7, 11.4},
        {"ocean", 20.0, 2.2, 1.2, 21.0}, {"os", 21.9, 2.9, -1, -1},
        {"radix", 59.9, 4.8, 18.0, 17.9},
    };
    auto on_off = [&plan](const std::string &app, std::uint32_t cache) {
        MachineConfig with =
            MachineConfig::flash(app == "os" ? 8 : 16, cache);
        MachineConfig without = with;
        without.magic.speculation = false;
        return std::pair{plan.run(app, with), plan.run(app, without)};
    };
    for (Row &row : rows) {
        std::tie(row.on1M, row.off1M) = on_off(row.app, 1u << 20);
        if (row.paperUselessSmall >= 0)
            std::tie(row.onSmall, row.offSmall) = on_off(
                row.app, std::string(row.app) == "ocean" ? 16384u : 4096u);
    }

    return [rows](const Plan &plan) {
        auto useless = [&](Plan::Run on) {
            return 100.0 * plan.summary(on).specUselessFrac;
        };
        auto slowdown = [&](Plan::Run on, Plan::Run off) {
            return pctOver(plan.summary(off).execTime,
                           plan.summary(on).execTime);
        };
        std::printf("Table 5.1: impact of speculative memory "
                    "operations\n\n");
        std::printf("%-8s | %21s | %21s || %21s | %21s\n", "",
                    "useless w/ spec (1MB)", "slowdown w/o (1MB)",
                    "useless w/ spec (4KB)", "slowdown w/o (4KB)");
        std::printf("%-8s | %10s %10s | %10s %10s || %10s %10s | %10s "
                    "%10s\n",
                    "app", "paper", "meas", "paper", "meas", "paper",
                    "meas", "paper", "meas");
        for (const Row &row : rows) {
            std::printf("%-8s | %9.1f%% %9.1f%% | %9.1f%% %9.1f%% ||",
                        row.app, row.paperUseless1M, useless(row.on1M),
                        row.paperSlow1M, slowdown(row.on1M, row.off1M));
            if (row.paperUselessSmall < 0)
                std::printf(" %10s %10s | %10s %10s\n", "N/A", "-", "N/A",
                            "-");
            else
                std::printf(" %9.1f%% %9.1f%% | %9.1f%% %9.1f%%\n",
                            row.paperUselessSmall, useless(row.onSmall),
                            row.paperSlowSmall,
                            slowdown(row.onSmall, row.offSmall));
        }
        std::printf("\n(paper's finding: speculation is always beneficial "
                    "— the issue-early win outweighs useless reads loading "
                    "the memory system, and the benefit grows with small "
                    "caches where more misses are local)\n");
    };
}

// ---- Section 5.2: MAGIC data cache --------------------------------------

/**
 * MDC miss rates over the parallel suite (paper: 0.84% overall, 1.43%
 * read), the pathological uniprocessor radix sort whose scattered
 * writes thrash the MDC (paper: 14.9%, 30% read, 14% slowdown), and the
 * stride argument on the raw MDC model.
 */
Render
sec_5_2(Plan &plan)
{
    std::vector<std::pair<std::string, Plan::Run>> suite;
    for (const std::string &app : apps::parallelAppNames())
        suite.emplace_back(app, plan.run(app, MachineConfig::flash(16)));

    // The paper sorts 16 MB with radix 2048 on one processor; 4 MB of
    // keys thrashes the per-node MDC (directory state for 1 MB of local
    // data) the same way.
    auto radix = [&plan](MachineConfig cfg) {
        return plan.job(660 /* ms, measured */, [cfg] {
            apps::RadixParams rp;
            rp.keys = 1u << 20; // 4 MB of 4-byte keys
            rp.radix = 2048;
            rp.passes = 2;
            apps::Radix w(rp);
            return simulate(cfg, w);
        });
    };
    MachineConfig with = MachineConfig::flash(1);
    MachineConfig without = with;
    without.magic.mdcMissPenalty = 0;
    Plan::Run with_penalty = radix(with);
    Plan::Run no_penalty = radix(without);

    return [=](const Plan &plan) {
        std::printf("Section 5.2: MAGIC data cache behaviour\n\n");
        std::printf("MDC miss rates, parallel applications (paper: 0.84%% "
                    "overall / 1.43%% read):\n");
        double worst = 0;
        for (const auto &[app, id] : suite) {
            const Summary &s = plan.summary(id);
            worst = std::max(worst, 100.0 * s.mdcMissRate);
            std::printf("  %-8s overall %5.2f%%  read %5.2f%%\n",
                        app.c_str(), 100.0 * s.mdcMissRate,
                        100.0 * s.mdcReadMissRate);
        }
        std::printf("  (worst overall: %.2f%%)\n\n", worst);

        std::printf("Pathological uniprocessor radix sort (paper: MDC "
                    "14.9%% overall, 30%% read miss rate, 14%% "
                    "slowdown):\n");
        const Summary &s1 = plan.summary(with_penalty);
        std::printf("  MDC overall %5.2f%%  read %5.2f%%  slowdown vs "
                    "no-penalty machine %.1f%%\n\n",
                    100.0 * s1.mdcMissRate, 100.0 * s1.mdcReadMissRate,
                    pctOver(s1.execTime, plan.summary(no_penalty).execTime));

        std::printf("Stride argument (tag-only MDC model, 64 KB 2-way):\n");
        auto stride_miss = [](Addr stride) {
            magic::MagicCache mdc(64 * 1024, 2, 128);
            for (int i = 0; i < 4096; ++i)
                mdc.access(protocol::headerAddr(static_cast<Addr>(i) *
                                                stride),
                           false);
            return 100.0 * mdc.missRate();
        };
        std::printf("  unit-stride headers: %.1f%% miss (1 of 16 "
                    "expected)\n",
                    stride_miss(kLineSize));
        std::printf("  4 KB-stride headers: %.1f%% miss (~100%% "
                    "expected)\n",
                    stride_miss(4096));
    };
}

// ---- Table 5.2: PP architecture evaluation ------------------------------

/**
 * Static handler code size, then dual-issue efficiency, special
 * instruction use, pairs per handler and handlers per cache miss over
 * the parallel suite at three cache sizes.
 */
Render
table_5_2(Plan &plan)
{
    struct Column
    {
        std::uint32_t bytes;
        std::vector<Plan::Run> runs;
    };
    std::vector<Column> cols = {{1u << 20, {}}, {64u * 1024, {}}, {4096, {}}};
    for (Column &c : cols)
        for (const std::string &app : apps::parallelAppNames())
            c.runs.push_back(plan.run(app, MachineConfig::flash(16, c.bytes)));

    return [cols](const Plan &plan) {
        struct Row
        {
            double dualIssue = 0;
            double specialFrac = 0;
            double pairsPerInv = 0;
            double invPerMiss = 0;
        };
        Row rows[3];
        for (std::size_t i = 0; i < cols.size(); ++i) {
            ppisa::RunStats total;
            std::uint64_t invocations = 0, misses = 0;
            for (Plan::Run id : cols[i].runs) {
                total.accumulate(plan[id].pp);
                const Summary &s = plan.summary(id);
                invocations += s.handlerInvocations;
                misses += s.readMisses + s.writeMisses;
            }
            rows[i].dualIssue = total.dualIssueEfficiency();
            rows[i].specialFrac = 100.0 * total.specialFraction();
            rows[i].pairsPerInv = total.pairsPerInvocation();
            rows[i].invPerMiss = misses ? static_cast<double>(invocations) /
                                              static_cast<double>(misses)
                                        : 0;
        }

        std::printf("Table 5.2: PP architecture evaluation\n\n");
        protocol::HandlerPrograms programs =
            protocol::buildHandlerPrograms();
        std::printf("Static code size of fully-scheduled handlers (with "
                    "NOPs): %.1f KB  (paper: 14.8 KB; MAGIC instruction "
                    "cache: 32 KB)\n",
                    programs.totalCodeBytes() / 1024.0);
        std::printf("(our protocol subset is smaller than the full FLASH "
                    "protocol with all of its corner cases, but like the "
                    "paper's it fits the MIC with only cold misses)\n\n");
        std::printf("%-28s | %12s | %12s | %12s\n", "", "1 MB", "64 KB",
                    "4 KB");
        auto line = [&](const char *name, double Row::*field, double p0,
                        double p1, double p2, const char *fmt) {
            std::printf("%-28s |", name);
            double paper[3] = {p0, p1, p2};
            for (int i = 0; i < 3; ++i) {
                char buf[32];
                std::snprintf(buf, sizeof buf, fmt, rows[i].*field,
                              paper[i]);
                std::printf(" %12s |", buf);
            }
            std::printf("\n");
        };
        line("dual-issue efficiency", &Row::dualIssue, 1.53, 1.54, 1.43,
             "%.2f (%.2f)");
        line("special instruction use %", &Row::specialFrac, 38, 37, 43,
             "%.0f%% (%.0f%%)");
        line("instr pairs per handler", &Row::pairsPerInv, 13.5, 13.1, 10.8,
             "%.1f (%.1f)");
        line("handlers per cache miss", &Row::invPerMiss, 3.69, 3.87, 3.51,
             "%.2f (%.2f)");
        std::printf("\n(format: measured (paper))\n");
    };
}

// ---- Table 5.3 + Section 5.3: the ISA extensions ------------------------

/** Static instruction count of the DLX expansion of one special op. */
int
expansionSize(ppisa::Op op, unsigned lo, unsigned width)
{
    ppc::IrFunction f("probe");
    ppc::Reg d = f.reg();
    ppc::Reg s = f.reg();
    switch (op) {
      case ppisa::Op::Ffs: f.ffs(d, s); break;
      case ppisa::Op::Bbs: {
        ppc::Label l = f.label();
        f.bbs(s, lo, l);
        f.bind(l);
        break;
      }
      case ppisa::Op::Ext: f.ext(d, s, lo, width); break;
      case ppisa::Op::Ins: f.ins(d, s, lo, width); break;
      case ppisa::Op::Orfi: f.orfi(d, s, lo, width); break;
      case ppisa::Op::Andfi: f.andfi(d, s, lo, width); break;
      default: break;
    }
    f.halt();
    ppc::LinearCode code =
        ppc::expandSpecials(ppc::LinearCode::fromFunction(f));
    return static_cast<int>(code.instrs.size()) - 1; // minus halt
}

/**
 * Each special instruction against its DLX substitution (static size,
 * compiled through the ppc backend in baseline mode), then the suite
 * rerun with the protocol compiled without the extensions and for
 * single issue (paper: 40% average degradation, 137% for MP3D).
 */
Render
table_5_3(Plan &plan)
{
    MachineConfig slow_cfg = MachineConfig::flash(16);
    slow_cfg.ppCompile = ppc::CompileOptions{false, false};
    std::vector<std::string> apps = apps::parallelAppNames();
    std::vector<std::pair<Plan::Run, Plan::Run>> runs;
    for (const std::string &app : apps)
        runs.emplace_back(plan.run(app, MachineConfig::flash(16)),
                          plan.run(app, slow_cfg));

    return [apps, runs](const Plan &plan) {
        using ppisa::Op;
        std::printf("Table 5.3: special instructions vs DLX "
                    "substitution\n\n");
        std::printf("%-22s %22s %28s\n", "instr type", "DLX static size",
                    "paper");
        auto row = [](const char *name, int size, const char *paper) {
            std::printf("%-22s %18d instrs %28s\n", name, size, paper);
        };
        row("find first set bit", expansionSize(Op::Ffs, 0, 0),
            "6 (size-opt) / 27 (speed-opt)");
        row("branch on bit (low)", expansionSize(Op::Bbs, 3, 0), "2 or 4");
        row("branch on bit (high)", expansionSize(Op::Bbs, 40, 0),
            "2 or 4");
        row("field extract", expansionSize(Op::Ext, 16, 16), "(2 shifts)");
        row("ALU field imm (small)", expansionSize(Op::Orfi, 0, 8), "1-5");
        row("ALU field imm (large)", expansionSize(Op::Orfi, 32, 16),
            "1-5");
        row("insert field", expansionSize(Op::Ins, 16, 16),
            "two field imms + or");

        protocol::HandlerPrograms opt = protocol::buildHandlerPrograms();
        protocol::HandlerPrograms base =
            protocol::buildHandlerPrograms({false, false});
        std::printf("\nProtocol code: optimized %.1f KB, baseline (no "
                    "specials, single issue) %.1f KB\n\n",
                    opt.totalCodeBytes() / 1024.0,
                    base.totalCodeBytes() / 1024.0);

        std::printf("Section 5.3 ablation: parallel suite with the "
                    "non-optimized PP (no special instructions, single "
                    "issue)\n");
        std::printf("%-8s %12s %12s %10s\n", "app", "optimized",
                    "baseline", "degrade");
        double sum = 0, worst = 0;
        std::string worst_app;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            Tick o = plan.summary(runs[i].first).execTime;
            Tick s = plan.summary(runs[i].second).execTime;
            double deg = pctOver(s, o);
            sum += deg;
            if (deg > worst) {
                worst = deg;
                worst_app = apps[i];
            }
            std::printf("%-8s %12llu %12llu %9.1f%%\n", apps[i].c_str(),
                        static_cast<unsigned long long>(o),
                        static_cast<unsigned long long>(s), deg);
        }
        std::printf("\naverage degradation %.1f%% (paper: 40%%), maximum "
                    "%.1f%% on %s (paper: 137%% on MP3D)\n",
                    sum / apps.size(), worst, worst_app.c_str());
    };
}

// ---- Section 4.4: hot-spot detection and page remapping -----------------

/**
 * Section 4.4's closing suggestion, implemented: FFT with 4 KB caches
 * and all memory on node 0 (the Section 4.3 hot spot) runs once with
 * MAGIC's PP-side page monitoring on; the measured per-page remote
 * traffic then drives a remap that spreads the hot pages round-robin,
 * and the remapped run recovers what the hot spot cost.
 */
Render
migration(Plan &plan)
{
    MachineConfig hot = MachineConfig::flash(16, 4096);
    hot.placement = Placement::Node0;
    MachineConfig monitored_cfg = hot;
    monitored_cfg.magic.monitorPages = true;

    Plan::Run monitored = plan.run("fft", monitored_cfg);
    // Pages with remote traffic are spread round-robin; cold pages stay
    // on node 0. The map needs the monitored run, so this runs second.
    Plan::Run remapped = plan.after(monitored, [hot](const RunResult &mon) {
        std::unordered_map<std::uint64_t, NodeId> remap;
        NodeId next = 0;
        for (const auto &[page, count] : mon.hotPages) {
            remap[page] = next;
            next = (next + 1) % 16;
        }
        MachineConfig cfg = hot;
        cfg.placementHook = [remap](std::uint64_t page) -> NodeId {
            auto it = remap.find(page);
            return it != remap.end() ? it->second : 0;
        };
        auto w = apps::makeWorkload("fft");
        return simulate(cfg, *w);
    });
    Plan::Run hot_plain = plan.run("fft", hot);
    Plan::Run baseline = plan.run("fft", MachineConfig::flash(16, 4096));

    return [=](const Plan &plan) {
        const RunResult &mon = plan[monitored];
        std::printf("Section 4.4: hot-spot detection and page remapping "
                    "via MAGIC's flexibility\n\n");
        std::printf("1. Monitored hot run: %llu cycles, max PP occupancy "
                    "%.1f%%, %zu pages with remote traffic\n",
                    static_cast<unsigned long long>(mon.summary.execTime),
                    100.0 * mon.summary.maxPpOcc, mon.hotPages.size());
        std::printf("   hottest pages:");
        for (std::size_t i = 0;
             i < std::min<std::size_t>(5, mon.hotPages.size()); ++i)
            std::printf(" #%llu(%llu)",
                        static_cast<unsigned long long>(
                            mon.hotPages[i].first),
                        static_cast<unsigned long long>(
                            mon.hotPages[i].second));
        std::printf("\n\n");

        std::printf("2. Results (FFT, 4 KB caches, 16 processors):\n");
        std::printf("   %-34s %10s %8s %8s\n", "configuration", "cycles",
                    "maxPP", "maxMem");
        auto row = [&](const char *label, Plan::Run id) {
            const Summary &s = plan.summary(id);
            std::printf("   %-34s %10llu %7.1f%% %7.1f%%\n", label,
                        static_cast<unsigned long long>(s.execTime),
                        100.0 * s.maxPpOcc, 100.0 * s.maxMemOcc);
        };
        row("all pages on node 0 (hot)", hot_plain);
        row("monitored + remapped", remapped);
        row("round-robin from the start", baseline);

        double hot_t = static_cast<double>(plan.summary(hot_plain).execTime);
        double recovered =
            100.0 *
            (hot_t - static_cast<double>(plan.summary(remapped).execTime)) /
            (hot_t - static_cast<double>(plan.summary(baseline).execTime));
        std::printf("\n   monitoring overhead: %.1f%% of the hot run\n",
                    pctOver(mon.summary.execTime,
                            plan.summary(hot_plain).execTime));
        std::printf("   remapping recovered %.0f%% of the hot-spot "
                    "penalty\n",
                    recovered);
    };
}

// ---- Message passing vs shared memory (no app machines) -----------------

/** End-to-end cycles and PP busy cycles of one buffer handoff. */
struct Handoff
{
    Tick cycles = 0;
    Cycles ppCycles = 0;
};

/**
 * Node 0 writes a @p lines-line buffer; node 1 then either pulls every
 * line through the coherence protocol (@p block false) or receives it
 * by block transfer into its own memory and reads it locally.
 */
Handoff
handoff(int lines, bool block)
{
    Machine m(MachineConfig::flash(2));
    const Addr bytes = static_cast<Addr>(lines) * kLineSize;
    Addr buf = m.alloc(bytes, 0);
    Addr dst = block ? m.alloc(bytes, 1) : buf;
    auto done_at = std::make_shared<Tick>(0);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 0) {
            for (int i = 0; i < lines; ++i)
                co_await env.write(buf + static_cast<Addr>(i) * kLineSize);
            if (block) {
                co_await env.busy(40000);
                co_await env.sendBlock(1, buf,
                                       static_cast<std::uint32_t>(bytes));
            }
        } else {
            if (block)
                co_await env.recvBlock();
            else
                co_await env.busy(40000);
            for (int i = 0; i < lines; ++i)
                co_await env.read(dst + static_cast<Addr>(i) * kLineSize);
            *done_at = env.proc().cursor();
        }
    });
    m.drain();
    Handoff r;
    r.cycles = *done_at - 10000;
    for (int i = 0; i < 2; ++i)
        r.ppCycles += m.node(i).magic().ppOcc.busyCycles();
    return r;
}

/**
 * The "multiple communication protocols" claim (evaluated in the
 * companion [HGD+94] paper): the same MAGIC hands a buffer over by
 * coherent reads or by an uncached block transfer.
 */
void
msgpass(const Plan &)
{
    std::printf("Message passing vs shared memory (producer/consumer "
                "handoff between two nodes)\n\n");
    std::printf("%8s | %22s | %22s | %8s\n", "", "shared memory",
                "block transfer", "");
    std::printf("%8s | %10s %11s | %10s %11s | %8s\n", "buffer", "cycles",
                "MB/s", "cycles", "MB/s", "speedup");
    for (int lines : {32, 128, 512, 2048}) {
        Handoff sm = handoff(lines, false);
        Handoff bt = handoff(lines, true);
        double bytes = static_cast<double>(lines) * kLineSize;
        // 10 ns per cycle -> bytes / (cycles * 10ns) in MB/s.
        auto mbps = [bytes](Tick c) {
            return bytes / (static_cast<double>(c) * 10e-9) / 1e6;
        };
        std::printf("%5d KB | %10llu %11.0f | %10llu %11.0f | %7.2fx\n",
                    lines * 128 / 1024,
                    static_cast<unsigned long long>(sm.cycles),
                    mbps(sm.cycles),
                    static_cast<unsigned long long>(bt.cycles),
                    mbps(bt.cycles),
                    static_cast<double>(sm.cycles) /
                        static_cast<double>(bt.cycles));
    }
    std::printf("\nThe same MAGIC hardware runs both protocols — the "
                "block transfer simply loads different handlers, which "
                "is the entire argument for a programmable node "
                "controller.\n");
}

// ---- Fetch&op vs cached read-modify-write (no app machines) -------------

/** A counter at node 0 incremented 32 times by every processor. */
Tick
hotCounter(int procs, bool use_fetchop, Counter &nacks)
{
    Machine m(MachineConfig::flash(procs));
    Addr a = m.alloc(kLineSize, 0);
    Tick t = m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int i = 0; i < 32; ++i) {
            if (use_fetchop) {
                co_await env.fetchOp(a);
            } else {
                co_await env.read(a);
                co_await env.write(a);
            }
            co_await env.busy(64);
        }
    });
    nacks = 0;
    for (int i = 0; i < procs; ++i)
        nacks += m.node(i).magic().nacksSent;
    return t;
}

/** 16 combining-tree barrier episodes. */
Tick
barrierStorm(int procs, bool use_fetchop)
{
    Machine m(MachineConfig::flash(procs));
    auto bar = std::make_shared<tango::BarrierVar>(m.makeBarrier());
    bar->useFetchOp = use_fetchop;
    return m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 16; ++round) {
            co_await env.busy(200);
            co_await env.barrier(*bar);
        }
    });
}

/**
 * MAGIC performs fetch&op at the home memory: one round trip per
 * operation and no coherence traffic, where a cached read-modify-write
 * ping-pongs ownership and NACK-retries through transient states.
 */
void
fetchop(const Plan &)
{
    std::printf("Fetch&op at the home memory vs cached "
                "read-modify-write\n\n");
    std::printf("Hot counter, 32 increments per processor:\n");
    std::printf("%6s | %12s %8s | %12s %8s | %8s\n", "procs", "cached",
                "NACKs", "fetch&op", "NACKs", "speedup");
    for (int procs : {4, 8, 16, 32}) {
        Counter n_cached = 0, n_fop = 0;
        Tick cached = hotCounter(procs, false, n_cached);
        Tick fop = hotCounter(procs, true, n_fop);
        std::printf("%6d | %12llu %8llu | %12llu %8llu | %7.2fx\n", procs,
                    static_cast<unsigned long long>(cached),
                    static_cast<unsigned long long>(n_cached),
                    static_cast<unsigned long long>(fop),
                    static_cast<unsigned long long>(n_fop),
                    static_cast<double>(cached) / static_cast<double>(fop));
    }

    std::printf("\nCombining-tree barrier, 16 episodes:\n");
    std::printf("%6s | %12s | %12s | %8s\n", "procs", "cached arrivals",
                "fetch&op", "speedup");
    for (int procs : {16, 64}) {
        Tick cached = barrierStorm(procs, false);
        Tick fop = barrierStorm(procs, true);
        std::printf("%6d | %12llu | %12llu | %7.2fx\n", procs,
                    static_cast<unsigned long long>(cached),
                    static_cast<unsigned long long>(fop),
                    static_cast<double>(cached) / static_cast<double>(fop));
    }
    std::printf("\n(the fetch&op handlers are ordinary PP programs — "
                "loading them is the flexibility the paper is "
                "pricing)\n");
}

// ---- Design ablations beyond the paper ----------------------------------

/**
 * MDC size and miss penalty (OS workload), fixed-average vs
 * distance-based network transit (FFT), NACK retry backoff (MP3D) and
 * the handler timing source, PPsim vs the Table 3.4 constants (FFT).
 */
Render
ablations(Plan &plan)
{
    std::vector<std::pair<unsigned long long, Plan::Run>> mdc, pen, backoff;
    for (std::uint32_t kb : {16u, 32u, 64u, 128u}) {
        MachineConfig cfg = MachineConfig::flash(8);
        cfg.magic.mdcBytes = kb * 1024;
        mdc.emplace_back(kb, plan.run("os", cfg));
    }
    for (Cycles penalty : {Cycles{0}, Cycles{29}, Cycles{60}}) {
        MachineConfig cfg = MachineConfig::flash(8);
        cfg.magic.mdcMissPenalty = penalty;
        pen.emplace_back(penalty, plan.run("os", cfg));
    }
    MachineConfig dist_cfg = MachineConfig::flash(16);
    dist_cfg.net.distanceBased = true;
    Plan::Run net_avg = plan.run("fft", MachineConfig::flash(16));
    Plan::Run net_dist = plan.run("fft", dist_cfg);
    for (Cycles base : {Cycles{4}, Cycles{16}, Cycles{64}}) {
        MachineConfig cfg = MachineConfig::flash(16);
        cfg.magic.nackRetryBackoff = base;
        backoff.emplace_back(base, plan.run("mp3d", cfg));
    }
    MachineConfig table_cfg = MachineConfig::flash(16);
    table_cfg.magic.usePpEmulator = false;
    Plan::Run timing_emu = plan.run("fft", MachineConfig::flash(16));
    Plan::Run timing_table = plan.run("fft", table_cfg);

    return [=](const Plan &plan) {
        auto cycles = [&](Plan::Run id) {
            return static_cast<unsigned long long>(
                plan.summary(id).execTime);
        };
        std::printf("FlashSim design ablations\n"
                    "=========================\n\n");
        std::printf("1. MAGIC data cache size (OS workload, FLASH):\n");
        for (const auto &[kb, id] : mdc)
            std::printf("   %4llu KB MDC: %9llu cycles\n", kb, cycles(id));

        std::printf("\n2. MDC miss penalty (OS workload, 64 KB MDC; paper "
                    "charges 29 cycles):\n");
        for (const auto &[p, id] : pen)
            std::printf("   penalty %2llu: %9llu cycles\n", p, cycles(id));

        std::printf("\n3. Network transit model (FFT, FLASH):\n");
        std::printf("   fixed 22-cycle average: %9llu cycles\n",
                    cycles(net_avg));
        std::printf("   per-pair mesh distance: %9llu cycles\n",
                    cycles(net_dist));

        std::printf("\n4. NACK retry base backoff (MP3D, FLASH; retries "
                    "double per consecutive NACK from this base):\n");
        for (const auto &[b, id] : backoff)
            std::printf("   base %2llu: %9llu cycles, %llu NACKs\n", b,
                        cycles(id),
                        static_cast<unsigned long long>(
                            plan.summary(id).nacksSent));

        std::printf("\n5. Handler timing source (FFT, FLASH):\n");
        std::printf("   PPsim-executed handlers: %9llu cycles\n",
                    cycles(timing_emu));
        std::printf("   Table 3.4 constants:     %9llu cycles "
                    "(%.1f%% apart)\n",
                    cycles(timing_table),
                    pctOver(plan.summary(timing_emu).execTime,
                            plan.summary(timing_table).execTime));
        std::printf("\nDone.\n");
    };
}

// ---- Driver --------------------------------------------------------------

struct Section
{
    const char *name;
    std::function<Render(Plan &)> collect;
};

int
usage(const std::vector<Section> &sections)
{
    std::fprintf(stderr, "usage: bench_paper [--paper] [section...]\n"
                         "sections (default all):");
    for (const Section &s : sections)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n--paper runs fig_4_1 at the paper's problem "
                         "sizes\n");
    return 1;
}

} // namespace
} // namespace flashsim::bench

int
main(int argc, char **argv)
{
    using namespace flashsim::bench;
    Scale fig41_scale = Scale::Default;
    // table_3_4, msgpass and fetchop build no app machines: they run
    // entirely at render time.
    const std::vector<Section> sections = {
        {"table_3_3", table_3_3},
        {"table_3_4", [](Plan &) -> Render { return table_3_4; }},
        {"fig_4_1",
         [&fig41_scale](Plan &p) { return fig_4_1(p, fig41_scale); }},
        {"fig_4_2", fig_4_2},
        {"fig_4_3", fig_4_3},
        {"sec_4_3", sec_4_3},
        {"sec_4_5", sec_4_5},
        {"table_5_1", table_5_1},
        {"sec_5_2", sec_5_2},
        {"table_5_2", table_5_2},
        {"table_5_3", table_5_3},
        {"migration", migration},
        {"msgpass", [](Plan &) -> Render { return msgpass; }},
        {"fetchop", [](Plan &) -> Render { return fetchop; }},
        {"ablations", ablations},
    };

    std::vector<const Section *> chosen;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--paper") == 0) {
            fig41_scale = Scale::Paper;
            continue;
        }
        auto it = std::find_if(sections.begin(), sections.end(),
                               [&](const Section &s) {
                                   return std::strcmp(s.name, argv[i]) == 0;
                               });
        if (it == sections.end())
            return usage(sections);
        chosen.push_back(&*it);
    }
    if (chosen.empty())
        for (const Section &s : sections)
            chosen.push_back(&s);

    Plan plan;
    std::vector<Render> renders;
    for (const Section *s : chosen)
        renders.push_back(s->collect(plan));
    plan.execute();
    for (const Render &render : renders)
        render(plan);
    return 0;
}
