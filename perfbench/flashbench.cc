/**
 * @file
 * flashbench: the measuring half of the end-to-end FlashSim benchmark.
 *
 * Runs one benchmark workload -- a fixed list of machine configurations
 * -- through the public API (protocol::buildHandlerPrograms and
 * sharedHandlerPrograms, Machine::Machine, Workload::setup,
 * Machine::run, Machine::drain, summarize, Machine::stateDigest), one
 * machine at a time on one thread: the next machine is built only after
 * the previous one has drained and been destroyed. Every raw
 * measurement goes to stdout as one JSON document; run.py aggregates it,
 * checks the simulated outputs and prints the metrics.
 *
 *   flashbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A run repeats the whole workload ("passes") until the budget is spent.
 * Before each pass it repeats the set-up phase alone (handler-program
 * build, machine construction, workload set-up) kSetupRounds times; set-up
 * time is taken from these rounds only. With --trace 1 the set-up rounds
 * and every other pass record spans (name, start, end, parent, run id)
 * around the public calls, kept in memory and printed at the end; the
 * untraced passes in between measure the tracing overhead.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/barnes.hh"
#include "apps/mp3d.hh"
#include "apps/os_workload.hh"
#include "apps/radix.hh"
#include "apps/workload.hh"
#include "machine/machine.hh"
#include "machine/report.hh"
#include "protocol/pp_programs.hh"
#include "sim/sweep.hh"

using namespace flashsim;

namespace
{

using Clock = std::chrono::steady_clock;

// -- Workloads -----------------------------------------------------------

/** One machine of a benchmark workload. */
struct MachineSpec
{
    std::string label; ///< "<app>/<flash|ideal>"
    std::string app;
    machine::MachineConfig cfg;
};

/** MP3D at the paper's particle count, cut to one time step: about a
 *  quarter of a second of host time per machine run. Other tenants of
 *  a shared host leave short quiet gaps even in busy stretches, and the
 *  shorter the run, the more often its fastest pass falls in one. */
constexpr int kMp3dSteps = 1;

/**
 * The application of one machine. The seeded apps mix @p seed into
 * their own default seed (seed 0 is the stock input); fft, lu and ocean
 * have no random input and ignore it.
 */
std::unique_ptr<apps::Workload>
makeApp(const std::string &workload, const std::string &app,
        std::uint64_t seed)
{
    const std::uint64_t mix = seed * 0x9e3779b97f4a7c15ull;
    if (app == "mp3d") {
        apps::Mp3dParams p;
        if (workload == "mp3d_migratory") {
            p = apps::Mp3dParams::paper();
            p.steps = kMp3dSteps;
        }
        p.seed += mix;
        return std::make_unique<apps::Mp3d>(p);
    }
    if (app == "radix") {
        apps::RadixParams p;
        p.seed += mix;
        return std::make_unique<apps::Radix>(p);
    }
    if (app == "barnes") {
        apps::BarnesParams p;
        p.seed += mix;
        return std::make_unique<apps::Barnes>(p);
    }
    if (app == "os") {
        apps::OsParams p;
        p.seed += mix;
        return std::make_unique<apps::OsWorkload>(p);
    }
    return apps::makeWorkload(app);
}

/** The machines of a benchmark workload, in run order; empty if the
 *  name is unknown. */
std::vector<MachineSpec>
workloadMachines(const std::string &name)
{
    using machine::MachineConfig;
    if (name == "mp3d_migratory")
        return {{"mp3d/flash", "mp3d", MachineConfig::flash(16, 1u << 20)}};
    if (name == "radix_writeback")
        return {
            {"radix/flash", "radix", MachineConfig::flash(16, 64u << 10)}};
    if (name == "barnes_compute")
        return {
            {"barnes/flash", "barnes", MachineConfig::flash(16, 1u << 20)}};
    if (name == "paper_suite") {
        // Figure 4.1: every workload on FLASH and on the ideal machine.
        std::vector<MachineSpec> specs;
        for (const std::string &app : apps::allWorkloadNames()) {
            const int procs = app == "os" ? 8 : 16;
            specs.push_back({app + "/flash", app,
                             MachineConfig::flash(procs, 1u << 20)});
            specs.push_back({app + "/ideal", app,
                             MachineConfig::ideal(procs, 1u << 20)});
        }
        return specs;
    }
    return {};
}

// -- Spans -----------------------------------------------------------------

/** One timed interval; times are seconds since the tracer started. */
struct Span
{
    const char *name;
    double start;
    double end;
    int parent; ///< index into the span list, -1 for a root
    int run;    ///< machine run the span belongs to, -1 for none
};

/**
 * Times phases with steady_clock. Every phase is timed; spans are kept
 * only while tracing is on, so traced and untraced passes run the same
 * code apart from the span list.
 */
class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) { spans_.reserve(4096); }

    void setTracing(bool on) { on_ = on; }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    /** Open a span; returns its index (-1 while not tracing). */
    int
    open(const char *name, int parent, int run)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, now(), 0.0, parent, run});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end = now();
    }

    /** Run @p f inside span @p name; returns its duration in seconds. */
    template <typename F>
    double
    timed(const char *name, int parent, int run, F &&f)
    {
        const int id = open(name, parent, run);
        const Clock::time_point a = Clock::now();
        f();
        const Clock::time_point b = Clock::now();
        close(id);
        return std::chrono::duration<double>(b - a).count();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point t0_;
    bool on_ = false;
    std::vector<Span> spans_;
};

// -- JSON output -------------------------------------------------------------

/** Minimal JSON writer to stdout; keys and strings are plain ASCII. */
class Json
{
  public:
    void
    key(const char *k)
    {
        sep();
        std::printf("\"%s\":", k);
        first_ = true;
    }
    void
    open(char c)
    {
        sep();
        std::putchar(c);
        first_ = true;
    }
    void
    close(char c)
    {
        std::putchar(c);
        first_ = false;
    }
    void
    value(double v)
    {
        sep();
        std::printf("%.17g", v);
    }
    void
    value(std::uint64_t v)
    {
        sep();
        std::printf("%" PRIu64, v);
    }
    void
    value(int v)
    {
        sep();
        std::printf("%d", v);
    }
    void
    value(bool v)
    {
        sep();
        std::fputs(v ? "true" : "false", stdout);
    }
    void
    value(const char *s)
    {
        sep();
        std::printf("\"%s\"", s);
    }
    void value(const std::string &s) { value(s.c_str()); }

    template <typename T>
    void
    field(const char *k, const T &v)
    {
        key(k);
        value(v);
    }

    void
    array(const char *k, const std::vector<double> &v)
    {
        key(k);
        open('[');
        for (double x : v)
            value(x);
        close(']');
    }

  private:
    void
    sep()
    {
        if (!first_)
            std::putchar(',');
        first_ = false;
    }

    bool first_ = true;
};

// -- Simulated outputs ---------------------------------------------------

/**
 * Every simulated quantity the benchmark pins, as exact integers summed
 * (or, for *_max_*, maxed) over the machine's nodes. run.py forms the
 * ratios.
 */
using SimCounts = std::vector<std::pair<const char *, std::uint64_t>>;

SimCounts
collectSim(const machine::Machine &m, const machine::Summary &s)
{
    std::uint64_t bd[5] = {};
    std::uint64_t cpu_wb = 0, hints = 0, invals = 0, nack_retries = 0;
    std::uint64_t lat_count = 0, lat_sum = 0;
    std::uint64_t msgs_in = 0, qstall = 0, spec_useless = 0;
    std::uint64_t pp_busy = 0, pp_busy_max = 0;
    std::uint64_t mdc_reads = 0, mdc_rmiss = 0, mdc_writes = 0;
    std::uint64_t mdc_wmiss = 0, mdc_wb = 0;
    std::uint64_t mem_reads = 0, mem_writes = 0, mem_busy = 0;
    ppisa::RunStats pp;
    for (int i = 0; i < m.numProcs(); ++i) {
        const machine::Node &n = m.node(i);
        const cpu::Processor::Breakdown &b = n.proc().breakdown();
        bd[0] += b.busy;
        bd[1] += b.cont;
        bd[2] += b.read;
        bd[3] += b.write;
        bd[4] += b.sync;
        const cpu::Cache &c = n.cache();
        cpu_wb += c.writebacks;
        hints += c.replaceHints;
        invals += c.invalsReceived;
        nack_retries += c.nackRetries;
        lat_count += c.missLatency.count();
        // Latencies are whole cycles, so the double sum is exact.
        lat_sum += static_cast<std::uint64_t>(c.missLatency.sum());
        const magic::Magic &mg = n.magic();
        msgs_in += mg.msgsIn;
        qstall += mg.queueStallCycles;
        spec_useless += mg.specUseless;
        pp_busy += mg.ppOcc.busyCycles();
        pp_busy_max = std::max<std::uint64_t>(pp_busy_max,
                                              mg.ppOcc.busyCycles());
        mem_reads += mg.memory().reads;
        mem_writes += mg.memory().writes;
        mem_busy += mg.memory().occ.busyCycles();
        if (const magic::PpTimingModel *pm = mg.ppModel()) {
            pp.accumulate(pm->runStats());
            mdc_reads += pm->mdc().reads;
            mdc_rmiss += pm->mdc().readMisses;
            mdc_writes += pm->mdc().writes;
            mdc_wmiss += pm->mdc().writeMisses;
            mdc_wb += pm->mdc().writebacks;
        }
    }
    return {
        {"exec_time", s.execTime},
        {"state_digest", m.stateDigest()},
        {"nodes", static_cast<std::uint64_t>(m.numProcs())},
        {"cache_reads", s.cacheReads},
        {"cache_writes", s.cacheWrites},
        {"background_refs", s.backgroundRefs},
        {"read_misses", s.readMisses},
        {"write_misses", s.writeMisses},
        {"cpu_writebacks", cpu_wb},
        {"replace_hints", hints},
        {"invals_received", invals},
        {"nack_retries", nack_retries},
        {"miss_latency_count", lat_count},
        {"miss_latency_sum", lat_sum},
        {"busy_cycles", bd[0]},
        {"cont_cycles", bd[1]},
        {"read_cycles", bd[2]},
        {"write_cycles", bd[3]},
        {"sync_cycles", bd[4]},
        {"msgs_in", msgs_in},
        {"handler_invocations", s.handlerInvocations},
        {"queue_stall_cycles", qstall},
        {"nacks_sent", s.nacksSent},
        {"spec_issued", s.specIssued},
        {"spec_useless", spec_useless},
        {"pp_busy_cycles", pp_busy},
        {"pp_busy_max_cycles", pp_busy_max},
        {"pp_instrs", pp.instrs},
        {"pp_pairs", pp.pairs},
        {"pp_cycles", pp.cycles},
        {"pp_mem_stall_cycles", pp.memStall},
        {"mdc_reads", mdc_reads},
        {"mdc_read_misses", mdc_rmiss},
        {"mdc_writes", mdc_writes},
        {"mdc_write_misses", mdc_wmiss},
        {"mdc_writebacks", mdc_wb},
        {"mem_reads", mem_reads},
        {"mem_writes", mem_writes},
        {"mem_protocol_accesses", s.mdcProtocolMemOps},
        {"mem_busy_cycles", mem_busy},
        {"net_messages", m.network().messages()},
        {"net_data_messages", m.network().dataMessages()},
        {"degraded_txns", s.degradedTxns},
    };
}

/** Radix output check: the result holds exactly the input keys, sorted
 *  on the digits the run sorted (passes x log2(radix) low bits). */
bool
radixSorted(const apps::Radix &r, std::vector<std::uint32_t> input)
{
    std::vector<std::uint32_t> out = r.result();
    int bits = 0;
    for (int x = r.radix(); x > 1; x >>= 1)
        ++bits;
    bits *= r.passes();
    const std::uint32_t mask =
        bits >= 32 ? ~0u : (std::uint32_t{1} << bits) - 1;
    for (std::size_t i = 1; i < out.size(); ++i)
        if ((out[i - 1] & mask) > (out[i] & mask))
            return false;
    std::sort(input.begin(), input.end());
    std::sort(out.begin(), out.end());
    return input == out;
}

// -- The run ---------------------------------------------------------------

/** Set-up rounds run before each pass. */
constexpr int kSetupRounds = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    if (argc % 2 != 1)
        return false;
    for (int i = 1; i < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            o.workload = v;
            continue;
        }
        if (k == "--seed")
            o.seed = std::strtoull(v, &end, 10);
        else if (k == "--seconds")
            o.seconds = std::strtod(v, &end);
        else if (k == "--trace")
            o.trace = std::strtol(v, &end, 10) != 0;
        else
            return false;
        if (end == v || *end != '\0')
            return false;
    }
    return !o.workload.empty() && o.seconds > 0;
}

/** Host times (seconds) of one set-up round over the machines. */
struct SetupTimes
{
    double programs = 0;
    std::vector<double> construct, setup;
};

/** Host times (seconds) and simulated outputs of one pass. */
struct PassTimes
{
    bool traced = false;
    std::vector<double> run, drain, check;
    std::vector<SimCounts> sim;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return (v[(n - 1) / 2] + v[n / 2]) / 2;
}

const char *
sanitizerName()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "none";
#endif
}

void
printSetupRounds(Json &j, const std::vector<SetupTimes> &v)
{
    j.key("setup_rounds");
    j.open('[');
    for (const SetupTimes &st : v) {
        j.open('{');
        j.field("programs", st.programs);
        j.array("construct", st.construct);
        j.array("setup", st.setup);
        j.close('}');
    }
    j.close(']');
}

void
printPasses(Json &j, const std::vector<PassTimes> &v)
{
    j.key("passes");
    j.open('[');
    for (const PassTimes &pt : v) {
        j.open('{');
        j.field("traced", pt.traced);
        j.array("run", pt.run);
        j.array("drain", pt.drain);
        j.array("check", pt.check);
        j.key("sim");
        j.open('[');
        for (const SimCounts &sc : pt.sim) {
            j.open('{');
            for (const auto &[name, value] : sc)
                j.field(name, value);
            j.close('}');
        }
        j.close(']');
        j.close('}');
    }
    j.close(']');
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1\n",
                     argv[0]);
        return 2;
    }
    const std::vector<MachineSpec> specs = workloadMachines(opt.workload);
    if (specs.empty()) {
        std::fprintf(stderr, "flashbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const ppc::CompileOptions &compile = specs[0].cfg.ppCompile;
    Tracer tr;
    int run_id = 0;
    int shards = 0;

    // Fill the process-wide program cache the way any process does
    // before its first machine, so machine construction always sees it
    // warm; the set-up rounds time the cold build explicitly.
    (void)protocol::sharedHandlerPrograms(compile);

    // A set-up round builds the handler programs as a fresh process
    // would, then constructs and sets up every machine of the workload.
    std::vector<SetupTimes> rounds;
    auto setupRound = [&] {
        SetupTimes st;
        tr.setTracing(opt.trace);
        const int round = tr.open("setup_round", -1, -1);
        st.programs = tr.timed("protocol.programs", round, -1, [&] {
            const protocol::HandlerPrograms progs =
                protocol::buildHandlerPrograms(compile);
            for (const ppisa::Program *p : progs.all())
                (void)p->decoded();
        });
        for (const MachineSpec &ms : specs) {
            const int run = run_id++;
            std::unique_ptr<apps::Workload> w =
                makeApp(opt.workload, ms.app, opt.seed);
            std::unique_ptr<machine::Machine> m;
            st.construct.push_back(
                tr.timed("machine.construct", round, run, [&] {
                    m = std::make_unique<machine::Machine>(ms.cfg);
                }));
            st.setup.push_back(tr.timed("apps.setup", round, run,
                                        [&] { w->setup(*m); }));
        }
        tr.close(round);
        rounds.push_back(std::move(st));
    };

    // Measured passes over the whole workload, one machine at a time,
    // until the budget is spent: at least three (with tracing, at least
    // two traced and two untraced, alternating). Set-up rounds run
    // between passes, so both sample the same stretch of host time.
    std::vector<PassTimes> passes;
    std::vector<double> pass_wall;
    const std::size_t min_passes = opt.trace ? 4 : 3;
    const double t_passes = tr.now();
    bool radix_ok = true;
    for (;;) {
        const std::size_t n = passes.size();
        if (n >= min_passes &&
            tr.now() - t_passes + median(pass_wall) > opt.seconds)
            break;
        for (int r = 0; r < kSetupRounds; ++r)
            setupRound();
        PassTimes pt;
        pt.traced = opt.trace && n % 2 == 1;
        tr.setTracing(pt.traced);
        const double t0 = tr.now();
        const int pass = tr.open("pass", -1, -1);
        for (const MachineSpec &ms : specs) {
            const int run = run_id++;
            const int top = tr.open("machine", pass, run);
            std::unique_ptr<apps::Workload> w =
                makeApp(opt.workload, ms.app, opt.seed);
            auto m = std::make_unique<machine::Machine>(ms.cfg);
            w->setup(*m);
            auto *radix = dynamic_cast<apps::Radix *>(w.get());
            std::vector<std::uint32_t> radix_in;
            if (radix)
                radix_in = radix->result(); // still the unsorted input
            pt.run.push_back(tr.timed("machine.run", top, run,
                                      [&] { m->run(w->body()); }));
            pt.drain.push_back(
                tr.timed("machine.drain", top, run, [&] { m->drain(); }));
            SimCounts sim;
            pt.check.push_back(tr.timed("machine.check", top, run, [&] {
                sim = collectSim(*m, machine::summarize(*m));
            }));
            if (radix)
                radix_ok = radixSorted(*radix, std::move(radix_in)) &&
                           radix_ok;
            shards = m->shards();
            pt.sim.push_back(std::move(sim));
            m.reset();
            tr.close(top);
        }
        tr.close(pass);
        pass_wall.push_back(tr.now() - t0);
        passes.push_back(std::move(pt));
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    Json j;
    j.open('{');
    j.field("workload", opt.workload);
    j.field("seed", opt.seed);
    j.field("trace", opt.trace);
    j.key("stamp");
    j.open('{');
    j.field("nproc", static_cast<int>(std::thread::hardware_concurrency()));
    j.field("build_type", FLASHBENCH_BUILD_TYPE);
    j.field("compiler", FLASHBENCH_COMPILER);
#ifdef NDEBUG
    j.field("assertions", false);
#else
    j.field("assertions", true);
#endif
    j.field("sanitizer", sanitizerName());
    j.field("jobs", sim::resolveWorkers());
    j.field("shards", shards);
    j.close('}');
    j.field("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
    j.field("radix_sorted", radix_ok);
    j.key("machines");
    j.open('[');
    for (const MachineSpec &ms : specs)
        j.value(ms.label);
    j.close(']');
    printSetupRounds(j, rounds);
    printPasses(j, passes);
    j.key("spans");
    j.open('[');
    for (const Span &s : tr.spans()) {
        j.open('{');
        j.field("name", s.name);
        j.field("start", s.start);
        j.field("end", s.end);
        j.field("parent", s.parent);
        j.field("run", s.run);
        j.close('}');
    }
    j.close(']');
    j.close('}');
    std::putchar('\n');
    return std::fflush(stdout) == 0 ? 0 : 1;
}
