/**
 * @file
 * Command-line driver: run any workload on any machine configuration
 * and print the full report. The flags mirror the paper's experimental
 * axes (machine type, processor count, cache size, page placement,
 * speculation, PP toolchain, problem scale).
 *
 *   flashsim_cli --app fft --procs 16 --cache 64K --machine flash
 *   flashsim_cli --app os --procs 8 --placement firstfit
 *   flashsim_cli --app mp3d --no-spec --table-timing
 *
 * The verification layer (src/verify) is driven by --verify and the
 * --inject-* flags:
 *
 *   flashsim_cli --app fft --verify
 *   flashsim_cli --app lu --verify --inject-seed 7 \
 *       --inject-nacks 0.05 --inject-jitter 20 --inject-drop-hints 0.1
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "apps/workload.hh"
#include "machine/report.hh"
#include "parse_count.hh"

using namespace flashsim;
using namespace flashsim::machine;

namespace
{

/** Parse all of @p s as a probability in [0, 1]. */
bool
parseProbability(const char *s, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !(v >= 0.0 && v <= 1.0))
        return false;
    out = v;
    return true;
}

/** Parse all of @p s as a byte count with an optional K or M suffix. */
bool
parseSize(const char *s, std::uint32_t &out)
{
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s)
        return false;
    if (*end == 'K' || *end == 'k') {
        v *= 1024;
        ++end;
    } else if (*end == 'M' || *end == 'm') {
        v *= 1024 * 1024;
        ++end;
    }
    if (*end != '\0' || !(v >= 1.0 && v <= UINT32_MAX) ||
        v != std::floor(v))
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

void
usage()
{
    std::printf(
        "usage: flashsim_cli [options]\n"
        "  --app NAME        fft|lu|ocean|radix|barnes|mp3d|os "
        "(default fft)\n"
        "  --machine M       flash|ideal (default flash)\n"
        "  --procs N         processor count, 1..32768 (default 16;\n"
        "                    os wants 8; lu needs a perfect square,\n"
        "                    ocean a power of 4)\n"
        "  --cache SIZE      power of two >= 256, e.g. 1M, 64K, 4096\n"
        "                    (default 1M)\n"
        "  --placement P     rr|firstfit|node0 (default rr)\n"
        "  --paper           paper problem sizes (Table 3.5)\n"
        "  --no-spec         disable speculative memory operations\n"
        "  --table-timing    Table 3.4 constants instead of PPsim\n"
        "  --baseline-pp     no ISA extensions, single issue (S5.3)\n"
        "  --distance-net    per-pair mesh distances instead of the\n"
        "                    22-cycle average\n"
        "verification (src/verify):\n"
        "  --verify          enable the coherence oracle and replay\n"
        "                    every PP handler run through the\n"
        "                    reference interpreter\n"
        "  --halt-on-violation   fatal() on the first oracle violation\n"
        "fault injection (deterministic seeded perturbation; on while\n"
        "any class below is nonzero):\n"
        "  --inject-seed N       injector RNG seed (default 1; alone it\n"
        "                        injects nothing)\n"
        "  --inject-jitter N     max extra mesh transit cycles\n"
        "                        (<= 4294967295)\n"
        "  --inject-nacks P      P(NACK a home request outright),\n"
        "                        in [0, 1): at 1 no request is served\n"
        "  --inject-drop-hints P P(drop a replacement hint)\n"
        "  --inject-dup-hints P  P(duplicate a replacement hint)\n"
        "  --inject-stall N      max extra inbound-queue stall cycles\n"
        "                        (<= 4294967295)\n"
        "values: N is a whole number, P a probability in [0, 1]\n"
        "exit codes: 0 ok, 1 usage, 2 oracle violation; a PP engine\n"
        "divergence (--verify) or a hang (a miss wedged or no\n"
        "progress, checked with or without --verify) aborts (SIGABRT,\n"
        "exit 134) after printing the post-mortem\n");
}

/** Reject a bad command line: usage text, exit 1. */
[[noreturn]] void
reject()
{
    usage();
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app = "fft";
    MachineConfig cfg = MachineConfig::flash(16);
    bool ideal = false;
    apps::Scale scale = apps::Scale::Default;

    constexpr std::uint64_t kMaxU64 =
        std::numeric_limits<std::uint64_t>::max();
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                reject();
            return argv[++i];
        };
        auto nextCount = [&](std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t v = 0;
            if (!parseCount(next(), lo, hi, v))
                reject();
            return v;
        };
        auto nextProbability = [&]() {
            double p = 0.0;
            if (!parseProbability(next(), p))
                reject();
            return p;
        };
        if (!std::strcmp(argv[i], "--help")) {
            usage();
            return 0;
        } else if (!std::strcmp(argv[i], "--app")) {
            app = next();
            const auto names = apps::allWorkloadNames();
            if (std::find(names.begin(), names.end(), app) == names.end())
                reject();
        } else if (!std::strcmp(argv[i], "--machine")) {
            const std::string mach = next();
            if (mach != "flash" && mach != "ideal")
                reject();
            ideal = mach == "ideal";
        } else if (!std::strcmp(argv[i], "--procs")) {
            cfg.numProcs = static_cast<int>(
                nextCount(1, EventQueue::kMaxNetNodes));
        } else if (!std::strcmp(argv[i], "--cache")) {
            // The cache needs a power-of-two size holding at least one
            // full set.
            std::uint32_t bytes = 0;
            if (!parseSize(next(), bytes) || (bytes & (bytes - 1)) != 0 ||
                bytes < cpu::kCacheAssoc * kLineSize)
                reject();
            cfg.cache.sizeBytes = bytes;
        } else if (!std::strcmp(argv[i], "--placement")) {
            const std::string p = next();
            if (p == "rr") {
                cfg.placement = Placement::RoundRobinPages;
            } else if (p == "firstfit") {
                cfg.placement = Placement::FirstFit;
            } else if (p == "node0") {
                cfg.placement = Placement::Node0;
            } else {
                reject();
            }
        } else if (!std::strcmp(argv[i], "--paper")) {
            scale = apps::Scale::Paper;
        } else if (!std::strcmp(argv[i], "--no-spec")) {
            cfg.magic.speculation = false;
        } else if (!std::strcmp(argv[i], "--table-timing")) {
            cfg.magic.usePpEmulator = false;
        } else if (!std::strcmp(argv[i], "--baseline-pp")) {
            cfg.ppCompile = ppc::CompileOptions{false, false};
        } else if (!std::strcmp(argv[i], "--distance-net")) {
            cfg.net.distanceBased = true;
        } else if (!std::strcmp(argv[i], "--verify")) {
            cfg.verify.check = true;
        } else if (!std::strcmp(argv[i], "--halt-on-violation")) {
            cfg.verify.haltOnViolation = true;
        } else if (!std::strcmp(argv[i], "--inject-seed")) {
            cfg.verify.fault.seed = nextCount(0, kMaxU64);
        } else if (!std::strcmp(argv[i], "--inject-jitter")) {
            cfg.verify.fault.meshJitter =
                nextCount(0, verify::kMaxPerturbCycles);
        } else if (!std::strcmp(argv[i], "--inject-nacks")) {
            cfg.verify.fault.extraNackProb = nextProbability();
            if (cfg.verify.fault.extraNackProb >= 1.0)
                reject(); // every home request NACKed: never finishes
        } else if (!std::strcmp(argv[i], "--inject-drop-hints")) {
            cfg.verify.fault.dropHintProb = nextProbability();
        } else if (!std::strcmp(argv[i], "--inject-dup-hints")) {
            cfg.verify.fault.dupHintProb = nextProbability();
        } else if (!std::strcmp(argv[i], "--inject-stall")) {
            cfg.verify.fault.inboundStall =
                nextCount(0, verify::kMaxPerturbCycles);
        } else {
            reject();
        }
    }
    if (ideal) {
        cfg.magic.ideal = true;
        cfg.magic.usePpEmulator = false;
    }
    auto w = apps::makeWorkload(app, scale);
    if (!w->acceptsProcs(cfg.numProcs))
        reject();
    std::printf("running %s on %s, %d procs, %u KB caches...\n",
                app.c_str(), ideal ? "ideal" : "FLASH", cfg.numProcs,
                cfg.cache.sizeBytes / 1024);
    auto m = apps::runWorkload(cfg, *w);
    Summary s = summarize(*m);

    std::printf("\nexecution time: %llu cycles (%.2f ms at 100 MHz)\n",
                static_cast<unsigned long long>(s.execTime),
                static_cast<double>(s.execTime) / 100000.0);
    std::printf("breakdown: busy %.1f%%  cont %.1f%%  read %.1f%%  "
                "write %.1f%%  sync %.1f%%\n", 100 * s.busy,
                100 * s.cont, 100 * s.read, 100 * s.write, 100 * s.sync);
    std::printf("miss rate: %.2f%%  (reads %llu, writes %llu, misses "
                "%llu)\n", 100 * s.missRate,
                static_cast<unsigned long long>(s.cacheReads),
                static_cast<unsigned long long>(s.cacheWrites),
                static_cast<unsigned long long>(s.readMisses +
                                                s.writeMisses));
    std::printf("read-miss mix: LC %.1f%%  LDR %.1f%%  RC %.1f%%  RDH "
                "%.1f%%  RDR %.1f%%\n", 100 * s.dist.localClean,
                100 * s.dist.localDirtyRemote, 100 * s.dist.remoteClean,
                100 * s.dist.remoteDirtyHome,
                100 * s.dist.remoteDirtyRemote);
    std::printf("occupancy: memory %.1f%% avg / %.1f%% max,  PP %.1f%% "
                "avg / %.1f%% max\n", 100 * s.avgMemOcc,
                100 * s.maxMemOcc, 100 * s.avgPpOcc, 100 * s.maxPpOcc);
    std::printf("protocol: %llu handler invocations (%.2f per miss), "
                "%llu NACKs, %.1f%% useless speculative reads\n",
                static_cast<unsigned long long>(s.handlerInvocations),
                s.handlersPerMiss,
                static_cast<unsigned long long>(s.nacksSent),
                100 * s.specUselessFrac);
    if (s.mdcMissRate > 0)
        std::printf("MDC: %.2f%% miss rate (%.2f%% reads)\n",
                    100 * s.mdcMissRate, 100 * s.mdcReadMissRate);
    const verify::CoherenceOracle *oracle = m->oracle();
    const verify::FaultInjector *inj = m->injector();
    if (oracle || inj) {
        std::fflush(stdout);
        std::cout << "sentinel:";
        if (oracle)
            std::cout << " oracle(" << oracle->trackedLines() << " lines, "
                      << oracle->violations() << " violations)";
        if (inj)
            std::cout << " injector(seed " << inj->params().seed << ": "
                      << inj->nacksInjected() << " nacks, "
                      << inj->hintsDropped() << " hints dropped, "
                      << inj->hintsDuped() << " duped, "
                      << inj->jitterCycles() << " jitter cyc, "
                      << inj->stallCycles() << " stall cyc)";
        std::cout << "\n";
        std::cout.flush();
    }
    // A hang never gets here: it is fatal() with the post-mortem.
    if (oracle && oracle->violations() != 0) {
        std::fprintf(stderr, "VERIFICATION FAILED: %llu violation(s)\n",
                     static_cast<unsigned long long>(oracle->violations()));
        return 2;
    }
    return 0;
}
