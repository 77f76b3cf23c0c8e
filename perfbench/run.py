#!/usr/bin/env python3
"""End-to-end FlashSim benchmark.

Builds the FlashSim library and the flashbench driver with CMake (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, checks every simulated output, and prints each metric with its
unit. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

  python3 perfbench/run.py --workload mp3d_migratory --seed 0 \\
      --seconds 50 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
and writes the run's spans and counts to <build dir>/traces/. For a seed
with no record the simulated outputs are printed on stderr, ready to be
added to records.json. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDS = os.path.join(HERE, "records.json")
WORKLOADS = ("mp3d_migratory", "radix_writeback", "barnes_compute",
             "paper_suite")
# Wall-clock limit for one flashbench run; the build is not counted.
DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure (first time only) and build flashbench; returns its
    path. Exits nonzero when the FlashSim sources are missing or the
    build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: FlashSim sources not found under "
                         + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "flashbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "flashbench")


def child_env():
    """One simulation thread, and none of the debug switches that slow
    the simulator down."""
    env = dict(os.environ, FLASHSIM_JOBS="1", FLASHSIM_SHARDS="1")
    for k in ("FS_PP_ORACLE", "FS_TRACE_LINE", "FS_TRACE_MDC"):
        env.pop(k, None)
    return env


def flashbench(exe, workload, seed, seconds, trace):
    """Run the driver once and return its raw JSON document."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                           timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: flashbench timed out")
    if r.returncode != 0:
        raise SystemExit("perfbench: flashbench exited with %d"
                         % r.returncode)
    return json.loads(r.stdout)


def load_records():
    with open(RECORDS) as f:
        return json.load(f)


def record_of(raw):
    """The simulated outputs of a run, keyed by machine label."""
    return dict(zip(raw["machines"], raw["passes"][0]["sim"]))


def check(raw, records):
    """Check every machine run of every pass.

    A run fails when its simulated outputs differ from the first pass
    (nondeterminism, or tracing that changed simulated timing), differ
    from the committed record for this workload and seed, report
    degraded transactions, or (Radix) left the keys unsorted. Returns
    (attempted, failed, problems).
    """
    labels = raw["machines"]
    first = raw["passes"][0]["sim"]
    rec = records.get(raw["workload"], {}).get(str(raw["seed"]))
    attempted, failed, problems = 0, 0, []
    for p, pt in enumerate(raw["passes"]):
        for i, label in enumerate(labels):
            sim = pt["sim"][i]
            why = []
            if sim != first[i]:
                why.append("differs from pass 0")
            if rec is not None and sim != rec.get(label):
                want = rec.get(label) or {}
                keys = sorted(k for k in sim if sim[k] != want.get(k))
                why.append("differs from the record in " +
                           ", ".join(keys[:4]) + ("..." if len(keys) > 4
                                                  else ""))
            if sim["degraded_txns"]:
                why.append("degraded transactions")
            if label.startswith("radix/") and not raw["radix_sorted"]:
                why.append("radix keys not sorted")
            attempted += 1
            if why:
                failed += 1
                problems.append("pass %d %s: %s" % (p, label,
                                                    "; ".join(why)))
    return attempted, failed, problems


def fastest(passes, *keys):
    """Sum over the machines of each machine's fastest time across
    @passes, a time being the sum of the phases @keys. Other tenants of
    the host slow it down in stretches of seconds and noise only ever
    adds time, so the fastest of several runs is the steady figure."""
    n = len(passes[0]["run"])
    return sum(min(sum(p[k][i] for k in keys) for p in passes)
               for i in range(n))


def setup_total(r):
    return r["programs"] + sum(r["construct"]) + sum(r["setup"])


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(raw):
    """Host-time metrics from the untraced passes, as name ->
    (value, unit)."""
    passes = [p for p in raw["passes"] if not p["traced"]]
    host = fastest(passes, "run", "drain")
    sims = raw["passes"][0]["sim"]
    cycles = sum(m["exec_time"] for m in sims)
    refs = sum(m["cache_reads"] + m["cache_writes"] for m in sims)
    return {
        "run_host_s": (host, "s"),
        "setup_s": (statistics.median(
            setup_total(r) for r in raw["setup_rounds"]), "s"),
        "sim_mcycles_per_host_s": (cycles / 1e6 / host, "Mcycles/s"),
        "sim_mrefs_per_host_s": (refs / 1e6 / host, "Mrefs/s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw):
    """Span times from the traced passes (fastest per machine) and the
    set-up rounds (median), plus each layer's simulated counters summed
    over the workload's machines, as name -> (value, unit)."""
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    rounds = raw["setup_rounds"]
    sims = raw["passes"][0]["sim"]

    def span(passes, key):
        return statistics.median(sum(p[key]) for p in passes)

    def tot(key):
        return sum(m[key] for m in sims)

    node_cycles = sum(m["exec_time"] * m["nodes"] for m in sims)
    misses = tot("read_misses") + tot("write_misses")
    bd = sum(tot(k) for k in ("busy_cycles", "cont_cycles", "read_cycles",
                              "write_cycles", "sync_cycles"))
    spec = tot("spec_issued")
    return {
        "protocol.programs_s": (statistics.median(
            r["programs"] for r in rounds), "s"),
        "machine.construct_s": (span(rounds, "construct"), "s"),
        "apps.setup_s": (span(rounds, "setup"), "s"),
        "machine.run_s": (fastest(traced, "run"), "s"),
        "machine.drain_s": (fastest(traced, "drain"), "s"),
        "machine.check_s": (fastest(traced, "check"), "s"),
        "trace.overhead_frac": (
            fastest(traced, "run", "drain") /
            fastest(untraced, "run", "drain") - 1.0, "fraction"),
        "magic.msgs_in": (tot("msgs_in"), "count"),
        "magic.handler_invocations": (tot("handler_invocations"), "count"),
        "magic.handlers_per_miss": (
            ratio(tot("handler_invocations"), misses), "handlers/miss"),
        "magic.pp_occ_avg": (ratio(tot("pp_busy_cycles"), node_cycles),
                             "fraction"),
        "magic.pp_occ_max": (max(ratio(m["pp_busy_max_cycles"],
                                       m["exec_time"]) for m in sims),
                             "fraction"),
        "magic.queue_stall_cycles": (tot("queue_stall_cycles"), "cycles"),
        "magic.nacks_sent": (tot("nacks_sent"), "count"),
        "magic.spec_issued": (spec, "count"),
        "magic.spec_useful_frac": (
            1.0 - ratio(tot("spec_useless"), spec) if spec else 0.0,
            "fraction"),
        "ppisa.instrs": (tot("pp_instrs"), "count"),
        "ppisa.pairs": (tot("pp_pairs"), "count"),
        "ppisa.cycles": (tot("pp_cycles"), "cycles"),
        "ppisa.mem_stall_cycles": (tot("pp_mem_stall_cycles"), "cycles"),
        "ppisa.dual_issue_eff": (ratio(tot("pp_instrs"), tot("pp_pairs")),
                                 "instrs/pair"),
        "mdc.reads": (tot("mdc_reads"), "count"),
        "mdc.read_misses": (tot("mdc_read_misses"), "count"),
        "mdc.writebacks": (tot("mdc_writebacks"), "count"),
        "mdc.miss_rate": (ratio(tot("mdc_read_misses") +
                                tot("mdc_write_misses"),
                                tot("mdc_reads") + tot("mdc_writes")),
                          "fraction"),
        "memsys.reads": (tot("mem_reads"), "count"),
        "memsys.writes": (tot("mem_writes"), "count"),
        "memsys.protocol_accesses": (tot("mem_protocol_accesses"), "count"),
        "memsys.occ_avg": (ratio(tot("mem_busy_cycles"), node_cycles),
                           "fraction"),
        "network.messages": (tot("net_messages"), "count"),
        "network.data_messages": (tot("net_data_messages"), "count"),
        "cpu.refs": (tot("cache_reads") + tot("cache_writes"), "count"),
        "cpu.read_misses": (tot("read_misses"), "count"),
        "cpu.write_misses": (tot("write_misses"), "count"),
        "cpu.writebacks": (tot("cpu_writebacks"), "count"),
        "cpu.replace_hints": (tot("replace_hints"), "count"),
        "cpu.invals_received": (tot("invals_received"), "count"),
        "cpu.nack_retries": (tot("nack_retries"), "count"),
        "cpu.miss_latency_mean_cycles": (
            ratio(tot("miss_latency_sum"), tot("miss_latency_count")),
            "cycles"),
        "cpu.busy_frac": (ratio(tot("busy_cycles"), bd), "fraction"),
        "cpu.read_stall_frac": (ratio(tot("read_cycles"), bd), "fraction"),
        "cpu.write_stall_frac": (ratio(tot("write_cycles"), bd),
                                 "fraction"),
        "cpu.sync_frac": (ratio(tot("sync_cycles"), bd), "fraction"),
    }


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty", "--tags"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() or "unknown"


def stamp(raw):
    """Host and build of the run; flags debug and sanitizer builds,
    whose timings do not describe the default build."""
    s = dict(raw["stamp"], git=git_describe())
    flags = []
    if s["build_type"] == "Debug" or s["assertions"]:
        flags.append("debug build")
    if s["sanitizer"] != "none":
        flags.append(s["sanitizer"] + " sanitizer build")
    s["flagged"] = flags
    return s


def write_trace(raw, layer, st):
    d = os.path.join(build_dir(), "traces")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-seed%d-%s-%d.json" % (
        raw["workload"], raw["seed"], time.strftime("%Y%m%dT%H%M%S"),
        os.getpid()))
    with open(path, "w") as f:
        json.dump({"workload": raw["workload"], "seed": raw["seed"],
                   "stamp": st,
                   "per_layer": {k: {"value": v, "unit": u}
                                 for k, (v, u) in layer.items()},
                   "sim": record_of(raw), "spans": raw["spans"]}, f)
        f.write("\n")
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build(build_dir())
    raw = flashbench(exe, args.workload, args.seed, args.seconds,
                     args.trace)
    records = load_records()
    attempted, failed, problems = check(raw, records)
    for msg in problems:
        log("perfbench: FAILED " + msg)
    if str(args.seed) not in records.get(args.workload, {}):
        log("perfbench: no record for %s seed %d (checked against itself "
            "only); to pin it, add under records.json[%s][\"%d\"]:"
            % (args.workload, args.seed, json.dumps(args.workload),
               args.seed))
        log(json.dumps(record_of(raw), sort_keys=True))

    st = stamp(raw)
    print("# %s seed %d: %d passes x %d machines, %d set-up rounds"
          % (args.workload, args.seed, len(raw["passes"]),
             len(raw["machines"]), len(raw["setup_rounds"])))
    print("# host: nproc=%(nproc)s build=%(build_type)s "
          "compiler=%(compiler)s git=%(git)s jobs=%(jobs)s "
          "shards=%(shards)s" % st)
    if st["flagged"]:
        print("# WARNING: %s; timings do not describe the default build"
              % ", ".join(st["flagged"]))
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    if args.trace:
        print("# trace: " + write_trace(raw, metrics, st))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
