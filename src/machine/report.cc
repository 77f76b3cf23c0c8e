#include "machine/report.hh"

#include <algorithm>
#include <cstdio>

#include "sim/stats.hh"

namespace flashsim::machine
{

double
MissLatencies::crmt(const ReadMissDistribution &d) const
{
    return d.localClean * localClean +
           d.localDirtyRemote * localDirtyRemote +
           d.remoteClean * remoteClean +
           d.remoteDirtyHome * remoteDirtyHome +
           d.remoteDirtyRemote * remoteDirtyRemote;
}

Summary
summarize(const Machine &m)
{
    Summary s;
    s.execTime = m.executionTime();

    double busy = 0, cont = 0, read = 0, write = 0, sync = 0;
    std::uint64_t mdc_reads = 0, mdc_read_misses = 0;
    std::uint64_t mdc_accesses = 0, mdc_misses = 0;
    magic::Magic::MissClasses classes;

    for (int i = 0; i < m.numProcs(); ++i) {
        const Node &n = m.node(i);
        const cpu::Processor::Breakdown &bd = n.proc().breakdown();
        busy += static_cast<double>(bd.busy);
        cont += static_cast<double>(bd.cont);
        read += static_cast<double>(bd.read);
        write += static_cast<double>(bd.write);
        sync += static_cast<double>(bd.sync);

        const cpu::Cache &c = n.cache();
        s.cacheReads += c.reads;
        s.cacheWrites += c.writes;
        s.backgroundRefs += c.backgroundHits;
        s.readMisses += c.readMisses;
        s.writeMisses += c.writeMisses;

        const magic::Magic &mg = n.magic();
        s.handlerInvocations += mg.invocations;
        s.specIssued += mg.specIssued;
        s.specUselessFrac += static_cast<double>(mg.specUseless);
        s.nacksSent += mg.nacksSent;
        s.mdcProtocolMemOps += mg.memory().protocolAccesses;

        classes.localClean += mg.readClasses.localClean;
        classes.localDirtyRemote += mg.readClasses.localDirtyRemote;
        classes.remoteClean += mg.readClasses.remoteClean;
        classes.remoteDirtyHome += mg.readClasses.remoteDirtyHome;
        classes.remoteDirtyRemote += mg.readClasses.remoteDirtyRemote;

        double mem_occ = mg.memory().occ.fraction(s.execTime);
        double pp_occ = mg.ppOcc.fraction(s.execTime);
        s.avgMemOcc += mem_occ;
        s.avgPpOcc += pp_occ;
        s.maxMemOcc = std::max(s.maxMemOcc, mem_occ);
        s.maxPpOcc = std::max(s.maxPpOcc, pp_occ);

        if (const magic::PpTimingModel *pm = mg.ppModel()) {
            mdc_reads += pm->mdc().reads;
            mdc_read_misses += pm->mdc().readMisses;
            mdc_accesses += pm->mdc().reads + pm->mdc().writes;
            mdc_misses += pm->mdc().readMisses + pm->mdc().writeMisses;
        }
    }

    double total = busy + cont + read + write + sync;
    if (total > 0) {
        s.busy = busy / total;
        s.cont = cont / total;
        s.read = read / total;
        s.write = write / total;
        s.sync = sync / total;
    }

    s.missRate =
        ratio(static_cast<double>(s.readMisses + s.writeMisses),
              static_cast<double>(s.cacheReads + s.cacheWrites +
                                  s.backgroundRefs));

    double nmiss = static_cast<double>(classes.total());
    if (nmiss > 0) {
        s.dist.localClean = classes.localClean / nmiss;
        s.dist.localDirtyRemote = classes.localDirtyRemote / nmiss;
        s.dist.remoteClean = classes.remoteClean / nmiss;
        s.dist.remoteDirtyHome = classes.remoteDirtyHome / nmiss;
        s.dist.remoteDirtyRemote = classes.remoteDirtyRemote / nmiss;
    }

    s.avgMemOcc /= m.numProcs();
    s.avgPpOcc /= m.numProcs();
    s.handlersPerMiss =
        ratio(static_cast<double>(s.handlerInvocations),
              static_cast<double>(s.readMisses + s.writeMisses));
    s.specUselessFrac =
        ratio(s.specUselessFrac, static_cast<double>(s.specIssued));
    s.mdcMissRate = ratio(static_cast<double>(mdc_misses),
                          static_cast<double>(mdc_accesses));
    s.mdcReadMissRate = ratio(static_cast<double>(mdc_read_misses),
                              static_cast<double>(mdc_reads));
    return s;
}

std::string
breakdownHeader()
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-24s %8s %7s %6s %6s %6s %6s %6s",
                  "run", "cycles", "norm", "busy", "cont", "read", "write",
                  "sync");
    return buf;
}

std::string
breakdownRow(const std::string &label, const Summary &s,
             double norm_exec_time)
{
    double norm = norm_exec_time > 0
                      ? 100.0 * static_cast<double>(s.execTime) /
                            norm_exec_time
                      : 0.0;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%-24s %8llu %7.1f %6.1f %6.1f %6.1f %6.1f %6.1f",
                  label.c_str(),
                  static_cast<unsigned long long>(s.execTime), norm,
                  100.0 * s.busy * norm / 100.0,
                  100.0 * s.cont * norm / 100.0,
                  100.0 * s.read * norm / 100.0,
                  100.0 * s.write * norm / 100.0,
                  100.0 * s.sync * norm / 100.0);
    return buf;
}

} // namespace flashsim::machine
