/**
 * @file
 * Read-only view of the simulator's own statistics: sums the
 * counters each layer registers (machine, TLB, PWC, PMPTW cache,
 * hierarchy, monitor) over the machines of one workload and turns
 * them into the benchmark's deterministic work counts.
 */

#ifndef PERFBENCH_STATS_VIEW_H
#define PERFBENCH_STATS_VIEW_H

#include "bench.h"
#include "core/machine.h"
#include "hpmp/isolation.h"
#include "monitor/secure_monitor.h"

namespace perfbench
{

inline const char *
schemeKey(hpmp::IsolationScheme s)
{
    switch (s) {
      case hpmp::IsolationScheme::Pmp: return "pmp";
      case hpmp::IsolationScheme::PmpTable: return "pmpt";
      case hpmp::IsolationScheme::Hpmp: return "hpmp";
      default: return "none";
    }
}

/** Faults no workload should take: access faults and machine checks. */
inline uint64_t
badFaults(hpmp::Machine &m)
{
    return m.stats().get("access_faults") + m.stats().get("machine_checks");
}

/** Counter sums over every machine and monitor of one workload. */
struct Tally
{
    double accesses = 0, walks = 0, ptRefs = 0, pmptRefs = 0;
    double pageFaults = 0;
    double tlbL1 = 0, tlbL2 = 0, tlbMiss = 0;
    double pwcHit = 0, pwcMiss = 0, pmptwHit = 0, pmptwMiss = 0;
    double l1dHit = 0, l1dMiss = 0, dram = 0;
    double calls = 0, csrWrites = 0, csrCalls = 0;
    double ipiPost = 0, ipiElided = 0;
    /** Simulated cycles of each switch the benchmark issued itself. */
    std::vector<double> callCycles;

    /** Add a native machine's counters (TLB, walks and below). */
    void
    add(hpmp::Machine &m)
    {
        accesses += double(m.stats().get("accesses"));
        walks += double(m.stats().get("walks"));
        ptRefs += double(m.stats().get("pt_refs"));
        pmptRefs += double(m.stats().get("pmpt_refs"));
        pageFaults += double(m.stats().get("page_faults"));
        tlbL1 += double(m.tlb().l1Hits());
        tlbL2 += double(m.tlb().l2Hits());
        tlbMiss += double(m.tlb().misses());
        pwcHit += double(m.pwc().hits());
        pwcMiss += double(m.pwc().misses());
        addBelowTlb(m);
    }

    /** Add the permission-check and memory side only. */
    void
    addBelowTlb(hpmp::Machine &m)
    {
        pmptwHit += double(m.hpmp().pmptwCache().hits());
        pmptwMiss += double(m.hpmp().pmptwCache().misses());
        l1dHit += double(m.hier().l1d().hits());
        l1dMiss += double(m.hier().l1d().misses());
        dram += double(m.hier().dram().rowHits() +
                       m.hier().dram().rowMisses());
    }

    void
    addMonitor(hpmp::SecureMonitor &mon)
    {
        hpmp::StatGroup &g = mon.stats();
        calls += double(g.get("calls"));
        if (const hpmp::Distribution *d = g.getDist("csr_writes_per_call")) {
            csrWrites += double(d->sum());
            csrCalls += double(d->count());
        }
        ipiPost += double(g.get("ipi_post"));
        ipiElided += double(g.get("ipi_elided"));
    }

    /** Write the core/pt/pmpt/mem/os/monitor work counts. */
    void
    report(Result &res) const
    {
        auto &c = res.counts;
        c["core.accesses"] = accesses;
        c["core.tlb_hit_rate"] = ratio(tlbL1 + tlbL2, tlbL1 + tlbL2 + tlbMiss);
        c["core.tlb_l2_hit_rate"] = ratio(tlbL2, tlbL2 + tlbMiss);
        c["core.walks_per_kacc"] = 1000.0 * ratio(walks, accesses);
        c["core.pwc_hit_rate"] = ratio(pwcHit, pwcHit + pwcMiss);
        c["pt.refs_per_walk"] = ratio(ptRefs, walks);
        c["pmpt.refs_per_walk"] = ratio(pmptRefs, walks);
        c["pmpt.pmptw_hit_rate"] = ratio(pmptwHit, pmptwHit + pmptwMiss);
        c["mem.l1d_hit_rate"] = ratio(l1dHit, l1dHit + l1dMiss);
        c["mem.dram_accesses"] = dram;
        c["os.page_faults"] = pageFaults;
        c["monitor.calls"] = calls;
        c["monitor.csr_writes_per_call"] = ratio(csrWrites, csrCalls);
        c["monitor.ipi_post"] = ipiPost;
        c["monitor.ipi_elided"] = ipiElided;
        c["monitor.switch_cycles_sim.p50"] = quantile(callCycles, 0.50);
        c["monitor.switch_cycles_sim.p99"] = quantile(callCycles, 0.99);
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_VIEW_H
