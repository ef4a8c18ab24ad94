/**
 * @file
 * Per-layer ledger: each layer's public function timed alone, in a
 * tight loop on a state built the way the workloads build theirs,
 * reported as the median of seven repetitions in host ns per call.
 *
 * The workload entries run the workloads' own code on fresh states
 * under spans: one GAP pass, one Redis pass, and 5000 fleet windows
 * after the fleet's set-up. Every traced run measures the whole
 * ledger, so each per-layer figure exists on every workload. The
 * README maps each entry to the end-to-end metric it should move.
 */

#include <cstdio>
#include <functional>

#include "bench.h"
#include "core/core_model.h"
#include "core/machine.h"
#include "mem/hierarchy.h"
#include "pmpt/pmp_table.h"
#include "pt/two_stage.h"
#include "stats_view.h"
#include "workloads/env.h"
#include "workloads/virt_env.h"

namespace perfbench
{
namespace
{

using namespace hpmp;

/** Pages a walk entry cycles through: 4x the L2 TLB, so every
 *  access misses both TLB levels. */
constexpr unsigned kWalkPages = 4096;
constexpr unsigned kReps = 7;

uint64_t g_sink = 0; //!< keeps timed results observable

/** Median ns per call of fn(i) over `iters` calls, kReps times. */
double
nsPerCall(uint64_t iters, const std::function<uint64_t(uint64_t)> &fn)
{
    for (uint64_t i = 0; i < iters / 4; ++i)
        g_sink += fn(i);
    std::vector<double> reps;
    for (unsigned r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        uint64_t sink = 0;
        for (uint64_t i = 0; i < iters; ++i)
            sink += fn(i);
        reps.push_back(secondsSince(t0) * 1e9 / double(iters));
        g_sink += sink;
    }
    return median(reps);
}

/** A Rocket TeeEnv with one entered enclave and kWalkPages mapped. */
struct NativeState
{
    std::unique_ptr<TeeEnv> env;
    std::unique_ptr<Enclave> enclave;
    Addr va = 0;

    explicit NativeState(IsolationScheme scheme)
    {
        EnvConfig c;
        c.scheme = scheme;
        env = std::make_unique<TeeEnv>(c);
        enclave = env->createEnclave(64_MiB);
        env->enterEnclave(*enclave, PrivMode::User);
        va = enclave->as->mmap(pageAddr(kWalkPages), Perm::rw(), true, true);
    }

    ~NativeState() { env->destroyEnclave(std::move(enclave)); }

    Addr page(uint64_t i) const { return va + pageAddr(i % kWalkPages); }
};

/** A VirtEnv with kWalkPages guest pages mapped. */
struct VirtState
{
    VirtEnv env;
    Addr gva;

    VirtState(VirtScheme scheme)
        : env(CoreKind::Rocket, scheme),
          gva(env.mapGuestPages(kWalkPages))
    {
    }

    Addr page(uint64_t i) const { return gva + pageAddr(i % kWalkPages); }
};

void
ledgerNative(Result &res)
{
    auto &L = res.layers;
    for (IsolationScheme s : {IsolationScheme::Pmp, IsolationScheme::PmpTable,
                              IsolationScheme::Hpmp}) {
        NativeState st(s);
        Machine &m = st.env->machine();
        L[std::string("core.access_walk_ns.") + schemeKey(s)] =
            nsPerCall(16384, [&](uint64_t i) {
                const AccessOutcome out = m.access(st.page(i), AccessType::Load);
                if (out.tlbHit || !out.ok())
                    res.fail("ledger walk access hit the TLB or faulted");
                return out.cycles;
            });
        if (s != IsolationScheme::Hpmp)
            continue;

        (void)m.access(st.va, AccessType::Load);
        L["core.access_hit_ns"] = nsPerCall(400000, [&](uint64_t) {
            return m.access(st.va, AccessType::Load).cycles;
        });
        const Addr root = m.satpRoot();
        WalkConfig wc;
        L["pt.walk_sv39_ns"] = nsPerCall(65536, [&](uint64_t i) {
            return walkPageTable(m.mem(), root, st.page(i), AccessType::Load,
                                 PrivMode::User, wc)
                .pa;
        });
    }
}

void
ledgerStructures(Result &res)
{
    auto &L = res.layers;
    const MachineParams rocket = rocketParams();

    Tlb tlb(rocket.l1TlbEntries, rocket.l2TlbEntries);
    const unsigned l2Pages = 2 * rocket.l1TlbEntries;
    for (unsigned p = 0; p < l2Pages; ++p)
        tlb.fill(pageAddr(p), pageAddr(p + 1000), Perm::rw(), Perm::rw(), true);
    // Round-robin over twice the L1's capacity: every lookup misses the
    // true-LRU L1 and hits (and promotes from) the L2.
    L["core.tlb_l2_hit_ns"] = nsPerCall(400000, [&](uint64_t i) {
        return tlb.lookup(pageAddr(i % l2Pages)) != nullptr;
    });
    L["core.tlb_l1_hit_ns"] = nsPerCall(1000000, [&](uint64_t) {
        return tlb.lookup(pageAddr(0)) != nullptr;
    });

    Pwc pwc(rocket.pwcEntries);
    pwc.fill(2, 0x40000000, Pte{1});
    pwc.fill(1, 0x40000000, Pte{1});
    L["core.pwc_lookup_ns"] = nsPerCall(1000000, [&](uint64_t i) {
        return pwc.lookup(1 + (i & 1), 0x40000000).has_value();
    });

    MemoryHierarchy hier(rocket.hier);
    L["mem.hier_l1_hit_ns"] = nsPerCall(1000000, [&](uint64_t) {
        return hier.access(0x1000, false).cycles;
    });
    // A sequential stream over 1 GiB: every line misses every cache.
    L["mem.hier_dram_ns"] = nsPerCall(1u << 20, [&](uint64_t i) {
        return hier.access(64 * (i % (1u << 24)), false).cycles;
    });

    AccessOutcome hit;
    hit.tlbHit = true;
    hit.dataRefs = 1;
    hit.cycles = 2;
    CoreModel rocketModel(rocket);
    CoreModel boomModel(boomParams());
    L["core.core_model_add_ns.rocket"] = nsPerCall(1000000, [&](uint64_t) {
        rocketModel.addAccess(hit);
        return rocketModel.memAccesses();
    });
    L["core.core_model_add_ns.boom"] = nsPerCall(1000000, [&](uint64_t) {
        boomModel.addAccess(hit);
        return boomModel.memAccesses();
    });

    StatGroup group("ledger");
    RefAttribution attr(group);
    L["base.ref_attr_record_ns"] = nsPerCall(1000000, [&](uint64_t i) {
        attr.record(RefOrigin::Data, 2 + (i & 7));
        return i;
    });
}

void
ledgerPermissions(Result &res)
{
    auto &L = res.layers;
    PhysMem mem(16_GiB);
    PmpTable table(mem, bumpAllocator(64_MiB), 2);
    constexpr Addr kRegion = 4_GiB;
    constexpr uint64_t kSpan = 1_GiB;
    table.setPerm(0, kSpan, Perm::rw());

    L["pmpt.walk_ns"] = nsPerCall(400000, [&](uint64_t i) {
        return uint64_t(walkPmpTable(mem, table.rootPa(), 2,
                                     pageAddr((i * 4099) % (kSpan >> 12)))
                            .valid);
    });

    PmptwCache cache(8);
    cache.fill(table.rootPa(), 0, LeafPmpte{0x3333333333333333ULL});
    L["pmpt.pmptw_lookup_ns"] = nsPerCall(1000000, [&](uint64_t i) {
        return cache.lookup(table.rootPa(), pageAddr(i & 15)).has_value();
    });

    HpmpUnit unit(mem, 16, 0);
    unit.programSegment(0, 256_MiB, 256_MiB, Perm::rw());
    unit.programTable(2, kRegion, 4_GiB, table.rootPa());
    L["hpmp.check_segment_ns"] = nsPerCall(1000000, [&](uint64_t i) {
        return uint64_t(unit.check(256_MiB + 64 * (i & 1023), 8,
                                   AccessType::Load, PrivMode::Supervisor)
                            .ok());
    });
    L["hpmp.check_table_ns"] = nsPerCall(400000, [&](uint64_t i) {
        return uint64_t(unit.check(kRegion + pageAddr((i * 4099) % 65536), 8,
                                   AccessType::Load, PrivMode::Supervisor)
                            .ok());
    });

    PmpTable updates(mem, bumpAllocator(128_MiB), 2);
    L["pmpt.set_perm_ns"] = nsPerCall(65536, [&](uint64_t i) {
        updates.setPerm((i * 64_KiB) % 8_GiB, 64_KiB, Perm::rw());
        return i;
    });
}

void
ledgerVirt(Result &res)
{
    auto &L = res.layers;
    const struct
    {
        VirtScheme scheme;
        const char *key;
    } schemes[] = {{VirtScheme::Pmp, "pmp"}, {VirtScheme::Pmpt, "pmpt"},
                   {VirtScheme::Hpmp, "hpmp"}, {VirtScheme::HpmpGpt, "hpmp_gpt"}};
    for (const auto &s : schemes) {
        VirtState st(s.scheme);
        VirtMachine &vm = st.env.vm();
        L[std::string("core.virt_access_walk_ns.") + s.key] =
            nsPerCall(8192, [&](uint64_t i) {
                const VirtAccessOutcome out =
                    vm.access(st.page(i), AccessType::Load);
                if (out.tlbHit || !out.ok())
                    res.fail("ledger 3D walk hit the TLB or faulted");
                return out.cycles;
            });
        if (s.scheme != VirtScheme::Hpmp)
            continue;
        const TwoStageConfig config;
        L["pt.walk_two_stage_ns"] = nsPerCall(16384, [&](uint64_t i) {
            return walkTwoStage(vm.mem(), vm.vsatpRoot(), vm.hgatpRoot(),
                                st.page(i), AccessType::Load, vm.guestPriv(),
                                config)
                .spa;
        });
    }
}

/** Set a workload up and run `steps` steps of it under spans. */
void
traceWorkload(const Options &opt, Result &res, Tracer &tracer,
              std::unique_ptr<Workload> (*make)(const Options &, Result &),
              bool trace_setup, unsigned steps)
{
    Result scratch;
    Tracer off(false);
    std::vector<double> request_us;
    std::unique_ptr<Workload> w = make(opt, scratch);
    w->setup(trace_setup ? tracer : off);
    for (unsigned i = 0; i < steps; ++i)
        w->step(tracer, request_us);
    res.attempted += scratch.attempted;
    res.failed += scratch.failed;
    for (const std::string &f : scratch.failures)
        res.failures.push_back("ledger: " + f);
}

void
ledgerWorkloads(const Options &opt, Result &res)
{
    auto &L = res.layers;
    Tracer t(true);
    traceWorkload(opt, res, t, makeGapHit, true, 1);
    for (const char *k : {"bc", "bfs", "cc", "pr", "sssp", "tc", "setup"})
        L[std::string("workloads.gap.") + k + "_s"] =
            t.total(std::string("gap.") + k);
    traceWorkload(opt, res, t, makeRedisWalk, false, 1);
    L["workloads.redis.lrange_s"] = t.total("redis.lrange");
    L["workloads.redis.other_s"] = t.total("redis.other");

    // Fleet set-up untraced, so the monitor spans are those of served
    // traffic at full fleet size, churn included.
    traceWorkload(opt, res, t, makeFleetSwitch, false, 5000);
    auto ns = [&](const char *span, double p) {
        const Tracer::Stat *s = t.find(span);
        return s ? 1e9 * quantile(s->durations, p) : 0.0;
    };
    L["monitor.switch_ns.p50"] = ns("monitor.switch", 0.50);
    L["monitor.switch_ns.p99"] = ns("monitor.switch", 0.99);
    L["monitor.create_ns"] = ns("monitor.create", 0.50);
    L["monitor.add_gms_ns"] = ns("monitor.add_gms", 0.50);
    L["monitor.destroy_ns"] = ns("monitor.destroy", 0.50);
    L["monitor.attest_ns"] = ns("monitor.attest", 0.50);
    L["monitor.window_end_ns"] = ns("monitor.window_end", 0.50);
}

} // namespace

void
runLedger(const Options &opt, Result &res)
{
    const auto t0 = Clock::now();
    ledgerStructures(res);
    ledgerPermissions(res);
    ledgerNative(res);
    ledgerVirt(res);
    ledgerWorkloads(opt, res);
    std::printf("ledger: %zu entries in %.2f s\n", res.layers.size(),
                secondsSince(t0));
}

} // namespace perfbench
