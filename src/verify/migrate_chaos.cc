/**
 * @file
 * Migration chaos campaign (ChaosLayer::Migrate).
 *
 * Two hosts, one migration engine per direction, and a seeded stream
 * of domain ping-pong migrations with faults armed at random sites —
 * including the migrate.* protocol sites (torn checkpoint, frame
 * drop/dup/corrupt, lost ack, destination attest failure, crash
 * during commit). Every attempt is judged by the check battery's
 * migration outcome audit; on top of it a commit must leave the
 * domain's memory pattern intact on the destination and the retired
 * source id a typed denial, and the cross-system oracle must observe
 * no dual-grant window at any protocol step.
 */

#include <memory>
#include <sstream>
#include <vector>

#include "base/fault_inject.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/stats.h"
#include "core/params.h"
#include "core/smp.h"
#include "mem/phys_mem.h"
#include "migrate/migration.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "verify/chaos_engine.h"
#include "verify/check_battery.h"

namespace hpmp
{

namespace
{

// Same chaos-window geometry as the monitor fuzzer: domains live far
// above the monitor-private region, one 64 MiB window per slot, and
// both hosts share it so identity placement always lands in a free
// window on the other side.
constexpr Addr kWindowBase = 256_MiB;
constexpr uint64_t kWindowSize = 64_MiB;
constexpr unsigned kSlots = 4;
constexpr uint64_t kPatternBytes = 128;

Addr
windowOf(unsigned slot)
{
    return kWindowBase + slot * kWindowSize;
}

/** One migratable tenant: its current host, id and memory pattern. */
struct Slot
{
    DomainId id = 0;
    bool onDest = false; //!< currently lives on host B
    Addr base = 0;       //!< first region base (pattern check target)
    uint8_t pattern = 0;
};

} // namespace

ChaosStats
runMigrateChaos(const ChaosConfig &config)
{
    ChaosStats stats;
    stats.harts = config.harts;
    Rng rng(config.seed);

    // Two hosts. Distinct scheduler seeds: the interleavings are
    // independent machines, not mirrored ones.
    SmpParams spa;
    spa.harts = config.harts;
    spa.schedSeed = config.seed * 0x9E3779B97F4A7C15ULL + config.harts;
    SmpParams spb = spa;
    spb.schedSeed += 0x517cc1b727220a95ULL;
    // PMPTW-Cache on: cached leaf pmptes must stay coherent across
    // suspend/revoke/rollback on the source and activation on the
    // destination, and the oracle's probes audit the cached view.
    MachineParams mp = rocketParams();
    mp.pmptwEntries = 8;
    SmpSystem smpA(mp, spa);
    SmpSystem smpB(mp, spb);
    MonitorConfig mc;
    mc.scheme = config.scheme;
    SecureMonitor monA(smpA, mc);
    SecureMonitor monB(smpB, mc);
    for (unsigned h = 0; h < config.harts; ++h) {
        smpA.hart(h).setPriv(PrivMode::Supervisor);
        smpA.hart(h).setBare();
        smpB.hart(h).setPriv(PrivMode::Supervisor);
        smpB.hart(h).setBare();
    }

    MigrateConfig ec;
    // Trace tracks: host A = 0, host B = 1, whichever direction a
    // migration runs — a failing-seed dump shows both hosts' spans on
    // consistent timelines.
    MigrateConfig ecBack = ec;
    ecBack.sourceSystemId = 1;
    ecBack.destSystemId = 0;
    CrossSystemOracle oracleFwd(monA, monB);
    CrossSystemOracle oracleBack(monB, monA);
    MigrationEngine engFwd(monA, monB, ec, "migrate");
    MigrationEngine engBack(monB, monA, ecBack, "migrate_back");
    engFwd.setOracle(&oracleFwd);
    engBack.setOracle(&oracleBack);

    // ---- population: kSlots tenants on host A ----------------------
    std::vector<Slot> slots(kSlots);
    for (unsigned i = 0; i < kSlots; ++i) {
        Slot &slot = slots[i];
        slot.id = monA.createDomain();
        slot.base = windowOf(i);
        slot.pattern = uint8_t(0xA0 + 7 * i);
        Gms gms;
        gms.base = slot.base;
        gms.size = 2_MiB;
        gms.perm = Perm::rw();
        gms.label = i == 0 ? GmsLabel::Fast : GmsLabel::Slow;
        panic_if(!monA.addGms(slot.id, gms).ok, "chaos setup addGms");
        if (i == 0) {
            // A second region on one tenant: multi-region checkpoints
            // travel through the same stream.
            Gms extra;
            extra.base = slot.base + 32_MiB;
            extra.size = 1_MiB;
            extra.perm = Perm::ro();
            panic_if(!monA.addGms(slot.id, extra).ok,
                     "chaos setup addGms (extra)");
        }
        std::vector<uint8_t> pattern(kPatternBytes);
        for (uint64_t j = 0; j < kPatternBytes; ++j)
            pattern[j] = uint8_t(slot.pattern + j);
        smpA.mem().writeBytes(slot.base, pattern.data(), pattern.size());
    }

    FaultInjector &injector = FaultInjector::instance();
    injector.enable(config.seed);

    const char *op_name = "?";
    auto fail = [&](unsigned index, const std::string &why) {
        if (stats.failed)
            return;
        std::ostringstream os;
        os << "seed " << config.seed << " op #" << index << " ("
           << op_name << "): " << why;
        stats.failed = true;
        stats.failure = os.str();
    };

    auto register_all = [&](StatRegistry &registry) {
        monA.registerStats(registry);
        smpA.registerStats(registry);
        engFwd.registerStats(registry);
        engBack.registerStats(registry);
        oracleFwd.registerStats(registry);
    };
    // Windowed telemetry across both hosts, clocked by the sum of
    // both monitors' simulated call cycles (work on either host
    // advances the campaign clock).
    StatRegistry seriesRegistry;
    std::unique_ptr<StatSampler> sampler;
    auto campaign_cycles = [&]() -> uint64_t {
        const Distribution *a = monA.stats().getDist("call_cycles");
        const Distribution *b = monB.stats().getDist("call_cycles");
        return (a ? a->sum() : 0) + (b ? b->sum() : 0);
    };
    if (config.statsSeriesOut) {
        register_all(seriesRegistry);
        sampler = std::make_unique<StatSampler>(seriesRegistry,
                                                config.statsSeriesInterval);
    }

    for (unsigned i = 0; i < config.ops && !stats.failed; ++i) {
        if (sampler)
            sampler->advanceTo(campaign_cycles());
        ++stats.ops;
        if (rng.chance(config.faultProb)) {
            ++stats.injectedFaults;
            injector.armAnyNth(1 + rng.below(24));
        }

        const unsigned si = unsigned(rng.below(kSlots));
        Slot &slot = slots[si];
        SecureMonitor &here = slot.onDest ? monB : monA;
        SecureMonitor &there = slot.onDest ? monA : monB;
        SmpSystem &thereSmp = slot.onDest ? smpA : smpB;

        if (rng.below(100) < 25) {
            // Lifecycle noise on the tenant's current host: switches
            // in and out keep register layouts churning between
            // migrations (typed failures are expected under faults).
            op_name = "noise-switch";
            if (here.switchTo(slot.id).ok)
                ++stats.okOps;
            else
                ++stats.failedOps;
            (void)here.switchTo(0);
        } else {
            op_name = "migrate";
            MigrationEngine &eng = slot.onDest ? engBack : engFwd;
            const uint64_t nonce = rng.below(1ull << 62) + 1;
            const MigrateResult res = eng.migrate(slot.id, nonce);
            ++stats.migrations;
            stats.migrateRetries += res.retries;
            stats.migrateBytes += res.bytes;

            if (res.ok) {
                ++stats.migrateCommits;
                ++stats.okOps;
            } else if (res.stranded) {
                ++stats.migrateStranded;
                ++stats.failedOps;
            } else {
                ++stats.migrateAborts;
                ++stats.failedOps;
                ++stats.migrateDigestChecks;
                ++stats.rollbackChecks;
            }

            FaultInjector::SuspendGuard guard;
            if (const Verdict v = auditMigration(res, here, slot.id, there))
                fail(i, v.kind + ": " + v.what);
            if (res.ok) {
                // The retired source id must stay a typed denial —
                // including once the slot index is recycled.
                const MonitorResult probe = here.switchTo(slot.id);
                ++stats.migrateStaleProbes;
                if (probe.ok ||
                    (probe.code != MonitorError::NoSuchDomain &&
                     probe.code != MonitorError::StaleHandle)) {
                    fail(i, "retired source id was not denied after "
                            "migration commit");
                }
                std::vector<uint8_t> buf(kPatternBytes);
                thereSmp.mem().readBytes(slot.base, buf.data(),
                                         buf.size());
                for (uint64_t j = 0; j < kPatternBytes; ++j) {
                    if (buf[j] != uint8_t(slot.pattern + j)) {
                        fail(i, "memory pattern mismatch on the "
                                "destination after migration");
                        break;
                    }
                }
            } else if (res.stranded && there.domainMigrating(res.destId) &&
                       !there.resumeDomain(res.destId).ok) {
                // Operator recovery: resume the staged copy.
                fail(i, "stranded-domain recovery resume failed");
            }
            if (res.ok || res.stranded) {
                slot.id = res.destId;
                slot.onDest = !slot.onDest;
            }
        }

        injector.clearPlans();
        if (oracleFwd.failed())
            fail(i, oracleFwd.failure());
        if (oracleBack.failed())
            fail(i, oracleBack.failure());
    }

    injector.disable();

    stats.dualGrantChecks = oracleFwd.checks() + oracleBack.checks();
    stats.dualGrantViolations =
        oracleFwd.violations() + oracleBack.violations();

    if (sampler) {
        sampler->sample(campaign_cycles());
        *config.statsSeriesOut = sampler->dumpJson();
    }
    if (config.statsJsonOut) {
        StatRegistry registry;
        register_all(registry);
        *config.statsJsonOut = registry.dumpJson();
    }
    return stats;
}

} // namespace hpmp
