/**
 * @file
 * Randomized domain-lifecycle fuzzer for the secure monitor.
 *
 * Drives thousands of random monitor calls — create/destroy domains,
 * register/remove/relabel/share GMSs, hot-region hints, domain
 * switches, attestation — from random harts of an SmpSystem with fault
 * injection armed, plus the traffic of one optional layer (ChaosLayer),
 * and judges every operation with the check battery shared with the
 * model checker (verify/check_battery.h): isolation invariants,
 * digest-exact per-hart rollback of failed calls, all-hart convergence,
 * the stale-translation checker, nested-call lock probes and window
 * closure, plus the layer's own audit (RAS containment, migration
 * outcome).
 *
 * Everything is derived from one 64-bit seed, so any failure the CI
 * chaos job finds is replayed exactly with `chaos_fuzz --seed N`.
 */

#ifndef HPMP_VERIFY_CHAOS_ENGINE_H
#define HPMP_VERIFY_CHAOS_ENGINE_H

#include <cstdint>
#include <string>

#include "hpmp/isolation.h"

namespace hpmp
{

/**
 * The subsystem a campaign drives beside the monitor calls. Every
 * layer runs the multi-hart engine (harts == 1 included); Os, Virt and
 * Fleet need at least two harts.
 */
enum class ChaosLayer : uint8_t
{
    /** Monitor calls from random harts, IPI shootdowns with faults in
     *  delivery/ack, DMA transfers behind a two-master IOPMP. */
    Core,
    /**
     * A per-hart kernel (own domain, contiguous PT pool) with an
     * address space per hart and random mmap/munmap/touch/demand-fault
     * traffic. Exercises the os.page_alloc / os.pt_pool_miss fault
     * sites under the same injection plans as the monitor calls.
     */
    Os,
    /**
     * A VirtMachine guest on every hart. Guests run their own GPT/NPT
     * pairs, switch hgatp between nested tables, remap GPT/NPT leaves,
     * and route every vsatp/hgatp write through the hfence shootdown;
     * the stale checker's two-stage oracle audits each protocol step.
     */
    Virt,
    /**
     * Fleet serving: coalesced epochs (several domain switches from
     * rotating harts batched into one shootdown window), tenant churn
     * with retired-id tracking, stale-handle probes (every retired
     * DomainId must stay a typed denial after its slot is recycled),
     * and same-domain re-switches exercising the empty-diff shootdown
     * elision.
     */
    Fleet,
    /**
     * Memory poison across the blast-radius classes — a victim
     * enclave's data pages, pmpte frames of a live PMP Table, free
     * frames, and (rarely, late in the campaign) the monitor-private
     * region — detected through real consumers (bare accesses, DMA
     * beats, a background patrol scrubber) and routed into
     * SecureMonitor::handleMachineCheck, with the containment audit of
     * the check battery after every report.
     */
    Ras,
    /**
     * Two hosts — two SmpSystems with their own monitors — ping-pong
     * domains through the live-migration engine (src/migrate/) while
     * faults hit the protocol's named sites (torn checkpoints,
     * dropped/duplicated/corrupted frames, lost acks, destination
     * attest failures, crashes during commit). Every migration is
     * judged by the migration outcome audit of the check battery, and
     * the cross-system oracle must see no dual-grant window.
     */
    Migrate,
};

/** One fuzz campaign's parameters. */
struct ChaosConfig
{
    uint64_t seed = 1;
    unsigned ops = 1000;
    IsolationScheme scheme = IsolationScheme::Hpmp;
    /** Probability that an op runs with a fault armed at a random site. */
    double faultProb = 0.25;
    /** Harts in the system (per host, for Migrate). */
    unsigned harts = 1;
    ChaosLayer layer = ChaosLayer::Core;
    /**
     * When set, receives the campaign's full stats-registry JSON
     * (monitor + machine observability counters) captured just before
     * the campaign's machine is torn down.
     */
    std::string *statsJsonOut = nullptr;
    /**
     * When set, receives a windowed time-series of the same registry
     * (StatSampler::dumpJson): every counter snapshotted each
     * statsSeriesInterval simulated cycles of monitor work, so a
     * campaign's telemetry can be plotted over time instead of only
     * summed at the end. The campaign clock is the monitor's
     * call_cycles distribution sum (both monitors' sums added for
     * --migrate), which advances exactly with the simulated work.
     */
    std::string *statsSeriesOut = nullptr;
    /** Simulated cycles between stats-series samples. */
    uint64_t statsSeriesInterval = 10000;
};

/** Campaign outcome and coverage counters. */
struct ChaosStats
{
    unsigned ops = 0;            //!< operations attempted
    unsigned okOps = 0;          //!< operations that succeeded
    unsigned failedOps = 0;      //!< typed failures (any cause)
    unsigned injectedFaults = 0; //!< failures caused by the injector
    unsigned degradedOps = 0;    //!< successes in degraded mode
    unsigned rollbackChecks = 0; //!< digest-verified rollbacks
    unsigned invariantChecks = 0;

    // Shootdown and OS-layer coverage (Core/Os/Virt/Fleet/Ras):
    unsigned harts = 1;            //!< harts the campaign ran with
    uint64_t ipiShootdowns = 0;    //!< layout changes that IPI'd siblings
    uint64_t ipiLost = 0;          //!< injected IPI losses (failed closed)
    uint64_t lockContended = 0;    //!< nested calls bounced off the lock
    uint64_t staleProbes = 0;      //!< stale-checker accesses driven
    uint64_t preAckStaleHits = 0;  //!< stale grants inside the window
    uint64_t convergenceChecks = 0; //!< all-hart digest comparisons
    uint64_t osOps = 0;            //!< OS-layer operations performed
    uint64_t dmaOps = 0;           //!< DMA transfers attempted
    uint64_t dmaBusWaits = 0;      //!< transfers stalled by the bus
    uint64_t dmaBusWaitCycles = 0; //!< total shared-bus stall cycles

    // Virt campaigns only (--virt):
    uint64_t virtOps = 0;           //!< guest ops (touch/switch/remap)
    uint64_t hfenceShootdowns = 0;  //!< guest fences riding monitor IPIs
    uint64_t virtStaleProbes = 0;   //!< two-stage oracle probes driven
    uint64_t virtPreAckStaleHits = 0; //!< guest stale grants in-window
    uint64_t staleExecGrants = 0;   //!< stale grants on fetch watches
    uint64_t staleRwGrants = 0;     //!< stale grants on load/store watches

    // Fleet campaigns only (--fleet):
    uint64_t fleetOps = 0;          //!< fleet sub-ops performed
    uint64_t fleetEpochs = 0;       //!< coalesced switch epochs run
    uint64_t fleetChurns = 0;       //!< tenants destroyed (ids retired)
    uint64_t fleetStaleProbes = 0;  //!< retired-id probes (all denied)
    uint64_t coalescedWindows = 0;  //!< windows the monitor flushed
    uint64_t postAckViolations = 0; //!< checker hard failures (must be 0)

    // RAS campaigns only (--ras):
    uint64_t rasOps = 0;            //!< RAS sub-ops performed
    uint64_t rasPoisons = 0;        //!< poison events planted
    uint64_t rasMachineChecks = 0;  //!< poison consumed via access/DMA paths
    uint64_t rasReports = 0;        //!< handleMachineCheck invocations
    uint64_t rasQuarantines = 0;    //!< frames retired by the monitor
    uint64_t rasContained = 0;      //!< domains destroyed to contain poison
    uint64_t rasHeals = 0;          //!< PMP Tables rebuilt from clean frames
    uint64_t rasFatalEvents = 0;    //!< whole-host degrades (monitor poison)
    uint64_t scrubPagesScanned = 0; //!< patrol scrubber coverage
    uint64_t scrubDetections = 0;   //!< poisoned frames the patrol found
    uint64_t rasBlastViolations = 0; //!< containment crossed a boundary (must be 0)

    // Migration campaigns only (--migrate):
    uint64_t migrations = 0;     //!< migration attempts started
    uint64_t migrateCommits = 0; //!< committed + activated on the dest
    uint64_t migrateAborts = 0;  //!< rolled back pre-commit
    uint64_t migrateStranded = 0; //!< committed, COMMIT lost (staged)
    uint64_t migrateRetries = 0;  //!< message retries across phases
    uint64_t migrateBytes = 0;    //!< checkpoint bytes moved
    uint64_t migrateDigestChecks = 0;  //!< post-abort digest audits
    uint64_t dualGrantChecks = 0;      //!< oracle protocol-step probes
    uint64_t dualGrantViolations = 0;  //!< must be 0
    uint64_t migrateStaleProbes = 0;   //!< post-commit stale-id denials

    bool failed = false;   //!< an invariant or rollback check tripped
    std::string failure;   //!< description, mentions op index + seed
};

/**
 * Run one campaign of any layer. Deterministic in (config.seed,
 * config.harts): the interleaving derives from both.
 */
ChaosStats runChaos(const ChaosConfig &config);

} // namespace hpmp

#endif // HPMP_VERIFY_CHAOS_ENGINE_H
