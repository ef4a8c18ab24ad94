/**
 * @file
 * The Penglai-HPMP secure monitor (paper §5).
 *
 * The monitor is the only software TCB: it owns the HPMP registers
 * and the per-domain PMP Tables, validates GMS registrations from the
 * untrusted OS, and reprograms the isolation state on domain
 * switches. Three policies are supported, matching the paper's
 * comparison systems:
 *
 *  - Penglai-PMP   (IsolationScheme::Pmp):      every GMS needs its
 *    own segment entry; runs out beyond ~a dozen regions/domains.
 *  - Penglai-PMPT  (IsolationScheme::PmpTable): one table-mode entry
 *    covers all memory; unlimited GMSs, slow checks.
 *  - Penglai-HPMP  (IsolationScheme::Hpmp):     cache-based
 *    management — all GMSs live in the table, "fast" GMSs are
 *    mirrored into higher-priority segment entries.
 *
 * Operation costs (cycles) are modelled from the work performed:
 * trap overhead + CSR writes + pmpte stores + TLB/PMPTW flushes,
 * which is what Fig. 14 measures.
 */

#ifndef HPMP_MONITOR_SECURE_MONITOR_H
#define HPMP_MONITOR_SECURE_MONITOR_H

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/interval_set.h"
#include "base/trace.h"
#include "core/machine.h"
#include "hpmp/isolation.h"
#include "monitor/attestation.h"
#include "monitor/domain_registry.h"
#include "monitor/gms.h"
#include "pmpt/pmp_table.h"

namespace hpmp
{

/** Per-operation cost knobs for the monitor's cycle model. */
struct MonitorCosts
{
    unsigned trapCycles = 380;      //!< ecall into M-mode and back
    unsigned csrWriteCycles = 4;    //!< one pmpaddr/pmpcfg write
    unsigned tableWriteCycles = 10; //!< one pmpte store (uncached)
    unsigned flushCycles = 24;      //!< sfence.vma + PMPTW flush
    // Remote-fence (IPI) protocol, multi-hart systems only (§9):
    unsigned ipiPostCycles = 80;     //!< software-interrupt post, per call
    unsigned ipiAckCycles = 120;     //!< delivery + ack round trip, per hart
    unsigned remoteFenceCycles = 24; //!< fence executed in the IPI handler
    unsigned hfenceCycles = 28;      //!< hfence.gvma in the IPI handler,
                                     //!< per hart (virt-enabled systems)
};

/**
 * Typed monitor-call failure causes. Every failing call returns one of
 * these alongside the human-readable message, and guarantees the
 * monitor + HPMP + PMP-table state is bit-identical to before the
 * call (transactional rollback; see DESIGN.md "Error-handling
 * contract").
 */
enum class MonitorError : uint8_t
{
    None = 0,
    NoSuchDomain,     //!< domain id unknown or already destroyed
    NoSuchGms,        //!< no GMS at the given base in that domain
    BadArgument,      //!< granularity/NAPOT/self-share violations
    OverlapDomain,    //!< region overlaps another domain's memory
    OverlapMonitor,   //!< region overlaps the monitor-private region
    PermExceedsOwner, //!< shared permission wider than the owner's
    OutOfPmpEntries,  //!< segment entries exhausted (Penglai-PMP)
    OutOfTableFrames, //!< monitor-private PMP-table frames exhausted
    InjectedFault,    //!< a fault-injection site fired mid-call
    LockContended,    //!< another hart holds the global monitor lock
    StaleHandle,      //!< DomainId from a destroyed, since-recycled domain
    DomainMigrating,  //!< domain is suspended for an in-flight migration
    RasFatal,         //!< host degraded by an uncontained memory error
    QuarantinedPage,  //!< region overlaps a retired (quarantined) frame
};

/** Number of MonitorError values (sizes the per-error counters). */
constexpr unsigned kNumMonitorErrors = 15;

const char *toString(MonitorError error);

/**
 * What handleMachineCheck() did with a reported poisoned address — the
 * three blast-radius classes of DESIGN.md §15 plus the no-op repeat.
 */
enum class RasOutcome : uint8_t
{
    AlreadyQuarantined, //!< repeat report of a retired frame: no-op
    QuarantinedFree,    //!< frame retired; no domain had to die
    ContainedDomain,    //!< owning domain destroyed, its frame retired
    HealedTable,        //!< pmpte subtree rebuilt into fresh frames
    HostFatal,          //!< monitor-private state hit: host degraded
};

const char *toString(RasOutcome outcome);

/** Result of a monitor call. */
struct MonitorResult
{
    bool ok = true;
    uint64_t cycles = 0;
    MonitorError code = MonitorError::None;
    std::string error;
    /**
     * The call succeeded in a documented degraded mode: under Hpmp,
     * segment-entry exhaustion demotes the coldest fast GMS to table
     * mode (it stays protected, only slower) instead of failing.
     */
    bool degraded = false;

    static MonitorResult
    fail(MonitorError code, std::string why)
    {
        MonitorResult r;
        r.ok = false;
        r.code = code;
        r.error = std::move(why);
        return r;
    }
};

/**
 * Result of a value-returning monitor call (measurement, attestation).
 * The value is only meaningful when ok — a bad domain id from the
 * untrusted OS is a typed error, not a monitor panic.
 */
template <typename T>
struct MonitorValue
{
    bool ok = true;
    MonitorError code = MonitorError::None;
    std::string error;
    T value{};

    static MonitorValue
    fail(MonitorError code, std::string why)
    {
        MonitorValue r;
        r.ok = false;
        r.code = code;
        r.error = std::move(why);
        return r;
    }
};

/** Monitor configuration. */
struct MonitorConfig
{
    IsolationScheme scheme = IsolationScheme::Hpmp;
    Addr monitorBase = 0;           //!< monitor-private region
    uint64_t monitorSize = 128_MiB; //!< holds monitor + PMP tables
    unsigned pmptLevels = 2;
    /**
     * Use huge (32 MiB) pmptes for aligned whole-span updates. Speeds
     * up large allocations (Fig. 14-d) at the cost of coarser table
     * contents; off by default to model page-interleaved ownership.
     */
    bool hugePmpte = false;
    MonitorCosts costs;
};

class SmpSystem;

/** The machine-mode secure monitor. */
class SecureMonitor
{
  public:
    SecureMonitor(Machine &machine, const MonitorConfig &config);

    /**
     * Multi-hart monitor: controls every hart of `smp`. Hart 0's HPMP
     * unit is the canonical register file the monitor programs
     * directly; sibling harts converge to it through the modelled
     * IPI/remote-fence protocol (shootdowns at the end of every
     * layout-changing call, costed into MonitorResult.cycles and the
     * monitor.ipi_* stats). Calls take the global monitor lock; a
     * second hart calling mid-transaction gets LockContended. With one
     * hart this is bit-identical to the Machine constructor.
     */
    SecureMonitor(SmpSystem &smp, const MonitorConfig &config);

    IsolationScheme scheme() const { return config_.scheme; }

    /** Create an empty domain; the host is domain 0. */
    DomainId createDomain();

    /** Destroy a domain and drop its GMSs. */
    MonitorResult destroyDomain(DomainId id);

    /**
     * Register a GMS for a domain (monitor validates that the region
     * does not overlap another domain's private memory; regions with
     * Perm::none() act as blocked holes and may overlap is not
     * allowed either).
     */
    MonitorResult addGms(DomainId id, const Gms &gms);

    /** Remove the GMS starting at base. */
    MonitorResult removeGms(DomainId id, Addr base);

    /** OS hint: relabel a GMS (fast <-> slow). Registers only. */
    MonitorResult setLabel(DomainId id, Addr base, GmsLabel label);

    /**
     * Change the permission of an existing GMS (e.g. granting a
     * region to an enclave). Touches table entries and registers.
     */
    MonitorResult setPerm(DomainId id, Addr base, Perm perm);

    /**
     * Inter-enclave communication: expose the GMS starting at `base`
     * in domain `owner` to `peer` as well (both see it with `perm`,
     * which must not exceed the owner's). The owner's copy is marked
     * shared; revoke with removeGms(peer, base).
     */
    MonitorResult shareGms(DomainId owner, Addr base, DomainId peer,
                           Perm perm);

    /**
     * Measure a domain: fold the Merkle roots of all its GMS regions
     * (enclave measurement for attestation). Fails with NoSuchDomain
     * on a bad id — the id is OS-controlled input.
     */
    MonitorValue<MerkleHash> measureDomain(DomainId id) const;

    /**
     * Produce a signed attestation report for a domain. Read-only:
     * fails (typed, nothing to roll back) on a bad id or when a fault
     * site fires mid-call.
     */
    MonitorValue<AttestationReport> attestDomain(DomainId id,
                                                 uint64_t nonce) const;

    /** The monitor's attestation identity (verification side). */
    const Attestor &attestor() const { return attestor_; }

    /**
     * Hot-region hint (paper §9, the ioctl extension): carve the
     * NAPOT range [base, base+size) out of the covering GMS into its
     * own "fast" GMS so it can be mirrored into a segment entry. The
     * permission is inherited, so the permission table needs no
     * update — only registers change.
     */
    MonitorResult hintHotRegion(DomainId id, Addr base, uint64_t size);

    /** Switch the active domain, reprogramming the isolation state. */
    MonitorResult switchTo(DomainId id);

    /**
     * Quiesce + revoke: mark a domain as migrating-out (DESIGN.md
     * §12). A suspended domain keeps its memory and tables but every
     * grant path is revoked — switchTo and all mutating calls on it
     * fail with DomainMigrating until resumeDomain() (abort path) or
     * destroyDomain() (migration commit). The domain must not be the
     * one currently running on this monitor: the migration engine
     * switches to the host first, so suspension itself touches no
     * register or table state and a later rollback is bit-exact.
     */
    MonitorResult suspendDomain(DomainId id);

    /** Abort path of a migration: make a suspended domain grantable
     *  again. Fails unless the domain is currently migrating. */
    MonitorResult resumeDomain(DomainId id);

    /** True iff the domain exists and is suspended for migration. */
    bool domainMigrating(DomainId id) const;

    /**
     * True iff this monitor would grant the domain access to its
     * memory right now: the domain exists, is alive and is not
     * suspended for migration. The cross-system migration oracle
     * probes this on both hosts at every protocol step — it must
     * never be true on both sides at once (the no-dual-grant
     * invariant).
     */
    bool domainGrantable(DomainId id) const;

    /**
     * Machine-check containment policy (DESIGN.md §15). The firmware
     * RAS handler reports the physical address whose poison was
     * consumed; the monitor classifies the blast radius and contains
     * it:
     *
     *  - pmpte frame of a live domain's PMP Table: self-heal — the
     *    subtree is rebuilt from the monitor's authoritative GMS
     *    layout into fresh frames (the poisoned bytes are never
     *    read), the root is re-pointed under a shootdown window and
     *    the domain's measurement is verified unchanged. Counted in
     *    ras.heals; the dead frame is retired.
     *  - monitor-private state (including a table frame the monitor
     *    cannot attribute): whole-host degrade — rasFatal() latches
     *    and every further mutating call fails with RasFatal.
     *  - a live enclave's data page: the frame is retired and only
     *    the owning domain is destroyed (its freed pages scrubbed);
     *    sibling domains and the host are untouched.
     *  - the host's own page, or an unowned free frame: the frame is
     *    retired in place (the host domain cannot be destroyed).
     *
     * Idempotent: re-reporting an already-retired frame is an ok
     * no-op. A containment step that fails mid-way (injected fault)
     * rolls back bit-identically and surfaces the typed error.
     */
    MonitorValue<RasOutcome> handleMachineCheck(Addr pa);

    /** True once an uncontainable error degraded the whole host. */
    bool rasFatal() const { return rasFatal_; }

    /** True iff the frame holding pa was retired by containment. */
    bool pageQuarantined(Addr pa) const;

    /** Number of retired frames. */
    size_t quarantinedPages() const { return quarantine_.size(); }

    /**
     * Open a coalesced shootdown window (multi-hart monitors only; a
     * no-op hint otherwise). While active, layout-committing calls
     * defer their per-call IPI/hfence shootdown into one shared fence
     * window: the first commit opens it, later commits join it, and
     * endCoalescedWindow() runs the single IPI round that fences every
     * sibling hart to the final state. This is the fleet-serving
     * batching path — N back-to-back domain switches inside one
     * monitor epoch pay one shootdown, not N.
     *
     * The stale-translation contract is unchanged: the window opens at
     * the *first* commit, so a sibling hart is never considered fenced
     * between the first commit and the flush, and post-ack grants of
     * pre-window state remain hard failures (StaleChecker enforces
     * this via IpiPhase::CoalescedCommit oracle refreshes).
     */
    void beginCoalescedWindow();

    /**
     * Flush and close the coalesced window: one IPI/hfence round over
     * all sibling harts covering every commit since begin. Lost IPIs
     * inside the window are re-posted with bounded retries (counted in
     * monitor.ipi_retries only — monitor.ipi_post stays equal to
     * windows × sibling harts). Returns the fence cycles spent, 0 if
     * no commit was deferred.
     */
    uint64_t endCoalescedWindow();

    /** True between beginCoalescedWindow() and endCoalescedWindow(). */
    bool coalescingActive() const { return coalesceActive_; }

    /** Commits deferred into the currently open coalesced window. */
    uint64_t pendingCoalescedCommits() const { return coalescedCommits_; }

    /**
     * Verification mutation knob (tools/model_check --mutate): during
     * the Nth remoteShootdown from now (1-based), skip every sibling
     * hart's fence work — register sync, sfence.vma, PMPTW flush —
     * while still walking the protocol and acking. This deliberately
     * plants the exact bug class the stale checker exists to catch (a
     * hart acked without being fenced), so CI can prove the model
     * checker actually fails on a broken protocol. 0 disarms. Never
     * call outside tests and verification tools.
     */
    void testSkipFenceNth(uint64_t nth)
    {
        skipFenceNth_ = nth;
        skipFenceSeen_ = 0;
    }

    DomainId currentDomain() const { return current_; }
    size_t domainCount() const { return domains_.live(); }

    /** GMSs of a domain (for tests and the OS view). */
    const std::vector<Gms> &gmsOf(DomainId id) const;

    /** Ids of all live domains, ascending (for the invariant checker). */
    std::vector<DomainId> domainIds() const;

    /** True iff the domain id exists and is alive. */
    bool domainExists(DomainId id) const;

    /** The domain's PMP Table, or nullptr if none was created yet. */
    const PmpTable *tablePeek(DomainId id) const;

    const MonitorConfig &config() const { return config_; }

    /** Number of segment entries available to fast GMSs. */
    unsigned segmentBudget() const;

    /**
     * Fold the monitor's complete security-relevant state — domain
     * map, GMS lists, HPMP registers, CSR-write counter, table-frame
     * cursor and every pmpte of every domain's PMP Table — into one
     * 64-bit digest. Two equal digests mean bit-identical state; the
     * chaos fuzzer uses this to prove that failed calls rolled back
     * completely.
     */
    uint64_t stateDigest() const;

    /**
     * stateDigest as seen from one hart: the shared monitor metadata
     * and tables folded with *that hart's* HPMP register file. After a
     * successful layout-changing call all hart digests agree; after a
     * failed call each hart must equal its own pre-call digest (the
     * cross-hart rollback contract).
     *
     * With virt enabled, the hart's guest CSR state (vsatp/hgatp
     * roots, guest privilege) is folded in too, so rollback is also
     * judged on the virt view. Pass `include_virt = false` for
     * convergence checks: per-hart guests legitimately run different
     * tables, so only the host view must agree across harts.
     *
     * Pass `include_csr_counter = false` for convergence checks too:
     * a coalesced shootdown window fences siblings with one *net*
     * register diff covering every commit in the window, so a
     * sibling's CSR-write counter legitimately advances by less than
     * the canonical unit's per-commit sum — register contents must
     * agree across harts, per-hart write-cost counters need not.
     * Rollback checks keep the counter: a failed call must restore
     * each hart bit-identically, counter included.
     */
    uint64_t hartStateDigest(unsigned hart, bool include_virt = true,
                             bool include_csr_counter = true) const;

    /** The machine this monitor controls. */
    Machine &machine() { return machine_; }

    /** The SMP system, or nullptr for a single-machine monitor. */
    SmpSystem *smp() { return smp_; }

    /**
     * Monitor-call counters ("monitor.*"): calls, ok/failed split,
     * rollbacks, degraded commits, demote-coldest events, per-call
     * cycle and CSR-write distributions.
     */
    StatGroup &stats() { return stats_; }

    /** Register the "monitor" group with a registry. */
    void registerStats(StatRegistry &registry) { registry.add(&stats_); }

  private:
    struct Domain
    {
        std::vector<Gms> gmsList;
        std::unique_ptr<PmpTable> table; //!< lazily created
        bool alive = true;
        bool migrating = false; //!< suspended for an in-flight migration
    };

    /**
     * Transaction guard: snapshots all mutable monitor + HPMP state on
     * entry, journals pmpte stores, and restores everything
     * bit-identically on rollback. Defined in the .cc.
     */
    struct Txn;
    friend struct Txn;

    /**
     * Run one monitor call transactionally: roll back on any abort.
     * `callName` labels the call's trace span (DESIGN.md §13).
     */
    template <typename Fn>
    MonitorResult transact(const char *callName, Fn &&body);

    Domain &domain(DomainId id);
    const Domain &domain(DomainId id) const;

    /** Like domain(), but returns nullptr instead of panicking: the
     *  domain id is OS-controlled input, not an internal invariant. */
    Domain *findDomain(DomainId id);

    /**
     * Typed failure cause for a lookup miss on `id`: StaleHandle when
     * the id belonged to a destroyed domain whose index was recycled
     * (generation mismatch), plain NoSuchDomain otherwise.
     */
    MonitorError lookupError(DomainId id) const;

    /** failCall() for a lookup miss, with the matching message. */
    MonitorResult failNoDomain(DomainId id) const;

    /** Frames for PMP tables come from the monitor-private region. */
    Addr allocTableFrame(unsigned npages);

    /** Ensure the domain's PMP Table exists and reflects its GMSs. */
    PmpTable &tableOf(DomainId id);

    /** Write one GMS's permission into the domain's table. */
    void writeGmsToTable(Domain &dom, const Gms &gms);

    /**
     * Reprogram the HPMP registers for the current domain according to
     * the configured scheme. Throws MonitorAbort when the scheme
     * cannot represent the domain (PMP out of entries).
     * @return true when the layout had to degrade (Hpmp demoted the
     *         coldest fast GMS to table mode).
     */
    bool applyLayout();

    /**
     * Fence the initiating hart and IPI-shootdown every other hart so
     * all of them converge to the canonical register file. Runs inside
     * the transaction: a lost IPI or ack (FAULT_POINT smp.ipi_deliver
     * / smp.ipi_ack) throws, the call fails closed and the cross-hart
     * rollback restores and re-fences every hart. No-op without an
     * SmpSystem or with one hart.
     */
    void remoteShootdown();

    /**
     * Join the open coalesced window (opening it on the first commit)
     * instead of running a per-call shootdown. Publishes WindowBegin /
     * CoalescedCommit to the interleave hook so checkers track the
     * moving canonical state.
     */
    void deferShootdown();

    /** stateDigest seen through a specific hart's register file. */
    uint64_t digestWith(const HpmpUnit &unit,
                        bool include_csr_counter = true) const;

    /** Account cycles for CSR/table writes since the last snapshot. */
    void beginOp();
    uint64_t opCycles(bool flushed);

    /**
     * Fold one finished call into the "monitor.*" counters. const (and
     * the counters mutable) because the read-only calls — measurement,
     * attestation — fail in const context too.
     */
    void noteResult(bool ok, MonitorError code, uint64_t cycles,
                    bool degraded, bool rolled_back) const;

    /** Fail before any mutation (validation): counted, nothing to
     *  roll back. */
    MonitorResult failCall(MonitorError code, std::string why) const;

    /** The typed failure every mutating call takes once rasFatal_. */
    MonitorResult failRasFatal() const;

    /** Latch the whole-host degrade (uncontainable error at pa). */
    void enterRasFatal(Addr pa);

    /**
     * Retire the frame holding pa: backing dropped (releasePage),
     * poison bits kept, so later touches keep machine-checking
     * instead of reading recycled bytes. Idempotent.
     */
    void quarantinePage(Addr pa);

    /**
     * Self-heal a domain's PMP Table after a pmpte frame took poison:
     * rebuild into fresh frames from the GMS list, re-point the root
     * and fence every hart. Transactional — an abort mid-rebuild
     * restores the original table object bit-identically.
     */
    MonitorResult healTable(DomainId id);

    /**
     * Scrub-on-free: drop the backing of a destroyed domain's
     * exclusively-owned pages so a later owner of the frame reads
     * zeros, never the dead domain's data. Runs after the destroy
     * committed; shared regions (still live in a peer) and retired
     * frames are skipped.
     */
    void scrubFreedGms(const std::vector<Gms> &freed);

    Machine &machine_;
    SmpSystem *smp_ = nullptr; //!< set by the SmpSystem constructor
    MonitorConfig config_;
    Attestor attestor_{0x5ec0de};
    DomainRegistry<Domain> domains_;
    DomainId current_ = 0;
    Addr tableFrameNext_;
    Addr tableFrameEnd_;
    Txn *activeTxn_ = nullptr;
    uint64_t heatClock_ = 0; //!< recency stamps for fast-GMS demotion

    uint64_t csrSnapshot_ = 0;
    uint64_t tableWriteSnapshot_ = 0;
    uint64_t tableWritesTotal_ = 0; //!< across destroyed tables
    /**
     * Every pmpte store of every table this monitor ever created, in
     * one scalar (fed by PmpTable::setWriteAggregate). Per-call write
     * deltas are two subtractions instead of an O(domains) walk.
     */
    uint64_t tableWritesAgg_ = 0;

    uint64_t pendingIpiCycles_ = 0; //!< IPI cost of the call in flight
    uint64_t pendingHfenceCycles_ = 0; //!< guest-fence cost, virt systems
    bool ipiWindowOpen_ = false;    //!< shootdown window in progress
    uint64_t ipiWindowSeq_ = 0;     //!< seq of the open window

    uint64_t skipFenceNth_ = 0;  //!< mutation: shootdown # to sabotage
    uint64_t skipFenceSeen_ = 0; //!< shootdowns since the knob was armed

    std::unordered_set<uint64_t> quarantine_; //!< retired page bases
    bool rasFatal_ = false; //!< whole-host degrade latch

    bool coalesceActive_ = false;   //!< begin..end coalesced epoch
    bool coalescedOpen_ = false;    //!< >=1 commit deferred, window open
    uint64_t coalescedSeq_ = 0;     //!< seq of the coalesced window
    SpanId coalescedSpan_ = 0;      //!< epoch parent span (§13)
    uint64_t coalescedCommits_ = 0; //!< commits in the open window
    unsigned lastCommitter_ = 0;    //!< hart of the latest deferred commit

    StatGroup stats_{"monitor"};
    mutable Counter statCalls_;
    mutable Counter statOk_;
    mutable Counter statFailed_;
    mutable Counter statRollbacks_;     //!< failed calls that rolled back
    mutable Counter statDegraded_;      //!< calls committed degraded
    Counter statDemotions_;             //!< fast GMSs demoted to table mode
    mutable Counter statErrors_[kNumMonitorErrors]; //!< per-error failures
    mutable Distribution statCallCycles_;    //!< cycles per committed call
    mutable Distribution statCsrPerCall_;    //!< CSR writes per committed call
    mutable Distribution statTableWritesPerCall_; //!< pmpte stores per call
    Counter statIpiShootdowns_; //!< layout changes that ran the protocol
    Counter statIpiSent_;       //!< IPIs posted to remote harts
    Counter statIpiAcked_;      //!< delivery + ack round trips completed
    Counter statIpiLost_;       //!< injected IPI losses (call failed closed)
    Distribution statIpiCycles_; //!< IPI cycles per shootdown-bearing call
    Counter statHfenceShootdowns_; //!< shootdowns that also fenced guests
    Counter statHfenceSent_;    //!< guest-fence requests piggybacked on IPIs
    Counter statHfenceAcked_;   //!< guest fences completed and acked
    Counter statHfenceLost_;    //!< injected hfence losses (failed closed)
    Distribution statHfenceCycles_; //!< guest-fence cycles per such call
    Counter statCoalescedWindows_;  //!< coalesced windows flushed
    Distribution statCommitsPerWindow_; //!< commits per coalesced window
    Counter statIpiPost_;    //!< sibling posts in coalesced flushes
    Counter statIpiRetries_; //!< lost-IPI re-posts inside coalesced windows
    Counter statIpiElided_;  //!< shootdowns skipped on empty layout diffs
    mutable Counter statRasReports_; //!< machine checks reported to the monitor
    Counter statRasQuarantines_;     //!< frames retired from circulation
    Counter statRasContained_;       //!< domains destroyed to contain poison
    Counter statRasHeals_;           //!< PMP tables rebuilt in place
    Counter statRasFatal_;           //!< uncontainable errors (host degrade)
    Counter statRasScrubbed_;        //!< freed pages scrubbed before reuse
};

} // namespace hpmp

#endif // HPMP_MONITOR_SECURE_MONITOR_H
