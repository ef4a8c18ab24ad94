/**
 * @file
 * Virtualized-environment machine (paper §6, Figures 8 and 13).
 *
 * Wraps a Machine with the hypervisor-extension translation path:
 * guest accesses walk the guest page table (vsatp, Sv39) through the
 * nested page table (hgatp, Sv39x4), and every supervisor-physical
 * reference — NPT page, guest-PT page or data — goes through the same
 * HPMP permission check and cache hierarchy. Separate combined and
 * G-stage TLBs plus a guest PWC give hfence.vvma / hfence.gvma their
 * distinct costs.
 *
 * Combined-TLB entries carry the real VS-stage leaf U bit and level
 * and the real G-stage leaf permission, so a hit reproduces exactly
 * the faults the full two-stage walk plus physical check would have
 * raised (TLB inlining, §2.2/§7).
 */

#ifndef HPMP_CORE_VIRT_MACHINE_H
#define HPMP_CORE_VIRT_MACHINE_H

#include <memory>
#include <span>
#include <string>

#include "core/machine.h"
#include "pt/two_stage.h"

namespace hpmp
{

/** Outcome of one guest access with the 3D-walk breakdown. */
struct VirtAccessOutcome
{
    Fault fault = Fault::None;
    uint64_t cycles = 0;
    bool tlbHit = false;
    unsigned nptRefs = 0;   //!< nested-PT page references
    unsigned gptRefs = 0;   //!< guest-PT page references
    unsigned dataRefs = 0;
    unsigned pmptRefs = 0;  //!< permission-table references
    unsigned gTlbHits = 0;  //!< G-stage walks short-circuited
    /** Meaningful when fault == MachineCheck: the poisoned physical
     *  address and what kind of reference consumed it. */
    Addr poisonAddr = 0;
    RefOrigin poisonOrigin = RefOrigin::Data;

    bool ok() const { return fault == Fault::None; }
    unsigned totalRefs() const
    {
        return nptRefs + gptRefs + dataRefs + pmptRefs;
    }
};

/** Aggregate outcome of a batched guest replay. */
struct VirtBatchOutcome
{
    uint64_t accesses = 0;
    uint64_t tlbHits = 0;
    uint64_t faults = 0;
    uint64_t cycles = 0;
    uint64_t nptRefs = 0;
    uint64_t gptRefs = 0;
    uint64_t dataRefs = 0;
    uint64_t pmptRefs = 0;
    uint64_t gTlbHits = 0;

    uint64_t totalRefs() const
    {
        return nptRefs + gptRefs + dataRefs + pmptRefs;
    }
};

/** A guest hart running under the hypervisor extension. */
class VirtMachine
{
  public:
    explicit VirtMachine(const MachineParams &params);

    /**
     * Wrap an existing host hart (owned elsewhere, e.g. by an
     * SmpSystem). The host machine's stat groups stay registered by
     * its owner; this instance registers only the virt groups, named
     * `<stat_prefix>`, `<stat_prefix>.tlb`, and so on.
     */
    VirtMachine(Machine &host, const std::string &stat_prefix);

    Machine &machine() { return machine_; }
    PhysMem &mem() { return machine_.mem(); }
    HpmpUnit &hpmp() { return machine_.hpmp(); }
    MemoryHierarchy &hier() { return machine_.hier(); }
    unsigned hartId() const { return machine_.hartId(); }

    /**
     * Fired after a vsatp/hgatp write has applied its local fence
     * (`gstage` tells which kind), so an SMP owner can extend the
     * flush to sibling harts with IPI/remote-fence accounting, the way
     * Machine::setSatp routes through the satp shootdown.
     */
    using HfenceHook = std::function<void(VirtMachine &, bool gstage)>;
    void setHfenceHook(HfenceHook hook) { hfenceHook_ = std::move(hook); }

    /**
     * Guest-table switch: hfence.vvma semantics — guest and combined
     * translations drop, G-stage entries survive.
     */
    void setVsatp(Addr root_pa);
    /** Nested-table switch: hfence.gvma drops everything guest-held. */
    void setHgatp(Addr root_pa);
    void setGuestPriv(PrivMode priv) { guestPriv_ = priv; }

    Addr vsatpRoot() const { return vsatpRoot_; }
    Addr hgatpRoot() const { return hgatpRoot_; }
    PrivMode guestPriv() const { return guestPriv_; }

    /**
     * Restore the virt CSR state captured by a monitor transaction and
     * drop every cached translation (local hfence.gvma) without firing
     * the hfence hook: rollback fences each hart itself, and a nested
     * shootdown from inside the rollback would recurse.
     */
    void restoreVirtState(Addr vsatp_root, Addr hgatp_root,
                          PrivMode guest_priv);

    /** One guest load/store/fetch (the hlv.d path of §8.6). */
    VirtAccessOutcome access(Addr gva, AccessType type);

    /**
     * Batched guest replay: one dispatch for the whole request span,
     * with stats updated in bulk. Faulting accesses are counted and
     * skipped, as in trace replay.
     */
    VirtBatchOutcome accessBatch(std::span<const AccessRequest> reqs);

    /** hfence.vvma: drop guest translations, keep G-stage ones. */
    void hfenceVvma();

    /** hfence.gvma: drop G-stage and combined translations. */
    void hfenceGvma();

    /** Cold caches + all TLBs. */
    void coldReset();

    /** Aggregate counters ("virt_machine.*"). */
    StatGroup &stats() { return stats_; }

    /** TLB/PWC structures, exposed for flush-contract assertions. */
    Tlb &combinedTlb() { return combinedTlb_; }
    Tlb &gStageTlb() { return gStageTlb_; }
    Pwc &vsPwc() { return vsPwc_; }

    /** Per-origin guest reference counts/latencies ("virt_machine.ref.*"). */
    const RefAttribution &refAttr() const { return attr_; }

    /**
     * Register this machine's groups ("virt_machine", its TLB/PWC
     * children) plus the wrapped host machine's groups with a registry.
     */
    void registerStats(StatRegistry &registry);

  private:
    /** Common body of both public constructors. */
    VirtMachine(std::unique_ptr<Machine> owned, Machine *host,
                const std::string &stat_prefix);

    /** The access path proper (stats ladder lives in tally()). */
    VirtAccessOutcome accessInner(Addr gva, AccessType type);

    /** The stats ladder of access() and accessBatch(): tally() adds one
     *  access to a batch total, commit() the total to the counters. */
    void tally(VirtBatchOutcome &b, const VirtAccessOutcome &out);
    void commit(const VirtBatchOutcome &b);

    std::unique_ptr<Machine> ownedMachine_; //!< set by the owning ctor
    Machine &machine_;                      //!< owned or wrapped host
    Tlb combinedTlb_;  //!< gva -> spa with inlined permissions
    Tlb gStageTlb_;    //!< gpa page -> spa page, with G-stage perms
    Pwc vsPwc_;        //!< guest-PTE cache

    Addr vsatpRoot_ = 0;
    Addr hgatpRoot_ = 0;
    PrivMode guestPriv_ = PrivMode::Supervisor;
    HfenceHook hfenceHook_;

    StatGroup stats_;
    StatGroup tlbStats_;
    StatGroup gtlbStats_;
    StatGroup vsPwcStats_;
    Counter statAccesses_;
    Counter statTlbHits_;
    Counter statWalks_;
    Counter statNptRefs_;
    Counter statGptRefs_;
    Counter statDataRefs_;
    Counter statPmptRefs_;
    Counter statGTlbHits_;
    Counter statFaults_;
    Distribution statWalkCycles_; //!< end-to-end cycles of 3D-walk accesses
    RefAttribution attr_{stats_};
};

} // namespace hpmp

#endif // HPMP_CORE_VIRT_MACHINE_H
