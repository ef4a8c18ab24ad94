/**
 * @file
 * The end-to-end memory-access engine.
 *
 * Machine ties together the TLB, page-table walker, PWC, the HPMP
 * permission checker and the cache/DRAM hierarchy, reproducing the
 * reference streams of the paper's Figures 2 and 4:
 *
 *   - TLB hit: inlined permission, data reference only.
 *   - TLB miss: one walkStage() pass over the page table. Each level
 *     takes its PTE from the PWC, or makes one reference preceded by
 *     a physical permission check; then the data reference with its
 *     own check. In table mode every check costs up to two pmpte
 *     references through the same cache hierarchy.
 *
 * The isolation *scheme* is not machine state — it is whatever the
 * secure monitor programmed into the HPMP entries. The machine simply
 * checks every actual physical reference.
 */

#ifndef HPMP_CORE_MACHINE_H
#define HPMP_CORE_MACHINE_H

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "base/attribution.h"
#include "base/fault_inject.h"
#include "base/stats.h"
#include "core/params.h"
#include "core/pwc.h"
#include "core/tlb.h"
#include "hpmp/hpmp_unit.h"
#include "hpmp/isolation.h"
#include "mem/hierarchy.h"
#include "mem/phys_mem.h"
#include "pt/walker.h"

namespace hpmp
{

/** Per-access outcome and reference breakdown. */
struct AccessOutcome
{
    Fault fault = Fault::None;
    uint64_t cycles = 0;
    bool tlbHit = false;
    unsigned ptRefs = 0;    //!< page-table page reads
    unsigned adRefs = 0;    //!< A/D-bit update writes
    unsigned pmptRefs = 0;  //!< permission-table entry references
    unsigned dataRefs = 0;  //!< the data/instruction reference itself
    unsigned pwcSkips = 0;  //!< PT references skipped by the PWC
    /** Meaningful when fault == MachineCheck: the poisoned physical
     *  address and what kind of reference consumed it. */
    Addr poisonAddr = 0;
    RefOrigin poisonOrigin = RefOrigin::Data;

    bool ok() const { return fault == Fault::None; }
    unsigned totalRefs() const
    {
        return ptRefs + adRefs + pmptRefs + dataRefs;
    }
};

/** Aggregate outcome of a batched replay (Machine::accessBatch). */
struct BatchOutcome
{
    uint64_t accesses = 0;
    uint64_t tlbHits = 0;
    uint64_t faults = 0;
    uint64_t cycles = 0;
    uint64_t ptRefs = 0;
    uint64_t adRefs = 0;
    uint64_t pmptRefs = 0;
    uint64_t dataRefs = 0;
    uint64_t pwcSkips = 0;
    /**
     * Requests consumed, including the faulting one when
     * `stop_on_fault` ended the batch early.
     */
    uint64_t completed = 0;
    Fault firstFault = Fault::None;

    uint64_t totalRefs() const
    {
        return ptRefs + adRefs + pmptRefs + dataRefs;
    }
};

class CoreModel;

/** One simulated hart plus its memory system. */
class Machine
{
  public:
    explicit Machine(const MachineParams &params);

    /**
     * SMP hart constructor: the machine shares `shared_mem` with its
     * sibling harts (per-hart TLB/PWC/HPMP/caches stay private) and
     * names its stat groups `<stat_prefix>`, `<stat_prefix>.tlb`, ...
     * Hart 0 of an SmpSystem uses the default "machine" prefix so a
     * single-hart system dumps byte-identical stats to a standalone
     * Machine.
     */
    Machine(const MachineParams &params, PhysMem &shared_mem,
            const std::string &stat_prefix, unsigned hart_id);

    const MachineParams &params() const { return params_; }

    PhysMem &mem() { return *mem_; }
    MemoryHierarchy &hier() { return *hier_; }
    HpmpUnit &hpmp() { return *hpmp_; }
    Tlb &tlb() { return *tlb_; }
    Pwc &pwc() { return *pwc_; }

    /**
     * Point the MMU at a page table. A satp write implies a local
     * sfence.vma; when a remote-fence hook is installed (SmpSystem)
     * the write is also routed through it so sibling harts' cached
     * shared-PT state is fenced and accounted, never silently stale.
     */
    void setSatp(Addr root_pa, PagingMode mode);

    /**
     * Hook invoked after the local fence of every setSatp, with this
     * machine as the writing hart. Installed by SmpSystem; standalone
     * machines have none and pay nothing.
     */
    using SatpFenceHook = std::function<void(Machine &)>;
    void setSatpFenceHook(SatpFenceHook hook)
    {
        satpFenceHook_ = std::move(hook);
    }

    /** Hart index within an SmpSystem (0 for standalone machines). */
    unsigned hartId() const { return hartId_; }

    /** Disable translation (bare / M-mode style direct physical). */
    void setBare() { translationOn_ = false; }

    void setPriv(PrivMode priv) { priv_ = priv; }
    PrivMode priv() const { return priv_; }

    /** Current translation CSR state (migration checkpointing). */
    bool translationOn() const { return translationOn_; }
    Addr satpRoot() const { return satpRoot_; }
    PagingMode pagingMode() const { return mode_; }

    /** Perform one load/store/fetch at virtual address va. */
    AccessOutcome access(Addr va, AccessType type);

    /**
     * Replay a span of requests in one dispatch, updating the
     * "machine.*" counters in bulk. Each access is optionally charged
     * to `model`; with `stop_on_fault` the batch ends at the first
     * faulting request (already counted in `completed`), so callers
     * can service the fault and resume with the remaining span.
     */
    BatchOutcome accessBatch(std::span<const AccessRequest> reqs,
                             CoreModel *model = nullptr,
                             bool stop_on_fault = false);

    /** sfence.vma rs1=x0: flush TLB and PWC. */
    void sfenceVma();

    /** Flush TLB/PWC/PMPTW and all caches; close DRAM rows. */
    void coldReset();

    /**
     * Check one physical reference against the programmed HPMP state,
     * charging pmpte references to `out`. Public so the virtualized
     * machine can reuse it.
     */
    Fault checkPhys(Addr pa, AccessType type, AccessOutcome &out);

    /**
     * The memory side of one reference whose protection check passed
     * (or is inlined in a TLB entry): poison, consumed fail-closed,
     * then the hierarchy access, recorded under `origin` in `attr`.
     * `out` is an AccessOutcome or a VirtAccessOutcome.
     */
    template <class Outcome>
    Fault
    memRef(Addr pa, AccessType type, RefOrigin origin, RefAttribution &attr,
           Outcome &out)
    {
        if (consumePoison(pa, 8, origin, out) != Fault::None)
            return Fault::MachineCheck;
        const uint64_t ref_cycles =
            hier_->access(pa, type == AccessType::Store,
                          type == AccessType::Fetch).cycles;
        out.cycles += ref_cycles;
        attr.record(origin, ref_cycles);
        return Fault::None;
    }

    /**
     * Charge one reference of a walk: the physical check, then
     * memRef. Shared by the native and the two-stage walk.
     */
    Fault
    chargeRef(Addr pa, AccessType type, RefOrigin origin,
              RefAttribution &attr, AccessOutcome &out)
    {
        const Fault fault = checkPhys(pa, type, out);
        return fault != Fault::None ? fault
                                    : memRef(pa, type, origin, attr, out);
    }

    /**
     * Functional probe of the physical permission triple for a page
     * (used for TLB inlining; costs nothing).
     */
    Perm physPermProbe(Addr pa) const;

    /** Aggregate counters ("machine.*"): accesses, walks, faults... */
    StatGroup &stats() { return stats_; }

    /** Per-origin reference counts/latencies ("machine.ref.*"). */
    const RefAttribution &refAttr() const { return attr_; }
    RefAttribution &refAttr() { return attr_; }

    /**
     * Register every stat group of this machine and its components
     * ("machine", "machine.tlb", "machine.pwc", "machine.hpmp",
     * "machine.hpmp.pmptw_cache") with a registry for dumping.
     */
    void registerStats(StatRegistry &registry);

  private:
    Machine(const MachineParams &params, std::unique_ptr<PhysMem> owned,
            PhysMem *shared, const std::string &stat_prefix,
            unsigned hart_id);

    MachineParams params_;
    std::unique_ptr<PhysMem> ownedMem_; //!< null when DRAM is shared
    PhysMem *mem_;
    std::unique_ptr<MemoryHierarchy> hier_;
    std::unique_ptr<HpmpUnit> hpmp_;
    std::unique_ptr<Tlb> tlb_;
    std::unique_ptr<Pwc> pwc_;

    bool translationOn_ = false;
    Addr satpRoot_ = 0;
    PagingMode mode_ = PagingMode::Sv39;
    PrivMode priv_ = PrivMode::Supervisor;
    unsigned hartId_ = 0;
    SatpFenceHook satpFenceHook_;

    /**
     * The access path proper (stats ladder lives in tally()): the
     * TLB-hit path, inline; everything else goes to accessMiss().
     */
    AccessOutcome accessInner(Addr va, AccessType type);

    /** Bare mode and the TLB-miss walk (the lookup already missed). */
    AccessOutcome accessMiss(Addr va, AccessType type);

    /**
     * The data/instruction reference at pa, its protection check
     * already passed: the ras.poison_on_fill site, memRef and
     * dataRefs. Sets out.fault.
     */
    void dataRef(Addr pa, AccessType type, AccessOutcome &out);

    /**
     * Consume poison on [pa, pa+len): returns MachineCheck (and tags
     * `out` with the address + origin) when the range carries an
     * uncorrectable-error mark, None otherwise. Fail closed: the
     * faulting reference never returns data.
     */
    template <class Outcome>
    Fault
    consumePoison(Addr pa, uint64_t len, RefOrigin origin, Outcome &out)
    {
        if (!mem_->isPoisoned(pa, len))
            return Fault::None;
        out.poisonAddr = pa;
        out.poisonOrigin = origin;
        return Fault::MachineCheck;
    }

    /** The stats ladder of access() and accessBatch(): tally() adds one
     *  access to a batch total, commit() the total to the counters. */
    void tally(BatchOutcome &b, const AccessOutcome &out);
    void commit(const BatchOutcome &b);

    StatGroup stats_;
    StatGroup tlbStats_;
    StatGroup pwcStats_;
    StatGroup hpmpStats_;
    StatGroup pmptwStats_;
    Counter statAccesses_;
    Counter statWalks_;
    Counter statPtRefs_;
    Counter statPmptRefs_;
    Counter statPageFaults_;
    Counter statAccessFaults_;
    Counter statMachineChecks_;
    Distribution statWalkCycles_; //!< end-to-end cycles of TLB-miss accesses
    RefAttribution attr_{stats_};

    static constexpr unsigned kL2TlbPenalty = 2;
};

inline AccessOutcome
Machine::access(Addr va, AccessType type)
{
    const AccessOutcome out = accessInner(va, type);
    BatchOutcome b;
    tally(b, out);
    commit(b);
    return out;
}

inline AccessOutcome
Machine::accessInner(Addr va, AccessType type)
{
    TlbHitLevel hit_level = TlbHitLevel::Miss;
    const TlbEntry *entry =
        translationOn_ ? tlb_->lookup(va, &hit_level) : nullptr;
    if (!entry)
        return accessMiss(va, type);

    // The entry's precomputed allow masks stand in for the leaf and
    // physical checks; the inlined physical permission makes PMP/PMPT
    // activity unnecessary on hits (TLB inlining, §7).
    AccessOutcome out;
    out.tlbHit = true;
    if (hit_level == TlbHitLevel::L2)
        out.cycles += kL2TlbPenalty;
    out.fault = entry->check(priv_, type);
    if (out.fault == Fault::None)
        dataRef(entry->translate(va), type, out);
    return out;
}

inline void
Machine::dataRef(Addr pa, AccessType type, AccessOutcome &out)
{
    // ras.poison_on_fill fires only when armed by name.
    if (FAULT_POINT_NAMED("ras.poison_on_fill"))
        mem_->poisonLine(pa);
    out.fault = memRef(pa, type, RefOrigin::Data, attr_, out);
    if (out.fault == Fault::None)
        out.dataRefs = 1;
}

inline void
Machine::tally(BatchOutcome &b, const AccessOutcome &out)
{
    ++b.accesses;
    if (out.tlbHit)
        ++b.tlbHits;
    else if (translationOn_)
        statWalkCycles_.sample(out.cycles);
    b.cycles += out.cycles;
    b.ptRefs += out.ptRefs;
    b.adRefs += out.adRefs;
    b.pmptRefs += out.pmptRefs;
    b.dataRefs += out.dataRefs;
    b.pwcSkips += out.pwcSkips;
    if (out.ok())
        return;
    if (b.faults++ == 0)
        b.firstFault = out.fault;
    switch (out.fault) {
      case Fault::MachineCheck:
        ++statMachineChecks_;
        break;
      case Fault::LoadAccessFault:
      case Fault::StoreAccessFault:
      case Fault::FetchAccessFault:
        ++statAccessFaults_;
        break;
      default:
        ++statPageFaults_;
        break;
    }
}

inline void
Machine::commit(const BatchOutcome &b)
{
    statAccesses_ += b.accesses;
    if (translationOn_)
        statWalks_ += b.accesses - b.tlbHits;
    statPtRefs_ += b.ptRefs + b.adRefs;
    statPmptRefs_ += b.pmptRefs;
}

} // namespace hpmp

#endif // HPMP_CORE_MACHINE_H
