#include "core/machine.h"

#include "base/logging.h"
#include "base/trace.h"
#include "core/core_model.h"

namespace hpmp
{

Machine::Machine(const MachineParams &params)
    : Machine(params, std::make_unique<PhysMem>(params.physMemBytes),
              nullptr, "machine", 0)
{
}

Machine::Machine(const MachineParams &params, PhysMem &shared_mem,
                 const std::string &stat_prefix, unsigned hart_id)
    : Machine(params, nullptr, &shared_mem, stat_prefix, hart_id)
{
}

Machine::Machine(const MachineParams &params, std::unique_ptr<PhysMem> owned,
                 PhysMem *shared, const std::string &stat_prefix,
                 unsigned hart_id)
    : params_(params),
      ownedMem_(std::move(owned)),
      mem_(shared ? shared : ownedMem_.get()),
      hier_(std::make_unique<MemoryHierarchy>(params.hier)),
      hpmp_(std::make_unique<HpmpUnit>(*mem_, params.hpmpEntries,
                                       params.pmptwEntries)),
      tlb_(std::make_unique<Tlb>(params.l1TlbEntries, params.l2TlbEntries)),
      pwc_(std::make_unique<Pwc>(params.pwcEntries)),
      hartId_(hart_id),
      stats_(stat_prefix),
      tlbStats_(stat_prefix + ".tlb"),
      pwcStats_(stat_prefix + ".pwc"),
      hpmpStats_(stat_prefix + ".hpmp"),
      pmptwStats_(stat_prefix + ".hpmp.pmptw_cache")
{
    stats_.add("accesses", &statAccesses_);
    stats_.add("walks", &statWalks_);
    stats_.add("pt_refs", &statPtRefs_);
    stats_.add("pmpt_refs", &statPmptRefs_);
    stats_.add("page_faults", &statPageFaults_);
    stats_.add("access_faults", &statAccessFaults_);
    stats_.add("machine_checks", &statMachineChecks_);
    stats_.add("walk_cycles", &statWalkCycles_);
    tlb_->registerStats(tlbStats_);
    pwc_->registerStats(pwcStats_);
    hpmp_->registerStats(hpmpStats_);
    hpmp_->pmptwCache().registerStats(pmptwStats_);
}

void
Machine::registerStats(StatRegistry &registry)
{
    registry.add(&stats_);
    registry.add(&tlbStats_);
    registry.add(&pwcStats_);
    registry.add(&hpmpStats_);
    registry.add(&pmptwStats_);
}

void
Machine::setSatp(Addr root_pa, PagingMode mode)
{
    translationOn_ = true;
    satpRoot_ = root_pa;
    mode_ = mode;
    sfenceVma();
    if (satpFenceHook_)
        satpFenceHook_(*this);
}

void
Machine::sfenceVma()
{
    tlb_->flushAll();
    pwc_->flush();
}

void
Machine::coldReset()
{
    sfenceVma();
    hpmp_->flushCache();
    hier_->flushAll();
}

Fault
Machine::checkPhys(Addr pa, AccessType type, AccessOutcome &out)
{
    HpmpCheckResult check = hpmp_->check(pa, 8, type, priv_);
    // The walker emits its references root-first, so the first ref's
    // level tells us how deep this table is (for root/mid/leaf
    // attribution). A PMPTW-Cache hit emits no references at all.
    const unsigned levels =
        check.pmptRefs.empty() ? 0 : check.pmptRefs[0].level + 1;
    for (const PmptRef &ref : check.pmptRefs) {
        const uint64_t ref_cycles =
            params_.pmptwStepCycles + hier_->access(ref.pa, false).cycles;
        out.cycles += ref_cycles;
        attr_.record(pmptOrigin(ref.level, levels), ref_cycles);
        ++out.pmptRefs;
        // A poisoned pmpte read is an uncorrectable error consumed by
        // the walker itself. The HPMP walk above already filled the
        // PMPTW cache from the poisoned bytes, so flush it — nothing
        // derived from poison may stay cached (fail closed).
        if (consumePoison(ref.pa, 8, pmptOrigin(ref.level, levels),
                          out) != Fault::None) {
            hpmp_->flushCache();
            return Fault::MachineCheck;
        }
    }
    if (check.viaCache)
        ++out.cycles; // PMPTW-Cache lookup
    return check.fault;
}

Perm
Machine::physPermProbe(Addr pa) const
{
    if (priv_ == PrivMode::Machine)
        return Perm::rwx();
    return hpmp_->probe(pa);
}

BatchOutcome
Machine::accessBatch(std::span<const AccessRequest> reqs, CoreModel *model,
                     bool stop_on_fault)
{
    BatchOutcome b;
    for (const AccessRequest &req : reqs) {
        const AccessOutcome out = accessInner(req.va, req.type);
        ++b.completed;
        tally(b, out);
        if (model)
            model->addAccess(out);
        if (!out.ok() && stop_on_fault)
            break;
    }
    commit(b);
    return b;
}

AccessOutcome
Machine::accessMiss(Addr va, AccessType type)
{
    AccessOutcome out;
    if (!translationOn_) {
        // Bare mode: the physical check still applies (e.g. the host
        // OS running with PMP enabled but paging off).
        out.fault = checkPhys(va, type, out);
        if (out.fault == Fault::None)
            dataRef(va, type, out);
        return out;
    }

    // TLB miss: one pass over the page table. Each level takes its
    // PTE from the PWC, or charges the reference and reads it.
    struct Port : StagePort
    {
        Machine &m;
        Addr va;
        AccessOutcome &out;

        std::optional<Pte>
        lookup(unsigned level)
        {
            const std::optional<Pte> pte = m.pwc_->lookup(level, va);
            out.pwcSkips += pte.has_value();
            return pte;
        }

        Fault
        charge(Addr pa, AccessType type, unsigned level)
        {
            const bool ad = type == AccessType::Store;
            const Fault fault = m.chargeRef(
                pa, type, ad ? RefOrigin::AdUpdate : ptOrigin(level),
                m.attr_, out);
            if (fault == Fault::None)
                ++(ad ? out.adRefs : out.ptRefs);
            return fault;
        }

        void fill(unsigned lvl, Pte pte) { m.pwc_->fill(lvl, va, pte); }
        void refresh(unsigned lvl, Pte pte) { m.pwc_->refresh(lvl, va, pte); }
    };

    WalkConfig config;
    config.mode = mode_;
    Port port{{}, *this, va, out};
    const StageWalk walk = walkStage(*mem_, port, satpRoot_, va, type,
                                     priv_, config);
    if (!walk.ok()) {
        out.fault = walk.fault;
        return out;
    }

    // Data reference with its own physical check.
    out.fault = checkPhys(walk.pa, type, out);
    if (out.fault == Fault::None)
        dataRef(walk.pa, type, out);
    if (out.fault != Fault::None)
        return out;

    DPRINTF(Walk, "va=%#lx pa=%#lx pt=%u ad=%u pmpt=%u cycles=%lu\n",
            va, walk.pa, out.ptRefs, out.adRefs, out.pmptRefs,
            (unsigned long)out.cycles);
    TRACE_EVENT(Walk, statAccesses_.value(), out.cycles, "walk", va,
                walk.pa);

    const uint64_t span = pageSizeAtLevel(walk.leafLevel);
    tlb_->fill(va, walk.pa - (va & (span - 1)), walk.perm,
               physPermProbe(walk.pa), walk.user, walk.leafLevel);
    return out;
}

} // namespace hpmp
