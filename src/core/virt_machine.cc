#include "core/virt_machine.h"

#include "base/trace.h"

namespace hpmp
{

VirtMachine::VirtMachine(const MachineParams &params)
    : VirtMachine(std::make_unique<Machine>(params), nullptr,
                  "virt_machine")
{
}

VirtMachine::VirtMachine(Machine &host, const std::string &stat_prefix)
    : VirtMachine(nullptr, &host, stat_prefix)
{
}

VirtMachine::VirtMachine(std::unique_ptr<Machine> owned, Machine *host,
                         const std::string &stat_prefix)
    : ownedMachine_(std::move(owned)),
      machine_(ownedMachine_ ? *ownedMachine_ : *host),
      combinedTlb_(machine_.params().l1TlbEntries,
                   machine_.params().l2TlbEntries),
      gStageTlb_(machine_.params().l1TlbEntries,
                 machine_.params().l2TlbEntries),
      vsPwc_(machine_.params().pwcEntries),
      stats_(stat_prefix),
      tlbStats_(stat_prefix + ".tlb"),
      gtlbStats_(stat_prefix + ".gtlb"),
      vsPwcStats_(stat_prefix + ".vs_pwc")
{
    // The host side runs bare; all translation happens here.
    machine_.setBare();

    stats_.add("accesses", &statAccesses_);
    stats_.add("tlb_hits", &statTlbHits_);
    stats_.add("walks", &statWalks_);
    stats_.add("npt_refs", &statNptRefs_);
    stats_.add("gpt_refs", &statGptRefs_);
    stats_.add("data_refs", &statDataRefs_);
    stats_.add("pmpt_refs", &statPmptRefs_);
    stats_.add("gtlb_hits", &statGTlbHits_);
    stats_.add("faults", &statFaults_);
    stats_.add("walk_cycles", &statWalkCycles_);
    combinedTlb_.registerStats(tlbStats_);
    gStageTlb_.registerStats(gtlbStats_);
    vsPwc_.registerStats(vsPwcStats_);
}

void
VirtMachine::setVsatp(Addr root_pa)
{
    vsatpRoot_ = root_pa;
    hfenceVvma();
    if (hfenceHook_)
        hfenceHook_(*this, /*gstage=*/false);
}

void
VirtMachine::setHgatp(Addr root_pa)
{
    hgatpRoot_ = root_pa;
    hfenceGvma();
    if (hfenceHook_)
        hfenceHook_(*this, /*gstage=*/true);
}

void
VirtMachine::restoreVirtState(Addr vsatp_root, Addr hgatp_root,
                              PrivMode guest_priv)
{
    vsatpRoot_ = vsatp_root;
    hgatpRoot_ = hgatp_root;
    guestPriv_ = guest_priv;
    hfenceGvma();
}

void
VirtMachine::hfenceVvma()
{
    combinedTlb_.flushAll();
    vsPwc_.flush();
}

void
VirtMachine::hfenceGvma()
{
    gStageTlb_.flushAll();
    combinedTlb_.flushAll();
    vsPwc_.flush();
}

void
VirtMachine::coldReset()
{
    hfenceGvma();
    machine_.coldReset();
}

void
VirtMachine::registerStats(StatRegistry &registry)
{
    registry.add(&stats_);
    registry.add(&tlbStats_);
    registry.add(&gtlbStats_);
    registry.add(&vsPwcStats_);
    // A wrapped host hart's groups are registered by its owner (the
    // SmpSystem); adding them again here would collide in the registry.
    if (ownedMachine_)
        machine_.registerStats(registry);
}

inline void
VirtMachine::tally(VirtBatchOutcome &b, const VirtAccessOutcome &out)
{
    ++b.accesses;
    if (out.tlbHit)
        ++b.tlbHits;
    else
        statWalkCycles_.sample(out.cycles);
    if (!out.ok())
        ++b.faults;
    b.cycles += out.cycles;
    b.nptRefs += out.nptRefs;
    b.gptRefs += out.gptRefs;
    b.dataRefs += out.dataRefs;
    b.pmptRefs += out.pmptRefs;
    b.gTlbHits += out.gTlbHits;
}

inline void
VirtMachine::commit(const VirtBatchOutcome &b)
{
    statAccesses_ += b.accesses;
    statTlbHits_ += b.tlbHits;
    statWalks_ += b.accesses - b.tlbHits;
    statNptRefs_ += b.nptRefs;
    statGptRefs_ += b.gptRefs;
    statDataRefs_ += b.dataRefs;
    statPmptRefs_ += b.pmptRefs;
    statGTlbHits_ += b.gTlbHits;
    statFaults_ += b.faults;
}

VirtAccessOutcome
VirtMachine::access(Addr gva, AccessType type)
{
    const VirtAccessOutcome out = accessInner(gva, type);
    VirtBatchOutcome b;
    tally(b, out);
    commit(b);
    return out;
}

VirtBatchOutcome
VirtMachine::accessBatch(std::span<const AccessRequest> reqs)
{
    VirtBatchOutcome b;
    for (const AccessRequest &req : reqs)
        tally(b, accessInner(req.va, req.type));
    commit(b);
    return b;
}

VirtAccessOutcome
VirtMachine::accessInner(Addr gva, AccessType type)
{
    VirtAccessOutcome out;

    // Combined-TLB hit: inlined permissions, data reference only. The
    // entry carries the real VS-stage U bit / permissions, the real
    // G-stage leaf permission and the inlined physical permission, so
    // the same checks fire as on the full-walk path.
    if (auto entry = combinedTlb_.lookup(gva)) {
        out.tlbHit = true;
        out.fault = entry->check(guestPriv_, type);
        if (out.fault == Fault::None)
            out.fault = machine_.memRef(entry->translate(gva), type,
                                        RefOrigin::Data, attr_, out);
        if (out.fault == Fault::None)
            out.dataRefs = 1;
        return out;
    }

    // TLB miss: one 3D walk over the guest PWC and the G-stage TLB,
    // each supervisor-physical reference charged as it is made.
    struct Port : TwoStagePort
    {
        VirtMachine &vm;
        Addr gva;
        VirtAccessOutcome &out;
        AccessOutcome charged; //!< cycles, pmpte refs, poison tag

        std::optional<Pte>
        vsLookup(unsigned lvl)
        {
            return vm.vsPwc_.lookup(lvl, gva);
        }

        void vsFill(unsigned lvl, Pte pte) { vm.vsPwc_.fill(lvl, gva, pte); }

        void
        vsRefresh(unsigned lvl, Pte pte)
        {
            vm.vsPwc_.refresh(lvl, gva, pte);
        }

        bool
        gLookup(Addr gpa_page, AccessType type, Addr &spa_page, Perm &perm)
        {
            const TlbEntry *entry = vm.gStageTlb_.lookup(gpa_page);
            if (!entry || !entry->perm.allows(type))
                return false;
            ++out.gTlbHits;
            spa_page = pageAddr(entry->ppn);
            perm = entry->perm;
            return true;
        }

        void
        gFill(Addr gpa_page, Addr spa_page, Perm perm)
        {
            vm.gStageTlb_.fill(gpa_page, spa_page, perm, Perm::rwx(), true);
        }

        Fault
        charge(Addr spa, VirtRefKind kind, AccessType type, unsigned level)
        {
            const bool npt = kind == VirtRefKind::NptPage;
            const bool gpt = kind == VirtRefKind::GptPage;
            const RefOrigin origin = npt   ? nptOrigin(level)
                                     : gpt ? gptOrigin(level)
                                           : RefOrigin::Data;
            const Fault fault =
                vm.machine_.chargeRef(spa, type, origin, vm.attr_, charged);
            if (fault == Fault::None)
                ++(npt ? out.nptRefs : gpt ? out.gptRefs : out.dataRefs);
            return fault;
        }
    };

    Port port{{}, *this, gva, out, {}};
    const TwoStageWalk walk =
        walkTwoStageWith(machine_.mem(), port, vsatpRoot_, hgatpRoot_, gva,
                         type, guestPriv_, TwoStageConfig{});
    out.fault = walk.fault;
    out.cycles = port.charged.cycles;
    out.pmptRefs = port.charged.pmptRefs;
    out.poisonAddr = port.charged.poisonAddr; // set only by a MachineCheck
    out.poisonOrigin = port.charged.poisonOrigin;
    if (!walk.ok())
        return out;

    DPRINTF(Walk,
            "3D gva=%#lx spa=%#lx npt=%u gpt=%u pmpt=%u cycles=%lu\n",
            gva, walk.spa, out.nptRefs, out.gptRefs, out.pmptRefs,
            (unsigned long)out.cycles);
    TRACE_EVENT(Walk, statAccesses_.value(), out.cycles, "3d_walk", gva,
                walk.spa);

    // Cache the combined translation at the largest size both stages
    // map contiguously, with the real leaf attributes.
    const unsigned level = walk.combinedLeafLevel();
    const uint64_t span = pageSizeAtLevel(level);
    combinedTlb_.fill(gva, walk.spa - (gva & (span - 1)), walk.perm,
                      machine_.physPermProbe(walk.spa), walk.user,
                      level, walk.gPerm);
    return out;
}

} // namespace hpmp
