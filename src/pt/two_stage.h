/**
 * @file
 * Two-stage (VS-stage + G-stage) translation for the RISC-V hypervisor
 * extension: guest page table (vsatp, Sv39) walked through the nested
 * page table (hgatp, Sv39x4).
 *
 * Both stages are walkStage() passes: the VS stage locates each
 * guest-PT slot with a G-stage translation, and the data reference
 * takes one more. Together they make the 3D-walk reference stream of
 * the paper's Figure 8 (3 NPT references per G-stage walk, 16 in all
 * on Sv39/Sv39x4). The caller's port supplies the guest PWC and the
 * G-stage TLB the timing machine uses for hfence semantics
 * (hfence.vvma keeps G-stage translations cached, hfence.gvma drops
 * them) and charges every reference as the walk makes it.
 */

#ifndef HPMP_PT_TWO_STAGE_H
#define HPMP_PT_TWO_STAGE_H

#include <optional>

#include "pt/walker.h"

namespace hpmp
{

/** Category of one supervisor-physical reference in a 3D walk. */
enum class VirtRefKind : uint8_t { NptPage, GptPage, Data };

/** One supervisor-physical reference of the two-stage walk. */
struct VirtRef
{
    Addr spa = 0;
    VirtRefKind kind = VirtRefKind::Data;
    bool write = false;
    unsigned level = 0;
};

/** Outcome of a two-stage walk. */
struct TwoStageWalk
{
    Fault fault = Fault::None;
    Addr gpa = 0;  //!< final guest-physical address
    Addr spa = 0;  //!< final supervisor-physical address
    Perm perm;     //!< effective permission (VS-stage leaf)
    bool user = false;        //!< VS-stage leaf U bit
    unsigned vsLeafLevel = 0; //!< VS-stage leaf level (0 = 4 KiB)
    /**
     * G-stage leaf permission and level of the data translation (of
     * the last G-stage translation until the walk succeeds). Level 0
     * when served from the G-stage TLB, which caches at 4 KiB.
     */
    Perm gPerm = Perm::rwx();
    unsigned gLeafLevel = 0;
    unsigned gstageWalks = 0; //!< G-stage walks actually performed

    bool ok() const { return fault == Fault::None; }

    /**
     * Largest page size a combined (gva -> spa) TLB entry may cache:
     * both stages must map contiguously at that size.
     */
    unsigned
    combinedLeafLevel() const
    {
        return vsLeafLevel < gLeafLevel ? vsLeafLevel : gLeafLevel;
    }
};

/** Result of walkTwoStage: the walk plus the references it made. */
struct TwoStageResult : TwoStageWalk
{
    SmallVec<VirtRef, 40> refs;
};

/**
 * The port a two-stage walk runs over, with the defaults of a walk
 * without a guest PWC or G-stage TLB. A caller derives from it, hides
 * what it caches, and adds StagePort's charge() with the reference's
 * kind (`type` is the access type for the data reference):
 *   Fault charge(Addr spa, VirtRefKind kind, AccessType type,
 *                unsigned level);
 */
struct TwoStagePort
{
    /** Guest PWC: lookup, fill and A/D refresh, as in StagePort. */
    std::optional<Pte> vsLookup(unsigned) { return std::nullopt; }
    void vsFill(unsigned, Pte) {}
    void vsRefresh(unsigned, Pte) {}
    /**
     * G-stage TLB (4 KiB pages): the spa page and leaf permission
     * cached for `gpa_page`. A permission that does not allow `type`
     * is a miss, so the (correctly faulting) G-stage walk runs.
     */
    bool gLookup(Addr, AccessType, Addr &, Perm &) { return false; }
    void gFill(Addr, Addr, Perm) {}
};

/** Configuration of both stages. */
struct TwoStageConfig
{
    WalkConfig vsStage{PagingMode::Sv39, 0, true, true};
    WalkConfig gStage{PagingMode::Sv39, 2, true, true}; //!< Sv39x4
};

/**
 * Stage of the two-stage access path a fault originated from. The
 * RISC-V fault codes already encode this (page fault = VS-stage,
 * guest-page fault = G-stage, access fault = physical PMP/pmpte); this
 * enum names the mapping so oracles can attribute stale translations
 * to the table that should have denied them.
 */
enum class VirtFaultOrigin : uint8_t
{
    None,       //!< no fault
    GuestStage, //!< VS-stage (guest page table) page fault
    GStage,     //!< G-stage (nested page table) guest-page fault
    Phys,       //!< physical access fault (PMP / pmpte / bounds)
};

/** Human-readable origin name for diagnostics. */
const char *toString(VirtFaultOrigin origin);

namespace two_stage_detail
{

/** The G stage over a two-stage port: no cache, NPT references. */
template <class Port>
struct GStage : StagePort
{
    Port &port;

    Fault
    charge(Addr spa, AccessType type, unsigned level)
    {
        return port.charge(spa, VirtRefKind::NptPage, type, level);
    }

    static Fault pteFault(AccessType type) { return guestPageFaultFor(type); }
};

/**
 * The VS stage over a two-stage port: the guest PWC, guest-PT slots
 * located through the G stage, GPT references.
 */
template <class Port>
struct VsStage : StagePort
{
    PhysMem &mem;
    Port &port;
    Addr hgatpRoot;
    const TwoStageConfig &config;
    TwoStageWalk &out;

    std::optional<Pte> lookup(unsigned lvl) { return port.vsLookup(lvl); }
    void fill(unsigned lvl, Pte pte) { port.vsFill(lvl, pte); }
    void refresh(unsigned lvl, Pte pte) { port.vsRefresh(lvl, pte); }
    Fault locate(Addr &slot, AccessType type) { return gTranslate(slot, type); }

    Fault
    charge(Addr spa, AccessType type, unsigned level)
    {
        return port.charge(spa, VirtRefKind::GptPage, type, level);
    }

    /**
     * G-stage translation of `addr` (gpa in, spa out) for `type`: the
     * port's G-stage TLB, else a G-stage walk that fills it. Records
     * the leaf permission and level (0 on a TLB hit) in `out`.
     */
    Fault
    gTranslate(Addr &addr, AccessType type)
    {
        const Addr gpa_page = alignDown(addr, kPageSize);
        Addr spa_page = 0;
        if (port.gLookup(gpa_page, type, spa_page, out.gPerm)) {
            out.gLeafLevel = 0;
            addr = spa_page + pageOffset(addr);
            return Fault::None;
        }

        // G-stage PTEs behave as user-accessible mappings (the spec
        // requires U=1 on G-stage leaves), so walk in user privilege.
        GStage<Port> g{{}, port};
        const StageWalk walk = walkStage(mem, g, hgatpRoot, addr, type,
                                         PrivMode::User, config.gStage);
        ++out.gstageWalks;
        if (!walk.ok())
            return walk.fault;
        port.gFill(gpa_page, alignDown(walk.pa, kPageSize), walk.perm);
        addr = walk.pa;
        out.gPerm = walk.perm;
        out.gLeafLevel = walk.leafLevel;
        return Fault::None;
    }
};

} // namespace two_stage_detail

/**
 * The 3D walk of guest virtual address `gva` for an access of `type`
 * in guest privilege `priv` over `port`: the VS-stage walk of the
 * guest table rooted at `vsatp_root`, each guest-PT slot located
 * through the G stage of the nested table rooted at `hgatp_root`,
 * then the G-stage translation and charge of the data reference.
 */
template <class Port>
TwoStageWalk
walkTwoStageWith(PhysMem &mem, Port &port, Addr vsatp_root,
                 Addr hgatp_root, Addr gva, AccessType type, PrivMode priv,
                 const TwoStageConfig &config)
{
    TwoStageWalk result;
    two_stage_detail::VsStage<Port> vs{{}, mem, port, hgatp_root, config,
                                       result};
    const StageWalk walk = walkStage(mem, vs, vsatp_root, gva, type, priv,
                                     config.vsStage);
    result.fault = walk.fault;
    if (!walk.ok())
        return result;
    result.gpa = result.spa = walk.pa;
    result.perm = walk.perm;
    result.user = walk.user;
    result.vsLeafLevel = walk.leafLevel;

    // The final data access also translates through the G-stage.
    result.fault = vs.gTranslate(result.spa, type);
    if (result.fault == Fault::None)
        result.fault = port.charge(result.spa, VirtRefKind::Data, type, 0);
    return result;
}

/**
 * Functional, cache-less 3D walk of `gva` that records every
 * supervisor-physical reference it makes (walkTwoStageWith over a
 * port without caches). Writes A/D bits of both stages to PhysMem.
 */
TwoStageResult walkTwoStage(PhysMem &mem, Addr vsatp_root, Addr hgatp_root,
                            Addr gva, AccessType type, PrivMode priv,
                            const TwoStageConfig &config);

} // namespace hpmp

#endif // HPMP_PT_TWO_STAGE_H
