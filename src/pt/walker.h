/**
 * @file
 * Hardware page-table-walker model: walkStage() walks any radix stage
 * (native S, guest VS or nested G) in one pass over a caller's port,
 * which supplies the stage's cache and charges each reference as it
 * is made. The timing machines charge through the physical check,
 * poison and the cache hierarchy, so the paper's 4-vs-12-vs-6
 * reference counts arise naturally instead of being hard-coded;
 * walkPageTable() records the references instead.
 */

#ifndef HPMP_PT_WALKER_H
#define HPMP_PT_WALKER_H

#include <optional>

#include "base/small_vec.h"
#include "mem/phys_mem.h"
#include "pt/pte.h"

namespace hpmp
{

/** One physical reference made during a walk. */
struct PtRef
{
    Addr pa = 0;
    bool write = false;   //!< A/D read-modify-write update
    unsigned level = 0;   //!< page-table level of the entry touched
};

/** Outcome of one stage walk. */
struct StageWalk
{
    Fault fault = Fault::None;
    Addr pa = 0;              //!< translated address
    Perm perm;                //!< leaf permissions
    bool user = false;        //!< leaf U bit
    unsigned leafLevel = 0;   //!< 0 = 4 KiB leaf

    bool ok() const { return fault == Fault::None; }
};

/** Result of walkPageTable: the walk plus the references it made. */
struct WalkResult : StageWalk
{
    /** PT-page references in walk order (<= levels + A/D write). */
    SmallVec<PtRef, 8> refs;
};

/** Options mirroring the relevant satp/hstatus/sstatus state. */
struct WalkConfig
{
    PagingMode mode = PagingMode::Sv39;
    unsigned rootExtraBits = 0; //!< 2 for Sv39x4 G-stage
    bool sumSet = true;         //!< S-mode may touch U pages (Linux)
    bool hardwareAdUpdate = true; //!< Svadu-style A/D update vs. fault
};

/**
 * Permission check of a leaf PTE against access type and privilege.
 * TLB hits test the allow masks Tlb::fill derives from the same rules
 * (TlbEntry::check).
 */
inline Fault
checkLeafPerms(const Pte &pte, AccessType type, PrivMode priv,
               bool sum_set)
{
    if (!pte.perm().allows(type))
        return pageFaultFor(type);
    if (priv == PrivMode::User && !pte.u())
        return pageFaultFor(type);
    if (priv == PrivMode::Supervisor && pte.u()) {
        // S-mode fetches from U pages always fault; loads/stores fault
        // unless SUM is set.
        if (type == AccessType::Fetch || !sum_set)
            return pageFaultFor(type);
    }
    return Fault::None;
}

/**
 * The port a stage walk runs over, with the defaults of a cache-less
 * stage whose table slots are physical addresses. A caller derives
 * from it, hides what its stage does differently, and adds
 *   Fault charge(Addr pa, AccessType type, unsigned level);
 * which charges one PTE read (Load) or A/D store (Store) and returns
 * the fault that stops the walk, if any.
 */
struct StagePort
{
    /** The stage's cached PTE for this level, if any. */
    std::optional<Pte> lookup(unsigned) { return std::nullopt; }
    /** Turn table address `slot` into where the PTE lives, for `type`. */
    Fault locate(Addr &, AccessType) { return Fault::None; }
    /** Cache the valid PTE just read at `level`. */
    void fill(unsigned, Pte) {}
    /** A/D store done: update a cached copy in place, if any. */
    void refresh(unsigned, Pte) {}
    /** Fault raised by the stage's PTE rules. */
    static Fault pteFault(AccessType type) { return pageFaultFor(type); }
};

/**
 * Walk `va` from root table `root` for an access of `type` in
 * privilege `priv`. Per level: the cached PTE, else locate, charge,
 * read and fill; then the PTE rules (valid, reserved W-without-R,
 * superpage alignment, leaf permissions, clear A/D/U on pointers).
 * A needed A/D update is located (if the PTE came from the cache),
 * charged, written and refreshed in the cache, in that order.
 */
template <class Port>
StageWalk
walkStage(PhysMem &mem, Port &port, Addr root, Addr va, AccessType type,
          PrivMode priv, const WalkConfig &config)
{
    StageWalk result;
    const auto fail = [&](Fault fault) {
        result.fault = fault;
        return result;
    };
    const unsigned levels = ptLevels(config.mode);

    Addr table = root;
    for (unsigned lvl = levels; lvl-- > 0;) {
        Addr slot = table + vpn(va, lvl, levels, config.rootExtraBits) * 8;
        const std::optional<Pte> cached = port.lookup(lvl);
        Pte pte;
        if (cached) {
            pte = *cached;
        } else {
            result.fault = port.locate(slot, AccessType::Load);
            if (result.fault == Fault::None)
                result.fault = port.charge(slot, AccessType::Load, lvl);
            if (result.fault != Fault::None)
                return result;
            pte = Pte{mem.read64(slot)};
            if (pte.v())
                port.fill(lvl, pte);
        }

        if (!pte.v() || (!pte.r() && pte.w()))
            return fail(port.pteFault(type));

        if (pte.isLeaf()) {
            // Misaligned superpage: low PPN bits must be zero.
            const uint64_t span = pageSizeAtLevel(lvl);
            if ((pte.ppn() & (span / kPageSize - 1)) ||
                checkLeafPerms(pte, type, priv, config.sumSet) != Fault::None)
                return fail(port.pteFault(type));

            // Hardware A/D update: an extra store to the leaf PTE.
            if (!pte.a() || (type == AccessType::Store && !pte.d())) {
                if (!config.hardwareAdUpdate)
                    return fail(port.pteFault(type));
                if (cached)
                    result.fault = port.locate(slot, AccessType::Store);
                if (result.fault == Fault::None)
                    result.fault = port.charge(slot, AccessType::Store, lvl);
                if (result.fault != Fault::None)
                    return result;
                pte.setA(true);
                if (type == AccessType::Store)
                    pte.setD(true);
                mem.write64(slot, pte.raw);
                port.refresh(lvl, pte);
            }

            result.pa = pte.physAddr() + (va & (span - 1));
            result.perm = pte.perm();
            result.user = pte.u();
            result.leafLevel = lvl;
            return result;
        }

        // Pointer PTE: A/D/U must be clear per the spec; treat any set
        // bit as a malformed table built by software (page fault).
        if (pte.a() || pte.d() || pte.u())
            return fail(port.pteFault(type));
        table = pte.physAddr();
    }
    return fail(port.pteFault(type));
}

/**
 * Functional, cache-less walk of `va` from root table `root_pa` that
 * records every reference it makes. Writes A/D bits to PhysMem when
 * hardwareAdUpdate is set.
 */
WalkResult walkPageTable(PhysMem &mem, Addr root_pa, Addr va,
                         AccessType type, PrivMode priv,
                         const WalkConfig &config);

} // namespace hpmp

#endif // HPMP_PT_WALKER_H
