/**
 * @file
 * Radix page-table builder.
 *
 * Builds real RISC-V page tables inside simulated physical memory so
 * the hardware walker model reads them back bit-exactly. The frame
 * allocator is supplied by the caller: the OS model passes either its
 * contiguous PT-page pool (the HPMP "fast GMS" policy) or a scattered
 * allocator (the baseline), which is exactly the software knob the
 * paper turns.
 */

#ifndef HPMP_PT_PAGE_TABLE_H
#define HPMP_PT_PAGE_TABLE_H

#include <optional>
#include <vector>

#include "base/frame_alloc.h"
#include "mem/phys_mem.h"
#include "pt/pte.h"

namespace hpmp
{

/** Builder/owner of one radix page table rooted in simulated memory. */
class PageTable
{
  public:
    /**
     * @param root_extra_bits widens the root index (2 for Sv39x4
     *        G-stage tables, whose root is four pages wide).
     */
    PageTable(PhysMem &mem, FrameAllocator alloc, PagingMode mode,
              unsigned root_extra_bits = 0);

    /** Physical address of the root table (satp/vsatp/hgatp PPN<<12). */
    Addr rootPa() const { return rootPa_; }

    PagingMode mode() const { return mode_; }
    unsigned rootExtraBits() const { return rootExtraBits_; }

    /**
     * Install a leaf mapping of `level` (0 = 4 KiB, 1 = 2 MiB, ...).
     * Both va and pa must be aligned to the level's page size.
     * By default leaves are created with A=D=1 so that hardware A/D
     * updates do not perturb reference counts; pass accessed=false to
     * exercise the update path.
     * @return false if the mapping would overwrite an existing leaf,
     *         or if the frame allocator failed (kAllocFailed) while
     *         growing an intermediate table level.
     */
    bool map(Addr va, Addr pa, Perm perm, bool user, unsigned level = 0,
             bool accessed = true, bool dirty = true);

    /** Remove the leaf covering va. @return false if not mapped. */
    bool unmap(Addr va);

    /** Functional translation (no timing, no A/D update). */
    std::optional<Addr> translate(Addr va) const;

    /** Physical addresses of every page-table page, root first. */
    const std::vector<Addr> &ptPages() const { return ptPages_; }

    /**
     * Physical address of the leaf PTE covering va, for direct edits;
     * `level` (when non-null) receives the leaf's level.
     */
    std::optional<Addr> leafPteAddr(Addr va, unsigned *level = nullptr) const;

  private:
    unsigned levels() const { return ptLevels(mode_); }
    Addr pteAddr(Addr table, Addr va, unsigned level) const;

    PhysMem &mem_;
    FrameAllocator alloc_;
    PagingMode mode_;
    unsigned rootExtraBits_;
    Addr rootPa_;
    std::vector<Addr> ptPages_;
};

} // namespace hpmp

#endif // HPMP_PT_PAGE_TABLE_H
