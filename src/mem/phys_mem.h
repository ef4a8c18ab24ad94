/**
 * @file
 * Sparse functional physical-memory backing store.
 *
 * Pages are allocated lazily on first touch and zero-filled, so the
 * simulator can model a 16 GiB machine (Table 1) without committing
 * host memory. Page tables, PMP tables and workload data all live in
 * here and are read back bit-exactly by the walkers.
 */

#ifndef HPMP_MEM_PHYS_MEM_H
#define HPMP_MEM_PHYS_MEM_H

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "base/addr.h"

namespace hpmp
{

/** Byte-addressable sparse physical memory. */
class PhysMem
{
  public:
    /** @param size total physical address space in bytes. */
    explicit PhysMem(uint64_t size) : size_(size) {}

    uint64_t size() const { return size_; }

    /** Aligned 64-bit load; addr must be 8-byte aligned and in range. */
    uint64_t read64(Addr addr) const;

    /** Aligned 64-bit store; addr must be 8-byte aligned and in range. */
    void write64(Addr addr, uint64_t value);

    uint8_t read8(Addr addr) const;
    void write8(Addr addr, uint8_t value);

    /** Bulk helpers for workload data. */
    void readBytes(Addr addr, void *buf, uint64_t len) const;
    void writeBytes(Addr addr, const void *buf, uint64_t len);

    /** Zero an entire naturally aligned 4 KiB page. */
    void zeroPage(Addr page_base);

    /**
     * Drop the host backing for one naturally aligned 4 KiB page: the
     * next read sees zeros (the lazy-allocation initial state) and
     * backedPages() shrinks. Poison on the page is NOT cleared — an
     * uncorrectable error marks the physical frame, not its contents,
     * and survives until the frame is explicitly retired or scrubbed.
     */
    void releasePage(Addr page_base);

    /** Number of host-backed pages (for tests / footprint checks). */
    size_t backedPages() const { return pages_.size(); }

    /** Whether the page containing addr is host-backed (an unbacked
     *  page reads as zeros). */
    bool backed(Addr addr) const { return pageForConst(addr) != nullptr; }

    // ---- poison (RAS): uncorrectable-error marks ------------------
    //
    // Poison is tracked per 64-byte granule (the modelled DRAM ECC
    // word / cache-line size): one uint64_t bitmap covers a 4 KiB
    // page exactly. PhysMem itself never faults — readers consult
    // isPoisoned() and convert a hit into a typed MachineCheck at
    // the consumption point (fail closed, never corrupt data).

    /** Granule size of one poison mark. */
    static constexpr uint64_t kPoisonGranule = 64;

    /** Poison every granule of a naturally aligned 4 KiB page. */
    void poisonPage(Addr page_base);

    /** Poison the single 64 B granule containing addr. */
    void poisonLine(Addr addr);

    /** Clear all poison on the page containing addr. */
    void clearPoison(Addr page_base);

    /** Clear poison on the single 64 B granule containing addr. */
    void clearPoisonLine(Addr addr);

    /** Whether [addr, addr+len) overlaps any poisoned granule. */
    bool isPoisoned(Addr addr, uint64_t len = 1) const;

    /** Number of pages carrying at least one poisoned granule. */
    size_t poisonedPages() const { return poison_.size(); }

  private:
    using Page = std::array<uint8_t, kPageSize>;

    Page &pageFor(Addr addr);
    const Page *pageForConst(Addr addr) const;
    void checkRange(Addr addr, uint64_t len) const;

    uint64_t size_;
    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
    /** Page number -> bitmap of poisoned 64 B granules (64 per page). */
    std::unordered_map<uint64_t, uint64_t> poison_;

    /**
     * Direct-mapped cache of recently touched pages, skipping the
     * hash-map lookup on the (very hot) read/write paths. Only backed
     * pages are cached — a miss falls through to the map — and
     * releasePage() invalidates the matching slot, so cached pointers
     * cannot dangle.
     */
    struct PageSlot
    {
        uint64_t pn = ~0ULL;
        Page *page = nullptr;
    };
    static constexpr size_t kPageCacheSlots = 256; //!< power of two
    mutable std::array<PageSlot, kPageCacheSlots> pageCache_{};
};

} // namespace hpmp

#endif // HPMP_MEM_PHYS_MEM_H
