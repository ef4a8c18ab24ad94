#include "pt/page_table.h"

#include "base/logging.h"

namespace hpmp
{

PageTable::PageTable(PhysMem &mem, FrameAllocator alloc, PagingMode mode,
                     unsigned root_extra_bits)
    : mem_(mem),
      alloc_(std::move(alloc)),
      mode_(mode),
      rootExtraBits_(root_extra_bits)
{
    const unsigned root_pages = 1u << root_extra_bits;
    rootPa_ = alloc_(root_pages);
    fatal_if(rootPa_ == kAllocFailed,
             "out of memory for the page-table root");
    panic_if(pageOffset(rootPa_) != 0, "unaligned root frame");
    for (unsigned i = 0; i < root_pages; ++i) {
        mem_.zeroPage(rootPa_ + i * kPageSize);
        ptPages_.push_back(rootPa_ + i * kPageSize);
    }
}

Addr
PageTable::pteAddr(Addr table, Addr va, unsigned level) const
{
    return table + vpn(va, level, levels(), rootExtraBits_) * 8;
}

bool
PageTable::map(Addr va, Addr pa, Perm perm, bool user, unsigned level,
               bool accessed, bool dirty)
{
    const uint64_t span = pageSizeAtLevel(level);
    fatal_if(level >= levels(), "map level %u out of range", level);
    fatal_if(va % span || pa % span,
             "map misaligned for level %u: va %#lx pa %#lx", level, va, pa);

    Addr table = rootPa_;
    for (unsigned lvl = levels() - 1; lvl > level; --lvl) {
        const Addr slot = pteAddr(table, va, lvl);
        Pte pte{mem_.read64(slot)};
        if (!pte.v()) {
            const Addr frame = alloc_(1);
            if (frame == kAllocFailed)
                return false; // no frame for the intermediate table
            mem_.zeroPage(frame);
            ptPages_.push_back(frame);
            pte = Pte::pointer(frame);
            mem_.write64(slot, pte.raw);
        } else if (pte.isLeaf()) {
            return false; // a superpage leaf already covers this range
        }
        table = pte.physAddr();
    }

    const Addr slot = pteAddr(table, va, level);
    Pte existing{mem_.read64(slot)};
    if (existing.v())
        return false;
    mem_.write64(slot, Pte::leaf(pa, perm, user, accessed, dirty).raw);
    return true;
}

bool
PageTable::unmap(Addr va)
{
    const std::optional<Addr> slot = leafPteAddr(va);
    if (slot)
        mem_.write64(*slot, 0);
    return slot.has_value();
}

std::optional<Addr>
PageTable::translate(Addr va) const
{
    unsigned level = 0;
    const std::optional<Addr> slot = leafPteAddr(va, &level);
    if (!slot)
        return std::nullopt;
    const uint64_t span = pageSizeAtLevel(level);
    return Pte{mem_.read64(*slot)}.physAddr() + (va & (span - 1));
}

std::optional<Addr>
PageTable::leafPteAddr(Addr va, unsigned *level) const
{
    Addr table = rootPa_;
    for (unsigned lvl = levels(); lvl-- > 0;) {
        const Addr slot = pteAddr(table, va, lvl);
        Pte pte{mem_.read64(slot)};
        if (!pte.v())
            return std::nullopt;
        if (pte.isLeaf()) {
            if (level)
                *level = lvl;
            return slot;
        }
        table = pte.physAddr();
    }
    return std::nullopt;
}

} // namespace hpmp
