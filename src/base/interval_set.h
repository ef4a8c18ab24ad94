/**
 * @file
 * Set of disjoint half-open address intervals [base, base+size).
 *
 * Used by the physical page allocator (free lists, fragmentation
 * accounting). The secure monitor's GMS overlap check keeps its own
 * index (GmsIndex in monitor/secure_monitor.h): it must count the
 * domains holding a shared range and must not coalesce adjacent
 * GMSs, which this set does.
 */

#ifndef HPMP_BASE_INTERVAL_SET_H
#define HPMP_BASE_INTERVAL_SET_H

#include <cstdint>
#include <map>
#include <optional>

#include "base/addr.h"

namespace hpmp
{

/** Disjoint interval set with coalescing insert and splitting erase. */
class IntervalSet
{
  public:
    /**
     * Insert [base, base+size), coalescing with neighbours.
     * @return false if the range overlaps an existing interval.
     */
    bool insert(Addr base, uint64_t size);

    /**
     * Remove [base, base+size). The range must be fully contained in
     * one existing interval (it may split it).
     * @return false if the range is not fully covered.
     */
    bool erase(Addr base, uint64_t size);

    /** True iff [base, base+size) is fully contained in one interval. */
    bool contains(Addr base, uint64_t size) const;

    /** True iff [base, base+size) overlaps any interval. */
    bool overlaps(Addr base, uint64_t size) const;

    /**
     * Find the lowest interval of at least `size` bytes whose base is
     * aligned to `align` (after rounding the base up).
     * @return the aligned base address, or nullopt.
     */
    std::optional<Addr> findFit(uint64_t size, uint64_t align = 1) const;

    /** Number of disjoint intervals (fragmentation proxy). */
    size_t intervalCount() const { return intervals_.size(); }

    /** Total bytes covered. */
    uint64_t totalBytes() const;

    /** All intervals as (base, size) pairs in address order. */
    const std::map<Addr, uint64_t> &intervals() const { return intervals_; }

  private:
    std::map<Addr, uint64_t> intervals_; // base -> size
};

} // namespace hpmp

#endif // HPMP_BASE_INTERVAL_SET_H
