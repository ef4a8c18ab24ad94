/**
 * @file
 * Page-Walk Cache (the "PTECache" of Table 1).
 *
 * Fully-associative LRU cache of PTEs keyed by (level, va-prefix). A
 * hit at level L supplies the level-L PTE to the walker, which skips
 * the memory reference for it — including, in protected schemes, the
 * permission check that reference would have needed, which is the
 * interaction Fig. 17 studies. The cache is authoritative: until a
 * flush, the walker uses the cached PTE even if memory has changed.
 *
 * Lookups are O(1): the (level, tag) keys live in an LruIndex hash
 * rather than being scanned linearly, with unchanged hit/miss and
 * true-LRU eviction behaviour.
 */

#ifndef HPMP_CORE_PWC_H
#define HPMP_CORE_PWC_H

#include <cstdint>
#include <optional>
#include <vector>

#include "base/addr.h"
#include "base/indexed_lru.h"
#include "base/stats.h"
#include "pt/pte.h"

namespace hpmp
{

/** Fully-associative page-walk cache. */
class Pwc
{
  public:
    /** @param num_entries 0 disables the cache. */
    explicit Pwc(unsigned num_entries = 8);

    bool enabled() const { return numEntries_ > 0; }
    unsigned numEntries() const { return numEntries_; }

    /** Look up the PTE for `va` at walk level `level`. */
    std::optional<Pte> lookup(unsigned level, Addr va);

    /** Install the PTE read at `level` for `va`. */
    void fill(unsigned level, Addr va, Pte pte);

    /** After an A/D store: overwrite a cached PTE, no LRU touch. */
    void
    refresh(unsigned level, Addr va, Pte pte)
    {
        if (!enabled())
            return;
        const uint32_t slot = index_.find(keyFor(level, va));
        if (slot != LruIndex::kNone)
            ptes_[slot] = pte;
    }

    /** Invalidate the entry covering va at level, if present. */
    void invalidate(unsigned level, Addr va);

    /** Drop everything (sfence.vma / domain switch). */
    void flush();

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    void resetStats() { hits_.reset(); misses_.reset(); }

    /** Register hits/misses and hit_rate into `group`. */
    void registerStats(StatGroup &group);

  private:
    static uint64_t
    keyFor(unsigned level, Addr va)
    {
        // All VA bits that select the level-`level` entry and above,
        // disambiguated by the level itself.
        return ((va >> (kPageShift + 9 * level)) << 3) | level;
    }

    unsigned numEntries_;
    LruIndex index_;
    std::vector<Pte> ptes_; //!< payloads, addressed by index_ slots

    Counter hits_;
    Counter misses_;
    Formula hitRate_;
};

} // namespace hpmp

#endif // HPMP_CORE_PWC_H
