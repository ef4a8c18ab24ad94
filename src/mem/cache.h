/**
 * @file
 * Tag-only set-associative cache timing model.
 *
 * The data itself lives in PhysMem (functional state); this model only
 * tracks which lines are resident to attribute hit/miss latency, like
 * the timing side of gem5's classic caches. LRU replacement, write-back
 * write-allocate. Geometry follows Table 1 of the paper.
 */

#ifndef HPMP_MEM_CACHE_H
#define HPMP_MEM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "base/addr.h"
#include "base/stats.h"

namespace hpmp
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name;       //!< for stats output
    uint64_t sizeBytes;     //!< total capacity
    unsigned assoc;         //!< ways per set
    unsigned lineBytes = 64;
    unsigned latency;       //!< hit latency contribution, core cycles
};

/** One level of tag-only cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up (and on miss, fill) the line containing pa.
     * @return true on hit.
     */
    bool
    access(Addr pa, bool is_write)
    {
        const uint64_t line_no = lineNumber(pa);
        if (line_no == memoLine_) {
            hit(lines_[memoIndex_], is_write);
            return true;
        }

        const uint64_t set = setIndex(pa);
        const uint64_t tag = tagOf(pa);
        const uint64_t first = set * params_.assoc;
        Line *base = &lines_[first];

        // Hit scan first; victim selection only runs on a miss,
        // keeping the (far more common) hit path tight.
        for (unsigned way = 0; way < params_.assoc; ++way) {
            Line &line = base[way];
            if (line.valid && line.tag == tag) {
                memoLine_ = line_no;
                memoIndex_ = first + way;
                hit(line, is_write);
                return true;
            }
        }
        fillVictim(base, tag, is_write);
        return false;
    }

    /** Look up without filling or LRU update (for tests / probes). */
    bool probe(Addr pa) const;

    /** Insert the line containing pa without counting a miss (warm-up). */
    void touch(Addr pa);

    /** Invalidate everything (cold state for TC1-style experiments). */
    void flushAll();

    /** Invalidate only the line containing pa, if resident. */
    void flushLine(Addr pa);

    /**
     * Cache-line locking (Penglai's side-channel/latency defence,
     * paper Fig. 7): pin the line containing pa so replacement never
     * evicts it. @return false if every way of its set is already
     * locked (at least one way must stay evictable).
     */
    bool lockLine(Addr pa);

    /** Release a pinned line. */
    void unlockLine(Addr pa);

    /** Number of currently locked lines. */
    uint64_t lockedLines() const { return lockedLines_; }

    unsigned latency() const { return params_.latency; }
    const CacheParams &params() const { return params_; }

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    void resetStats() { hits_.reset(); misses_.reset(); }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        bool locked = false; //!< never chosen as a victim
        uint64_t lru = 0;    //!< larger = more recently used
    };

    uint64_t lineNumber(Addr pa) const { return pa >> lineShift_; }

    /** Every side effect of a hit: LRU stamp, dirty bit, hit count. */
    void
    hit(Line &line, bool is_write)
    {
        line.lru = ++lruClock_;
        line.dirty |= is_write;
        ++hits_;
    }

    /** Forget the last hit (its line may be replaced or invalid). */
    void clearMemo() { memoLine_ = kNoMemo; }

    /** Miss path of access(): pick a victim way and refill it. */
    void fillVictim(Line *base, uint64_t tag, bool is_write);

    // Set/tag split avoids a hardware division per lookup when the
    // set count is a power of two (every Table 1 geometry is).
    uint64_t
    setIndex(Addr pa) const
    {
        return setsPow2_ ? (lineNumber(pa) & setMask_)
                         : lineNumber(pa) % numSets_;
    }

    uint64_t
    tagOf(Addr pa) const
    {
        return setsPow2_ ? (lineNumber(pa) >> setShift_)
                         : lineNumber(pa) / numSets_;
    }

    CacheParams params_;
    unsigned lineShift_;
    uint64_t numSets_;
    bool setsPow2_ = false;
    unsigned setShift_ = 0;
    uint64_t setMask_ = 0;
    std::vector<Line> lines_; //!< numSets_ x assoc, row-major
    uint64_t lruClock_ = 0;
    uint64_t lockedLines_ = 0;

    /**
     * Last-hit memo: line number -> index into lines_ of the line
     * that holds it. Set by every scanned hit; cleared by every
     * change to the lines (fillVictim, touch, flushLine, flushAll,
     * lockLine, unlockLine), so it always names a valid line.
     */
    static constexpr uint64_t kNoMemo = ~0ULL;
    uint64_t memoLine_ = kNoMemo;
    uint64_t memoIndex_ = 0;

    Counter hits_;
    Counter misses_;
};

} // namespace hpmp

#endif // HPMP_MEM_CACHE_H
