/**
 * @file
 * The cache's last-hit memo: a memo hit must make exactly the side
 * effects of a scanned hit (LRU stamp, dirty bit, hit count), and no
 * change to the lines may leave it naming a stale line. Checked
 * against a memo-less reference model of the same replacement rules.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/rng.h"
#include "mem/cache.h"

namespace hpmp
{
namespace
{

CacheParams
smallCache(unsigned assoc)
{
    return {"test", 8 * 64 * assoc, assoc, 64, 2};
}

/**
 * Memo-less reference: every access scans its set; a miss refills the
 * last invalid unlocked way, else the lowest-LRU unlocked way.
 */
class ReferenceCache
{
  public:
    ReferenceCache(unsigned sets, unsigned assoc)
        : sets_(sets), assoc_(assoc), lines_(sets * assoc)
    {
    }

    bool
    access(Addr pa, bool is_write)
    {
        Line *base = set(pa);
        for (unsigned way = 0; way < assoc_; ++way) {
            if (base[way].valid && base[way].tag == tag(pa)) {
                base[way].lru = ++clock_;
                base[way].dirty |= is_write;
                ++hits;
                return true;
            }
        }
        Line *victim = nullptr;
        for (unsigned way = 0; way < assoc_; ++way) {
            Line &line = base[way];
            if (line.locked)
                continue;
            if (!line.valid)
                victim = &line;
            else if (!victim || (victim->valid && line.lru < victim->lru))
                victim = &line;
        }
        *victim = Line{tag(pa), true, is_write, victim->locked, ++clock_};
        ++misses;
        return false;
    }

    void
    flushLine(Addr pa)
    {
        Line *base = set(pa);
        for (unsigned way = 0; way < assoc_; ++way) {
            if (base[way].valid && base[way].tag == tag(pa) &&
                !base[way].locked)
                base[way] = Line{};
        }
    }

    bool
    resident(Addr pa)
    {
        Line *base = set(pa);
        for (unsigned way = 0; way < assoc_; ++way) {
            if (base[way].valid && base[way].tag == tag(pa))
                return true;
        }
        return false;
    }

    uint64_t hits = 0;
    uint64_t misses = 0;

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        bool locked = false;
        uint64_t lru = 0;
    };

    Line *set(Addr pa) { return &lines_[(pa / 64) % sets_ * assoc_]; }
    uint64_t tag(Addr pa) const { return pa / 64 / sets_; }

    unsigned sets_;
    unsigned assoc_;
    std::vector<Line> lines_;
    uint64_t clock_ = 0;
};

TEST(CacheMemo, FlushLineThenAccessMisses)
{
    Cache c(smallCache(2));
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1008, true)); // memo hit
    c.flushLine(0x1000);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.access(0x1010, false));
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheMemo, EvictionOfTheMemoizedLineMisses)
{
    // 8 sets x 2 ways; a, b, d share a set. Two misses after the hit
    // on a evict it: the memo must not keep serving it.
    Cache c(smallCache(2));
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, false);
    EXPECT_TRUE(c.access(a, false)); // memo -> a
    EXPECT_FALSE(c.access(b, false));
    EXPECT_FALSE(c.access(d, false)); // evicts a, the LRU way
    EXPECT_FALSE(c.probe(a));
    EXPECT_FALSE(c.access(a, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 4u);
}

TEST(CacheMemo, FlushAllThenAccessMisses)
{
    Cache c(smallCache(2));
    c.access(0x2000, false);
    c.access(0x2000, false);
    c.flushAll();
    EXPECT_FALSE(c.access(0x2000, false));
}

TEST(CacheMemo, LockAndUnlockKeepHitsExact)
{
    // 8 sets x 2 ways; a, b, d share a set.
    Cache c(smallCache(2));
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, false);
    c.access(a, false); // memo -> a
    ASSERT_TRUE(c.lockLine(a));
    EXPECT_TRUE(c.access(a, false));
    c.access(b, false);
    c.access(d, false); // evicts b: a is pinned
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.access(d, false));
    c.unlockLine(a);
    EXPECT_TRUE(c.access(d, false)); // memo -> d, a is now LRU
    c.access(b, false);              // evicts a
    EXPECT_FALSE(c.probe(a));
    EXPECT_TRUE(c.probe(d));
    EXPECT_EQ(c.hits(), 4u);
    EXPECT_EQ(c.misses(), 4u);
}

class CacheMemoAssoc : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheMemoAssoc, MixedSequenceMatchesMemoLessModel)
{
    const unsigned assoc = GetParam(), sets = 8;
    Cache c(smallCache(assoc));
    ReferenceCache ref(sets, assoc);
    Rng rng(0xcac4e + assoc);
    // 6 lines per set against 1-4 ways: enough reuse for memo hits,
    // enough conflict for evictions, runs of same-line accesses.
    Addr last = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        const Addr pa = rng.chance(0.4)
                            ? last + rng.below(64)
                            : rng.below(48) * 64 + rng.below(64);
        last = pa & ~Addr(63);
        const bool is_write = rng.chance(0.3);
        if (rng.chance(0.02)) {
            c.flushLine(pa);
            ref.flushLine(pa);
            continue;
        }
        ASSERT_EQ(c.access(pa, is_write), ref.access(pa, is_write))
            << "access " << i;
    }
    for (Addr line = 0; line < 48 * 64; line += 64)
        EXPECT_EQ(c.probe(line), ref.resident(line)) << line;
    EXPECT_EQ(c.hits(), ref.hits);
    EXPECT_EQ(c.misses(), ref.misses);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheMemoAssoc, ::testing::Values(1u, 2u, 4u));

} // namespace
} // namespace hpmp
