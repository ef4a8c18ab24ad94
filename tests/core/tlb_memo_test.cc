/**
 * @file
 * The TLB's hit-path shortcuts: the last-hit memo must never serve a
 * translation the full lookup would not, and the allow masks Tlb::fill
 * precomputes must give exactly the fault of the checks they replace.
 */

#include <gtest/gtest.h>

#include "core/tlb.h"
#include "pt/walker.h"

namespace hpmp
{
namespace
{

TEST(TlbMemo, RefillWithNewPermsIsSeen)
{
    Tlb tlb(4, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    ASSERT_NE(tlb.lookup(0x1000), nullptr);
    ASSERT_NE(tlb.lookup(0x1008), nullptr); // memo hit

    tlb.fill(0x1000, 0x80005000, Perm::ro(), Perm::rx(), false);
    const TlbEntry *entry = tlb.lookup(0x1010);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->ppn, 0x80005000u >> kPageShift);
    EXPECT_EQ(entry->perm, Perm::ro());
    EXPECT_EQ(entry->physPerm, Perm::rx());
    EXPECT_FALSE(entry->user);
    EXPECT_EQ(entry->check(PrivMode::Supervisor, AccessType::Store),
              Fault::StorePageFault);
}

TEST(TlbMemo, FlushPageAndFlushAllDropTheMemo)
{
    Tlb tlb(4, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(0x2000, 0x80002000, Perm::rw(), Perm::rwx(), true);
    ASSERT_NE(tlb.lookup(0x1000), nullptr);
    ASSERT_NE(tlb.lookup(0x1000), nullptr);
    tlb.flushPage(0x1000);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);

    ASSERT_NE(tlb.lookup(0x2000), nullptr);
    ASSERT_NE(tlb.lookup(0x2000), nullptr);
    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(0x2000), nullptr);
    EXPECT_EQ(tlb.l1Hits(), 4u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(TlbMemo, PromotionEvictingTheMemoizedSlot)
{
    // One L1 slot: promoting a from the L2 evicts b, the memoized
    // slot, and the slot now holds a's translation.
    Tlb tlb(1, 64);
    tlb.fill(pageAddr(1), 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(pageAddr(2), 0x80002000, Perm::ro(), Perm::rwx(), true);

    TlbHitLevel level;
    const TlbEntry *b = tlb.lookup(pageAddr(2), &level);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(level, TlbHitLevel::L1);

    const TlbEntry *a = tlb.lookup(pageAddr(1), &level);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(level, TlbHitLevel::L2);
    EXPECT_EQ(a->ppn, 0x80001000u >> kPageShift);

    b = tlb.lookup(pageAddr(2), &level);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(level, TlbHitLevel::L2); // not a stale memo hit on a's slot
    EXPECT_EQ(b->ppn, 0x80002000u >> kPageShift);
    EXPECT_EQ(b->perm, Perm::ro());
}

TEST(TlbMemo, InPlaceRefillOfAnotherPageMovesTheMru)
{
    // Two L1 slots. A refill of b in place makes b the MRU slot, so
    // the next lookup of a must touch a again (no memo hit), or the
    // fill of c would evict a instead of b.
    Tlb tlb(2, 64);
    const Addr a = pageAddr(1), b = pageAddr(2), c = pageAddr(3);
    tlb.fill(a, 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(b, 0x80002000, Perm::rw(), Perm::rwx(), true);
    ASSERT_NE(tlb.lookup(a), nullptr); // memo -> a, the MRU slot
    tlb.fill(b, 0x80004000, Perm::ro(), Perm::rwx(), true);
    ASSERT_NE(tlb.lookup(a), nullptr);
    tlb.fill(c, 0x80003000, Perm::rw(), Perm::rwx(), true);

    TlbHitLevel level;
    ASSERT_NE(tlb.lookup(a, &level), nullptr);
    EXPECT_EQ(level, TlbHitLevel::L1);
    const TlbEntry *entry = tlb.lookup(b, &level);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(level, TlbHitLevel::L2);
    EXPECT_EQ(entry->ppn, 0x80004000u >> kPageShift);
}

TEST(TlbMemo, SuperpageHitThenBasePageFill)
{
    Tlb tlb(4, 64);
    tlb.fill(0x40000000, 0x80000000, Perm::rw(), Perm::rwx(), true,
             /*level=*/1);
    const Addr inside = 0x40000000 + 0x3000;
    TlbHitLevel level;
    const TlbEntry *super = tlb.lookup(inside, &level);
    ASSERT_NE(super, nullptr);
    EXPECT_EQ(level, TlbHitLevel::L1);
    EXPECT_EQ(super->level, 1);
    ASSERT_EQ(tlb.lookup(inside + 8), super); // memo hit, same slot
    EXPECT_EQ(super->translate(inside + 8), 0x80003008u);

    // A 4 KiB leaf inside the superpage: the level-0 probe wins.
    tlb.fill(inside, 0x90000000, Perm::ro(), Perm::rwx(), true);
    const TlbEntry *base = tlb.lookup(inside + 8, &level);
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base->level, 0);
    EXPECT_EQ(base->translate(inside + 8), 0x90000008u);
}

TEST(TlbMemo, L1HitsCountEveryHitLookup)
{
    Tlb tlb(4, 16);
    for (unsigned p = 0; p < 8; ++p)
        tlb.fill(pageAddr(p), 0x80000000 + pageAddr(p), Perm::rw(),
                 Perm::rwx(), true);
    uint64_t l1 = 0, l2 = 0, miss = 0;
    // Runs of repeats (memo hits), switches (scanned hits), L2 hits
    // with promotion, and misses past the filled pages.
    const unsigned pattern[] = {0, 0, 0, 7, 7, 6, 0, 1, 1, 2, 3, 9, 4,
                                4, 5, 5, 5, 0, 12, 6, 6, 7};
    for (unsigned rep = 0; rep < 3; ++rep) {
        for (unsigned p : pattern) {
            TlbHitLevel level;
            tlb.lookup(pageAddr(p) + 8 * rep, &level);
            l1 += level == TlbHitLevel::L1;
            l2 += level == TlbHitLevel::L2;
            miss += level == TlbHitLevel::Miss;
        }
    }
    EXPECT_GT(l1, 0u);
    EXPECT_GT(l2, 0u);
    EXPECT_GT(miss, 0u);
    EXPECT_EQ(tlb.l1Hits(), l1);
    EXPECT_EQ(tlb.l2Hits(), l2);
    EXPECT_EQ(tlb.misses(), miss);
}

Perm
permOf(unsigned bits)
{
    return {bool(bits & 1), bool(bits & 2), bool(bits & 4)};
}

/**
 * The checks a TLB hit made before the allow masks: a shadow leaf PTE
 * (A/D set) through checkLeafPerms with SUM set, then the G-stage
 * leaf permission, then the inlined physical permission.
 */
Fault
referenceCheck(Perm perm, bool user, PrivMode priv, AccessType type,
               Perm g_perm, Perm phys_perm)
{
    const Pte shadow = Pte::leaf(0, perm, user, true, true);
    Fault fault = checkLeafPerms(shadow, type, priv, true);
    if (fault == Fault::None && !g_perm.allows(type))
        fault = guestPageFaultFor(type);
    if (fault == Fault::None && !phys_perm.allows(type))
        fault = accessFaultFor(type);
    return fault;
}

TEST(TlbMask, CheckEqualsShadowPteLadderExhaustively)
{
    unsigned checked = 0;
    for (unsigned perm = 0; perm < 8; ++perm) {
        for (bool user : {false, true}) {
            for (unsigned g = 0; g < 8; ++g) {
                for (unsigned phys = 0; phys < 8; ++phys) {
                    Tlb tlb(4, 64);
                    tlb.fill(0x1000, 0x80001000, permOf(perm),
                             permOf(phys), user, 0, permOf(g));
                    const TlbEntry *entry = tlb.lookup(0x1000);
                    ASSERT_NE(entry, nullptr);
                    for (PrivMode priv :
                         {PrivMode::User, PrivMode::Supervisor,
                          PrivMode::Machine}) {
                        for (AccessType type :
                             {AccessType::Load, AccessType::Store,
                              AccessType::Fetch}) {
                            EXPECT_EQ(entry->check(priv, type),
                                      referenceCheck(permOf(perm), user,
                                                     priv, type, permOf(g),
                                                     permOf(phys)))
                                << "perm " << perm << " user " << user
                                << " priv " << int(priv) << " type "
                                << toString(type) << " g " << g
                                << " phys " << phys;
                            ++checked;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 8u * 2 * 3 * 3 * 8 * 8);
}

} // namespace
} // namespace hpmp
