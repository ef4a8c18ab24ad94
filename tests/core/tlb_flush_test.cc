/**
 * @file
 * Tlb::flushAll's empty fast path: only fill() marks a TLB as holding
 * entries, so flushAll may skip the sweep while nothing was filled.
 * Every TLB user (native, combined two-stage, G-stage) must still see
 * its entries invalidated, an L2 entry promoted into the L1 included,
 * and a fill dropped at the tlb.fill fault site must leave the TLB
 * marked empty.
 */

#include <gtest/gtest.h>

#include "base/fault_inject.h"
#include "core/machine.h"
#include "pt/page_table.h"
#include "workloads/virt_env.h"

namespace hpmp
{
namespace
{

TEST(TlbFlushFastPath, FreshTlbIsEmptyAndFillMarksIt)
{
    Tlb tlb(4, 64);
    EXPECT_FALSE(tlb.filledSinceFlush());
    tlb.flushAll();
    EXPECT_FALSE(tlb.filledSinceFlush());
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    EXPECT_TRUE(tlb.filledSinceFlush());
    tlb.flushAll();
    EXPECT_FALSE(tlb.filledSinceFlush());
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
}

TEST(TlbFlushFastPath, PromotedEntryIsFlushed)
{
    // One L1 slot: b's fill evicts a from the L1, a's lookup promotes
    // it back from the L2. Both levels must be empty after flushAll.
    Tlb tlb(1, 64);
    const Addr a = pageAddr(1), b = pageAddr(2);
    tlb.fill(a, 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(b, 0x80002000, Perm::rw(), Perm::rwx(), true);
    TlbHitLevel level;
    ASSERT_NE(tlb.lookup(a, &level), nullptr);
    ASSERT_EQ(level, TlbHitLevel::L2);
    ASSERT_NE(tlb.lookup(a, &level), nullptr);
    ASSERT_EQ(level, TlbHitLevel::L1);

    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(a, &level), nullptr);
    EXPECT_EQ(level, TlbHitLevel::Miss);
    EXPECT_EQ(tlb.lookup(b, &level), nullptr);
    EXPECT_EQ(level, TlbHitLevel::Miss);
}

TEST(TlbFlushFastPath, SecondFlushAfterRefillStillInvalidates)
{
    Tlb tlb(4, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.flushAll();
    tlb.flushAll(); // the empty fast path
    tlb.fill(0x2000, 0x80002000, Perm::rw(), Perm::rwx(), true);
    ASSERT_NE(tlb.lookup(0x2000), nullptr);
    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(0x2000), nullptr);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
}

TEST(TlbFlushFastPath, DroppedFillLeavesTheTlbEmpty)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.enable(1);
    injector.armNth("tlb.fill", 1);
    Tlb tlb(4, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    injector.disable();
    EXPECT_FALSE(tlb.filledSinceFlush());
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
}

TEST(TlbFlushFastPath, NativeTlbFlushedBySfence)
{
    constexpr Addr kVa = 0x40000000;
    Machine machine(rocketParams());
    PageTable pt(machine.mem(), bumpAllocator(256_MiB), PagingMode::Sv39);
    pt.map(kVa, 1_GiB, Perm::rw(), true);
    machine.hpmp().programSegment(0, 0, 16_GiB, Perm::rwx());
    machine.setSatp(pt.rootPa(), PagingMode::Sv39);
    machine.setPriv(PrivMode::User);
    machine.coldReset();
    EXPECT_FALSE(machine.tlb().filledSinceFlush());

    ASSERT_TRUE(machine.access(kVa, AccessType::Load).ok());
    EXPECT_TRUE(machine.access(kVa, AccessType::Load).tlbHit);
    EXPECT_TRUE(machine.tlb().filledSinceFlush());

    machine.sfenceVma();
    EXPECT_FALSE(machine.tlb().filledSinceFlush());
    const AccessOutcome out = machine.access(kVa, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.tlbHit);
}

TEST(TlbFlushFastPath, CombinedAndGStageTlbsFlushedByHfence)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Hpmp);
    const Addr gva = env.mapGuestPages(1);
    VirtMachine &vm = env.vm();
    vm.coldReset();
    EXPECT_FALSE(vm.combinedTlb().filledSinceFlush());
    EXPECT_FALSE(vm.gStageTlb().filledSinceFlush());

    ASSERT_TRUE(vm.access(gva, AccessType::Load).ok());
    EXPECT_TRUE(vm.combinedTlb().filledSinceFlush());
    EXPECT_TRUE(vm.gStageTlb().filledSinceFlush());
    EXPECT_TRUE(vm.access(gva, AccessType::Load).tlbHit);

    // hfence.vvma drops the combined TLB only: the walk's G-stage
    // translations still hit.
    vm.hfenceVvma();
    EXPECT_FALSE(vm.combinedTlb().filledSinceFlush());
    const VirtAccessOutcome vvma = vm.access(gva, AccessType::Load);
    ASSERT_TRUE(vvma.ok());
    EXPECT_FALSE(vvma.tlbHit);
    EXPECT_GT(vvma.gTlbHits, 0u);

    // hfence.gvma drops both.
    vm.hfenceGvma();
    EXPECT_FALSE(vm.combinedTlb().filledSinceFlush());
    EXPECT_FALSE(vm.gStageTlb().filledSinceFlush());
    const VirtAccessOutcome gvma = vm.access(gva, AccessType::Load);
    ASSERT_TRUE(gvma.ok());
    EXPECT_FALSE(gvma.tlbHit);
    EXPECT_EQ(gvma.gTlbHits, 0u);
}

} // namespace
} // namespace hpmp
