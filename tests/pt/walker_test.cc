/**
 * @file
 * Page-table-walker tests: reference ordering, faults, superpages,
 * A/D updates and privilege checks.
 */

#include <gtest/gtest.h>

#include "base/frame_alloc.h"
#include "pt/page_table.h"
#include "pt/walker.h"

namespace hpmp
{
namespace
{

class WalkerTest : public ::testing::Test
{
  protected:
    WalkerTest()
        : mem(4_GiB),
          pt(mem, bumpAllocator(16_MiB), PagingMode::Sv39)
    {
    }

    WalkResult
    walk(Addr va, AccessType type = AccessType::Load,
         PrivMode priv = PrivMode::User)
    {
        WalkConfig config;
        return walkPageTable(mem, pt.rootPa(), va, type, priv, config);
    }

    PhysMem mem;
    PageTable pt;
};

TEST_F(WalkerTest, ThreeRefsRootToLeaf)
{
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::rw(), true));
    const WalkResult result = walk(0x40000123);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.pa, 0x80000123u);
    ASSERT_EQ(result.refs.size(), 3u);
    EXPECT_EQ(result.refs[0].level, 2u);
    EXPECT_EQ(result.refs[1].level, 1u);
    EXPECT_EQ(result.refs[2].level, 0u);
    // The first reference must be inside the root page.
    EXPECT_EQ(alignDown(result.refs[0].pa, kPageSize), pt.rootPa());
    EXPECT_EQ(result.leafLevel, 0u);
    EXPECT_EQ(result.perm, Perm::rw());
}

TEST_F(WalkerTest, SuperpageLeafStopsEarly)
{
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::rw(), true, 1));
    const WalkResult result = walk(0x40012345);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.pa, 0x80012345u);
    EXPECT_EQ(result.refs.size(), 2u);
    EXPECT_EQ(result.leafLevel, 1u);
}

TEST_F(WalkerTest, UnmappedFaultsWithPartialRefs)
{
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::rw(), true));
    // Same L2/L1 path, missing L0 entry.
    const WalkResult result = walk(0x40000000 + 5 * kPageSize);
    EXPECT_EQ(result.fault, Fault::LoadPageFault);
    EXPECT_EQ(result.refs.size(), 3u); // read the invalid leaf slot
}

TEST_F(WalkerTest, WriteOnlyPteIsMalformed)
{
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000,
                       Perm{false, true, false}, true));
    EXPECT_EQ(walk(0x40000000, AccessType::Store).fault,
              Fault::StorePageFault);
}

TEST_F(WalkerTest, MisalignedSuperpageFaults)
{
    // Build a leaf at level 1 whose PPN has low bits set.
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::rw(), true, 1));
    auto slot = pt.leafPteAddr(0x40000000);
    ASSERT_TRUE(slot.has_value());
    const Pte bad = Pte::leaf(0x80001000, Perm::rw(), true, true, true);
    mem.write64(*slot, bad.raw);
    EXPECT_EQ(walk(0x40000000).fault, Fault::LoadPageFault);
}

TEST_F(WalkerTest, PermissionChecks)
{
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::ro(), true));
    EXPECT_TRUE(walk(0x40000000, AccessType::Load).ok());
    EXPECT_EQ(walk(0x40000000, AccessType::Store).fault,
              Fault::StorePageFault);
    EXPECT_EQ(walk(0x40000000, AccessType::Fetch).fault,
              Fault::FetchPageFault);
}

TEST_F(WalkerTest, PrivilegeRules)
{
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::rwx(), true));
    ASSERT_TRUE(pt.map(0x50000000, 0x90000000, Perm::rwx(), false));

    // U page: user OK; supervisor loads OK under SUM, fetch faults.
    EXPECT_TRUE(walk(0x40000000, AccessType::Load,
                     PrivMode::User).ok());
    EXPECT_TRUE(walk(0x40000000, AccessType::Load,
                     PrivMode::Supervisor).ok());
    EXPECT_EQ(walk(0x40000000, AccessType::Fetch,
                   PrivMode::Supervisor).fault,
              Fault::FetchPageFault);

    // S page: user always faults.
    EXPECT_EQ(walk(0x50000000, AccessType::Load, PrivMode::User).fault,
              Fault::LoadPageFault);
    EXPECT_TRUE(walk(0x50000000, AccessType::Load,
                     PrivMode::Supervisor).ok());

    // Without SUM, supervisor loads from U pages fault too.
    WalkConfig no_sum;
    no_sum.sumSet = false;
    EXPECT_EQ(walkPageTable(mem, pt.rootPa(), 0x40000000,
                            AccessType::Load, PrivMode::Supervisor,
                            no_sum).fault,
              Fault::LoadPageFault);
}

TEST_F(WalkerTest, AdUpdateAddsWriteRef)
{
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::rw(), true, 0,
                       /*accessed=*/false, /*dirty=*/false));
    const WalkResult load = walk(0x40000000, AccessType::Load);
    ASSERT_TRUE(load.ok());
    ASSERT_EQ(load.refs.size(), 4u);
    EXPECT_TRUE(load.refs[3].write);

    // The A bit is now set in memory: the next load needs no update.
    const WalkResult again = walk(0x40000000, AccessType::Load);
    EXPECT_EQ(again.refs.size(), 3u);

    // But a store still needs to set D.
    const WalkResult store = walk(0x40000000, AccessType::Store);
    ASSERT_EQ(store.refs.size(), 4u);
    EXPECT_TRUE(store.refs[3].write);
    const Pte leaf{mem.read64(*pt.leafPteAddr(0x40000000))};
    EXPECT_TRUE(leaf.a());
    EXPECT_TRUE(leaf.d());
}

TEST_F(WalkerTest, AdFaultModeWithoutHardwareUpdate)
{
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::rw(), true, 0,
                       false, false));
    WalkConfig config;
    config.hardwareAdUpdate = false;
    EXPECT_EQ(walkPageTable(mem, pt.rootPa(), 0x40000000,
                            AccessType::Load, PrivMode::User,
                            config).fault,
              Fault::LoadPageFault);
}

/** Levels sweep: ref count equals the number of levels. */
class WalkerLevels : public ::testing::TestWithParam<PagingMode>
{
};

TEST_P(WalkerLevels, RefCountMatchesDepth)
{
    PhysMem mem(4_GiB);
    PageTable pt(mem, bumpAllocator(16_MiB), GetParam());
    ASSERT_TRUE(pt.map(0x40000000, 0x80000000, Perm::rw(), true));
    WalkConfig config;
    config.mode = GetParam();
    const WalkResult result = walkPageTable(
        mem, pt.rootPa(), 0x40000000, AccessType::Load, PrivMode::User,
        config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.refs.size(), ptLevels(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Modes, WalkerLevels,
                         ::testing::Values(PagingMode::Sv39,
                                           PagingMode::Sv48,
                                           PagingMode::Sv57));

} // namespace
} // namespace hpmp
