/**
 * @file
 * Two-stage (hypervisor) translation tests: the 16-reference 3D-walk
 * of Fig. 8 and fault propagation. The G-stage TLB and guest PWC are
 * VirtMachine state, tested in core/virt_machine_test.cc.
 */

#include <gtest/gtest.h>

#include "base/frame_alloc.h"
#include "pt/page_table.h"
#include "pt/two_stage.h"

namespace hpmp
{
namespace
{

class TwoStageTest : public ::testing::Test
{
  protected:
    TwoStageTest()
        : mem(16_GiB),
          npt(mem, bumpAllocator(128_MiB), PagingMode::Sv39, 2),
          gpt(mem, bumpAllocator(192_MiB), PagingMode::Sv39)
    {
        // Identity-map the guest-PT pool through the G-stage so the
        // guest table can be built directly in simulated memory.
        for (Addr gpa = 192_MiB; gpa < 224_MiB; gpa += kPageSize)
            npt.map(gpa, gpa, Perm::rw(), true);
    }

    void
    mapGuestPage(Addr gva, Addr gpa, Addr spa)
    {
        ASSERT_TRUE(gpt.map(gva, gpa, Perm::rwx(), true));
        ASSERT_TRUE(npt.map(gpa, spa, Perm::rwx(), true));
    }

    TwoStageResult
    walk(Addr gva, AccessType type = AccessType::Load)
    {
        TwoStageConfig config;
        return walkTwoStage(mem, gpt.rootPa(), npt.rootPa(), gva, type,
                            PrivMode::Supervisor, config);
    }

    PhysMem mem;
    PageTable npt;
    PageTable gpt;
};

TEST_F(TwoStageTest, SixteenReferences)
{
    mapGuestPage(0x40000000, 0x10000000, 1_GiB);
    const TwoStageResult result = walk(0x40000000);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.gpa, 0x10000000u);
    EXPECT_EQ(result.spa, 1_GiB);

    // Fig. 8: 4 G-stage walks x 3 NPT refs + 3 guest-PT refs + data.
    unsigned npt_refs = 0, gpt_refs = 0, data_refs = 0;
    for (const VirtRef &ref : result.refs) {
        switch (ref.kind) {
          case VirtRefKind::NptPage: ++npt_refs; break;
          case VirtRefKind::GptPage: ++gpt_refs; break;
          case VirtRefKind::Data: ++data_refs; break;
        }
    }
    EXPECT_EQ(npt_refs, 12u);
    EXPECT_EQ(gpt_refs, 3u);
    EXPECT_EQ(data_refs, 1u);
    EXPECT_EQ(result.refs.size(), 16u);
    EXPECT_EQ(result.gstageWalks, 4u);
}

TEST_F(TwoStageTest, GuestFaultWhenGpaUnmapped)
{
    // Guest PT maps the page, but the G-stage does not.
    ASSERT_TRUE(gpt.map(0x40000000, 0x20000000, Perm::rwx(), true));
    const TwoStageResult result = walk(0x40000000);
    EXPECT_EQ(result.fault, Fault::GuestLoadPageFault);
}

TEST_F(TwoStageTest, GuestPageFaultWhenGvaUnmapped)
{
    const TwoStageResult result = walk(0x7000000000 & mask(39));
    EXPECT_EQ(result.fault, Fault::LoadPageFault);
}

TEST_F(TwoStageTest, StoreChecksGuestWritePermission)
{
    ASSERT_TRUE(gpt.map(0x40000000, 0x10000000, Perm::ro(), true));
    ASSERT_TRUE(npt.map(0x10000000, 1_GiB, Perm::rwx(), true));
    EXPECT_EQ(walk(0x40000000, AccessType::Store).fault,
              Fault::StorePageFault);
}

} // namespace
} // namespace hpmp
