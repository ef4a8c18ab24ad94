/**
 * @file
 * Virtualized-machine tests: the reference-count reductions of §6
 * (48 -> 24 -> 18 for Sv39/Sv39x4 with a 2-level permission table),
 * hfence semantics and combined-TLB behaviour. Uses the VirtEnv
 * helper that places NPT/GPT pages in contiguous pools, and a fixture
 * over hand-built tables for the walk's G-stage TLB, guest PWC, A/D
 * store and poison semantics.
 */

#include <gtest/gtest.h>

#include "base/frame_alloc.h"
#include "workloads/virt_env.h"

namespace hpmp
{
namespace
{

class VirtRefTest : public ::testing::TestWithParam<VirtScheme>
{
};

TEST_P(VirtRefTest, ColdReferenceCounts)
{
    VirtEnv env(CoreKind::Rocket, GetParam());
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();

    const VirtAccessOutcome out = env.vm().access(gva, AccessType::Load);
    ASSERT_TRUE(out.ok()) << toString(out.fault);

    // Base 3D walk: 12 NPT + 3 GPT + 1 data = 16 references.
    EXPECT_EQ(out.nptRefs, 12u);
    EXPECT_EQ(out.gptRefs, 3u);
    EXPECT_EQ(out.dataRefs, 1u);

    switch (GetParam()) {
      case VirtScheme::Pmp:
        EXPECT_EQ(out.pmptRefs, 0u);
        EXPECT_EQ(out.totalRefs(), 16u);
        break;
      case VirtScheme::Pmpt:
        // +2 per reference: 48 total (§6).
        EXPECT_EQ(out.pmptRefs, 32u);
        EXPECT_EQ(out.totalRefs(), 48u);
        break;
      case VirtScheme::Hpmp:
        // NPT pages covered by a segment: 16 + 8 = 24 (§6).
        EXPECT_EQ(out.pmptRefs, 8u);
        EXPECT_EQ(out.totalRefs(), 24u);
        break;
      case VirtScheme::HpmpGpt:
        // GPT pages in a segment too: 16 + 2 = 18 (§6, HPMP-GPT).
        EXPECT_EQ(out.pmptRefs, 2u);
        EXPECT_EQ(out.totalRefs(), 18u);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, VirtRefTest,
    ::testing::Values(VirtScheme::Pmp, VirtScheme::Pmpt,
                      VirtScheme::Hpmp, VirtScheme::HpmpGpt),
    [](const ::testing::TestParamInfo<VirtScheme> &param_info) {
        switch (param_info.param) {
          case VirtScheme::Pmp: return "pmp";
          case VirtScheme::Pmpt: return "pmpt";
          case VirtScheme::Hpmp: return "hpmp";
          case VirtScheme::HpmpGpt: return "hpmpgpt";
        }
        return "unknown";
    });

TEST(VirtMachine, CombinedTlbHitIsDataOnly)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmpt);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();

    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());
    const VirtAccessOutcome out = env.vm().access(gva, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.totalRefs(), 1u);
}

TEST(VirtMachine, HfenceVvmaKeepsGStage)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    env.vm().hfenceVvma();
    const VirtAccessOutcome out = env.vm().access(gva, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.tlbHit);
    // Guest walk re-runs, but G-stage translations are still cached:
    // no NPT references at all.
    EXPECT_EQ(out.nptRefs, 0u);
    EXPECT_EQ(out.gptRefs, 3u);
    EXPECT_EQ(out.gTlbHits, 4u);
}

TEST(VirtMachine, HfenceGvmaDropsEverything)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    env.vm().hfenceGvma();
    const VirtAccessOutcome out = env.vm().access(gva, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.nptRefs, 12u);
    EXPECT_EQ(out.gptRefs, 3u);
}

TEST(VirtMachine, HfenceVvmaFlushContractCounters)
{
    // The flush contract, asserted through the TLB stat counters
    // themselves rather than walk-outcome refs: hfence.vvma drops the
    // combined TLB (next access *misses* it) but keeps the G-stage TLB
    // (every G-stage translation of the re-walk *hits*).
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    Tlb &combined = env.vm().combinedTlb();
    Tlb &gtlb = env.vm().gStageTlb();
    const uint64_t comb_misses = combined.misses();
    const uint64_t g_hits = gtlb.l1Hits() + gtlb.l2Hits();
    const uint64_t g_misses = gtlb.misses();

    env.vm().hfenceVvma();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    EXPECT_EQ(combined.misses(), comb_misses + 1);
    // 3 GPT frames + the data page: 4 G-stage lookups, all cached.
    EXPECT_EQ(gtlb.l1Hits() + gtlb.l2Hits(), g_hits + 4);
    EXPECT_EQ(gtlb.misses(), g_misses);
}

TEST(VirtMachine, HfenceGvmaFlushContractCounters)
{
    // hfence.gvma must drop the G-stage TLB too: the same re-walk that
    // hit 4 times after vvma misses 4 times after gvma.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    Tlb &combined = env.vm().combinedTlb();
    Tlb &gtlb = env.vm().gStageTlb();
    const uint64_t comb_misses = combined.misses();
    const uint64_t g_hits = gtlb.l1Hits() + gtlb.l2Hits();
    const uint64_t g_misses = gtlb.misses();

    env.vm().hfenceGvma();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    EXPECT_EQ(combined.misses(), comb_misses + 1);
    EXPECT_EQ(gtlb.l1Hits() + gtlb.l2Hits(), g_hits);
    EXPECT_EQ(gtlb.misses(), g_misses + 4);
}

TEST(VirtMachine, NeighborPageUsesGuestPwc)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(2);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    const VirtAccessOutcome out =
        env.vm().access(gva + kPageSize, AccessType::Load);
    ASSERT_TRUE(out.ok());
    // L2/L1 gptes cached in the guest PWC; the L0 gpte's G-stage walk
    // hits the G-TLB (same guest leaf-table page). Only the new data
    // page's G-stage walk (3 NPT refs) and the two end references
    // remain.
    EXPECT_EQ(out.gptRefs, 1u);
    EXPECT_EQ(out.nptRefs, 3u);
    EXPECT_EQ(out.dataRefs, 1u);
    EXPECT_EQ(out.gTlbHits, 1u);
}

TEST(VirtMachine, StorePermissionInliningBlocksEscalation)
{
    // A combined-TLB entry filled by a load must not let a store
    // bypass a read-only physical permission.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmpt);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    // Stores are allowed by the guest PT (rwx); they are also allowed
    // physically here, so the store succeeds through the TLB...
    const auto ok_store = env.vm().access(gva, AccessType::Store);
    EXPECT_TRUE(ok_store.ok());
    EXPECT_TRUE(ok_store.tlbHit);
}

TEST(VirtMachine, CombinedTlbKeepsRealUserBit)
{
    // Regression: the combined TLB used to be filled with a hardcoded
    // user=true, so a supervisor-only guest mapping became
    // user-accessible on a TLB hit.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1, 1, /*user=*/false);
    env.vm().coldReset();

    // Warm the combined TLB from supervisor mode.
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    env.vm().setGuestPriv(PrivMode::User);
    const VirtAccessOutcome out = env.vm().access(gva, AccessType::Load);
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.fault, Fault::LoadPageFault);

    env.vm().setGuestPriv(PrivMode::Supervisor);
    EXPECT_TRUE(env.vm().access(gva, AccessType::Load).ok());
}

TEST(VirtMachine, CombinedTlbEnforcesGStagePerm)
{
    // Regression: combined-TLB fills used to discard the G-stage leaf
    // permission, so a store allowed by the VS stage but forbidden by
    // the G stage succeeded on a TLB hit.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva =
        env.mapGuestPages(1, 1, /*user=*/true, /*npt_perm=*/Perm::ro());
    env.vm().coldReset();

    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    const VirtAccessOutcome hit = env.vm().access(gva, AccessType::Store);
    EXPECT_TRUE(hit.tlbHit);
    EXPECT_EQ(hit.fault, Fault::GuestStorePageFault);
}

TEST(VirtMachine, GStageTlbEnforcesCachedPerm)
{
    // Regression: the G-stage TLB hook used to cache Perm::rwx(), so
    // a short-circuited walk skipped the G-stage permission check.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva =
        env.mapGuestPages(1, 1, /*user=*/true, /*npt_perm=*/Perm::ro());
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    // Drop the combined TLB but keep the G-stage TLB: the store's
    // walk consults the cached G-stage leaf and must still fault.
    env.vm().hfenceVvma();
    const VirtAccessOutcome out = env.vm().access(gva, AccessType::Store);
    EXPECT_FALSE(out.tlbHit);
    EXPECT_EQ(out.fault, Fault::GuestStorePageFault);
}

TEST(VirtMachine, GuestStoreCountsMatchLoads)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Hpmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    const auto out = env.vm().access(gva, AccessType::Store);
    ASSERT_TRUE(out.ok());
    // Pages are created with A/D set: same counts as a load (24).
    EXPECT_EQ(out.totalRefs(), 24u);
}

TEST(VirtMachine, LatencyOrderingAcrossSchemes)
{
    // Cold-access latency must order PMP < HPMP-GPT < HPMP < PMPT.
    uint64_t cycles[4];
    const VirtScheme schemes[4] = {VirtScheme::Pmp, VirtScheme::HpmpGpt,
                                   VirtScheme::Hpmp, VirtScheme::Pmpt};
    for (int i = 0; i < 4; ++i) {
        VirtEnv env(CoreKind::Rocket, schemes[i]);
        const Addr gva = env.mapGuestPages(1);
        env.vm().coldReset();
        const auto out = env.vm().access(gva, AccessType::Load);
        ASSERT_TRUE(out.ok());
        cycles[i] = out.cycles;
    }
    EXPECT_LT(cycles[0], cycles[1]);
    EXPECT_LT(cycles[1], cycles[2]);
    EXPECT_LT(cycles[2], cycles[3]);
}

/**
 * A VirtMachine over hand-built tables: the guest-PT pool is
 * identity-mapped through the G stage so the guest table can be built
 * directly in simulated memory, and all memory is physically rwx
 * behind whatever segments a test programs into entry 0.
 */
class VirtWalkTest : public ::testing::Test
{
  protected:
    static constexpr Addr kNptPool = 128_MiB;
    static constexpr Addr kGptPool = 192_MiB;
    static constexpr uint64_t kGptPoolSize = 32_MiB;
    static constexpr Addr kGva = 0x40000000;
    static constexpr Addr kGpa = 0x10000000;
    static constexpr Addr kSpa = 1_GiB;

    VirtWalkTest()
        : vm(rocketParams()),
          npt(vm.mem(), bumpAllocator(kNptPool), PagingMode::Sv39, 2),
          gpt(vm.mem(), bumpAllocator(kGptPool), PagingMode::Sv39)
    {
        for (Addr gpa = kGptPool; gpa < kGptPool + kGptPoolSize;
             gpa += kPageSize)
            npt.map(gpa, gpa, Perm::rw(), true);
        vm.hpmp().programSegment(1, 0, 16_GiB, Perm::rwx());
        vm.setHgatp(npt.rootPa());
        vm.setVsatp(gpt.rootPa());
    }

    void
    mapGuestPage(Addr gva, Addr gpa, Addr spa, bool ad = true)
    {
        ASSERT_TRUE(gpt.map(gva, gpa, Perm::rw(), true, 0, ad, ad));
        ASSERT_TRUE(npt.map(gpa, spa, Perm::rwx(), true));
    }

    VirtMachine vm;
    PageTable npt;
    PageTable gpt;
};

TEST_F(VirtWalkTest, GStageTlbSkipsNptWalks)
{
    mapGuestPage(kGva, kGpa, kSpa);
    const VirtAccessOutcome first = vm.access(kGva, AccessType::Load);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.gTlbHits, 0u);

    // hfence.vvma drops the combined TLB and guest PWC only: all four
    // G-stage walks now hit, leaving 3 guest-PT refs + data.
    vm.hfenceVvma();
    const VirtAccessOutcome second = vm.access(kGva, AccessType::Load);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.gTlbHits, 4u);
    EXPECT_EQ(second.totalRefs(), 4u);
}

TEST_F(VirtWalkTest, VsPwcSkipsGuestLevels)
{
    mapGuestPage(kGva, kGpa, kSpa);
    mapGuestPage(kGva + kPageSize, kGpa + kPageSize, kSpa + kPageSize);
    ASSERT_TRUE(vm.access(kGva, AccessType::Load).ok());

    // Neighbouring page with the G-stage TLB dropped: L2/L1 gptes
    // cached -> their G-stage walks and guest refs vanish; only the
    // L0 gpte (3 NPT + 1 GPT) and the data (3 NPT + 1 data) remain.
    vm.gStageTlb().flushAll();
    const VirtAccessOutcome second =
        vm.access(kGva + kPageSize, AccessType::Load);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.totalRefs(), 8u);
    EXPECT_EQ(second.gptRefs, 1u);
}

TEST_F(VirtWalkTest, PwcHitWithAdUpdateFallsBackToGStageWalk)
{
    // Leaf created without A/D: a store through a PWC-cached leaf PTE
    // must re-locate the PTE through the G-stage to write A/D.
    mapGuestPage(kGva, kGpa, kSpa, /*ad=*/false);
    ASSERT_TRUE(vm.access(kGva, AccessType::Store).ok());

    // Clear D again in memory, then let a load cache the clean-D leaf
    // in the guest PWC.
    const Addr slot = *gpt.leafPteAddr(kGva);
    Pte pte{vm.mem().read64(slot)};
    pte.setD(false);
    vm.mem().write64(slot, pte.raw);
    vm.hfenceVvma();
    ASSERT_TRUE(vm.access(kGva, AccessType::Load).ok());

    // The store misses the combined and G-stage TLBs but hits the
    // guest PWC at every level: its only guest-PT reference is the
    // A/D store, located by a G-stage walk.
    vm.combinedTlb().flushAll();
    vm.gStageTlb().flushAll();
    const VirtAccessOutcome out = vm.access(kGva, AccessType::Store);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.gptRefs, 1u);
    EXPECT_EQ(out.nptRefs, 6u);
    EXPECT_TRUE(Pte{vm.mem().read64(slot)}.d());
}

TEST_F(VirtWalkTest, DeniedAdStoreLeavesGuestPteUnchanged)
{
    // Guest-PT pages readable but not writable: the walker reads them,
    // but its A/D store is denied by the physical check.
    vm.hpmp().programSegment(0, kGptPool, kGptPoolSize, Perm::ro());
    mapGuestPage(kGva, kGpa, kSpa, /*ad=*/false);

    const Addr slot = *gpt.leafPteAddr(kGva);
    const uint64_t before = vm.mem().read64(slot);
    const VirtAccessOutcome out = vm.access(kGva, AccessType::Load);
    EXPECT_EQ(out.fault, Fault::StoreAccessFault);
    EXPECT_EQ(out.gptRefs, 3u);
    EXPECT_EQ(vm.mem().read64(slot), before);
}

TEST_F(VirtWalkTest, PoisonedGuestPtPageIsNeverCached)
{
    mapGuestPage(kGva, kGpa, kSpa);
    const Addr slot = *gpt.leafPteAddr(kGva);
    vm.mem().poisonLine(slot);

    const VirtAccessOutcome out = vm.access(kGva, AccessType::Load);
    EXPECT_EQ(out.fault, Fault::MachineCheck);
    EXPECT_EQ(out.poisonAddr, slot);
    EXPECT_EQ(out.poisonOrigin, gptOrigin(0));
    EXPECT_FALSE(vm.vsPwc().lookup(0, kGva).has_value());
}

TEST_F(VirtWalkTest, PoisonedNptPageIsNeverCached)
{
    mapGuestPage(kGva, kGpa, kSpa);
    const Addr slot = *npt.leafPteAddr(kGpa);
    vm.mem().poisonLine(slot);

    const VirtAccessOutcome out = vm.access(kGva, AccessType::Load);
    EXPECT_EQ(out.fault, Fault::MachineCheck);
    EXPECT_EQ(out.poisonAddr, slot);
    EXPECT_EQ(out.poisonOrigin, nptOrigin(0));
    EXPECT_EQ(vm.gStageTlb().lookup(kGpa), nullptr);
}

} // namespace
} // namespace hpmp
