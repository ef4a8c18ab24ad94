/**
 * @file
 * The monitor's GMS ownership index: addGms answers its overlap query
 * from one ordered map of the distinct GMS ranges of all live domains
 * instead of scanning every domain. These tests pin the overlap
 * answers (adjacent, containing, contained), the holder counts of
 * shared ranges, the ranges a hot-region split leaves, and that a
 * rolled-back addGms or destroyDomain leaves the index as it was.
 * checkIsolationInvariants recomputes the index from the GMS lists
 * after every step.
 */

#include <gtest/gtest.h>

#include "base/fault_inject.h"
#include "monitor/invariants.h"
#include "monitor/secure_monitor.h"

namespace hpmp
{
namespace
{

class GmsIndexTest : public ::testing::Test
{
  protected:
    GmsIndexTest()
    {
        MonitorConfig config;
        config.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(machine, config);
    }

    ~GmsIndexTest() override { FaultInjector::instance().disable(); }

    MonitorResult
    add(DomainId id, Addr base, uint64_t size,
        GmsLabel label = GmsLabel::Slow)
    {
        return monitor->addGms(id, {base, size, Perm::rw(), label});
    }

    /** Holders of the indexed range at base, 0 if none starts there. */
    uint32_t
    holders(Addr base, uint64_t size) const
    {
        const auto it = monitor->gmsIndex().find(base);
        if (it == monitor->gmsIndex().end())
            return 0;
        EXPECT_EQ(it->second.end, base + size);
        return it->second.holders;
    }

    Machine machine{rocketParams()};
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(GmsIndexTest, AdjacentRangesAreAcceptedOverlapsRejected)
{
    const DomainId a = monitor->createDomain();
    const DomainId b = monitor->createDomain();
    ASSERT_TRUE(add(a, 2_GiB, 4_MiB).ok);

    // Touching either end is no overlap, in the same or another domain.
    EXPECT_TRUE(add(b, 2_GiB + 4_MiB, 4_MiB).ok);
    EXPECT_TRUE(add(a, 2_GiB - 4_MiB, 4_MiB).ok);

    // Containing, contained, straddling either edge: all rejected.
    const DomainId c = monitor->createDomain();
    EXPECT_EQ(add(c, 2_GiB - 8_MiB, 32_MiB).code,
              MonitorError::OverlapDomain);
    EXPECT_EQ(add(c, 2_GiB + 1_MiB, 1_MiB).code,
              MonitorError::OverlapDomain);
    EXPECT_EQ(add(c, 2_GiB + 3_MiB, 2_MiB).code,
              MonitorError::OverlapDomain);
    EXPECT_EQ(add(c, 2_GiB - 5_MiB, 2_MiB).code,
              MonitorError::OverlapDomain);
    EXPECT_EQ(add(a, 2_GiB + kPageSize, kPageSize).code,
              MonitorError::OverlapDomain);

    EXPECT_EQ(monitor->gmsIndex().size(), 3u);
    EXPECT_EQ(holders(2_GiB, 4_MiB), 1u);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");

    // A removed range frees exactly its own bytes.
    ASSERT_TRUE(monitor->removeGms(a, 2_GiB).ok);
    EXPECT_EQ(holders(2_GiB, 4_MiB), 0u);
    EXPECT_TRUE(add(c, 2_GiB + 1_MiB, 1_MiB).ok);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

TEST_F(GmsIndexTest, SharedCopySurvivesOwnersRemove)
{
    const DomainId owner = monitor->createDomain();
    const DomainId peer = monitor->createDomain();
    const DomainId third = monitor->createDomain();
    ASSERT_TRUE(add(owner, 3_GiB, 2_MiB).ok);
    ASSERT_TRUE(monitor->shareGms(owner, 3_GiB, peer, Perm::ro()).ok);
    EXPECT_EQ(holders(3_GiB, 2_MiB), 2u);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");

    // The peer's copy still holds the range after the owner lets go.
    ASSERT_TRUE(monitor->removeGms(owner, 3_GiB).ok);
    EXPECT_EQ(holders(3_GiB, 2_MiB), 1u);
    EXPECT_EQ(add(third, 3_GiB + 1_MiB, 4_KiB).code,
              MonitorError::OverlapDomain);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");

    ASSERT_TRUE(monitor->removeGms(peer, 3_GiB).ok);
    EXPECT_TRUE(monitor->gmsIndex().empty());
    EXPECT_TRUE(add(third, 3_GiB + 1_MiB, 4_KiB).ok);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

TEST_F(GmsIndexTest, HintSplitIndexesEveryPiece)
{
    const DomainId a = monitor->createDomain();
    const DomainId b = monitor->createDomain();
    ASSERT_TRUE(add(a, 4_GiB, 4_MiB).ok);
    ASSERT_TRUE(monitor->hintHotRegion(a, 4_GiB + 1_MiB, 1_MiB).ok);

    // [4G, 4G+1M) [4G+1M, 4G+2M) [4G+2M, 4G+4M)
    EXPECT_EQ(monitor->gmsIndex().size(), 3u);
    EXPECT_EQ(holders(4_GiB, 1_MiB), 1u);
    EXPECT_EQ(holders(4_GiB + 1_MiB, 1_MiB), 1u);
    EXPECT_EQ(holders(4_GiB + 2_MiB, 2_MiB), 1u);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");

    // Each piece still blocks others; dropping the hot piece opens
    // exactly its hole.
    EXPECT_EQ(add(b, 4_GiB + 1_MiB, 4_KiB).code,
              MonitorError::OverlapDomain);
    EXPECT_EQ(add(b, 4_GiB + 3_MiB, 4_KiB).code,
              MonitorError::OverlapDomain);
    ASSERT_TRUE(monitor->removeGms(a, 4_GiB + 1_MiB).ok);
    EXPECT_TRUE(add(b, 4_GiB + 1_MiB, 1_MiB).ok);
    EXPECT_EQ(add(b, 4_GiB + 2_MiB, 4_KiB).code,
              MonitorError::OverlapDomain);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

TEST_F(GmsIndexTest, RolledBackAddLeavesIndexUnchanged)
{
    const DomainId a = monitor->createDomain();
    ASSERT_TRUE(add(a, 2_GiB, 4_MiB).ok);
    const GmsIndex before = monitor->gmsIndex();
    const uint64_t digest = monitor->stateDigest();

    // monitor.add_gms fires before the GMS is listed; pmpt.write_entry
    // fires after it was listed and indexed, while the table is
    // written, so rollback has to take the range out again.
    FaultInjector &injector = FaultInjector::instance();
    for (const char *site : {"monitor.add_gms", "pmpt.write_entry"}) {
        SCOPED_TRACE(site);
        injector.enable(3);
        injector.armNth(site, 1);
        const MonitorResult r = add(a, 6_GiB, 4_MiB);
        injector.disable();
        ASSERT_FALSE(r.ok);
        EXPECT_EQ(r.code, MonitorError::InjectedFault);
        EXPECT_EQ(monitor->stateDigest(), digest);
        EXPECT_EQ(monitor->gmsIndex().size(), before.size());
        EXPECT_EQ(holders(6_GiB, 4_MiB), 0u);
        EXPECT_EQ(checkIsolationInvariants(*monitor), "");
    }
    EXPECT_TRUE(add(a, 6_GiB, 4_MiB).ok);
}

TEST_F(GmsIndexTest, RolledBackDestroyKeepsTheRangesOwned)
{
    const DomainId a = monitor->createDomain();
    const DomainId b = monitor->createDomain();
    ASSERT_TRUE(add(a, 2_GiB, 4_MiB, GmsLabel::Fast).ok);
    ASSERT_TRUE(add(a, 5_GiB, 4_MiB).ok);
    ASSERT_TRUE(monitor->shareGms(a, 5_GiB, b, Perm::ro()).ok);
    ASSERT_TRUE(monitor->switchTo(a).ok);
    const uint64_t digest = monitor->stateDigest();

    // Destroying the running domain reprograms the host's layout after
    // the erase; a fault there rolls the erase back.
    FaultInjector &injector = FaultInjector::instance();
    injector.enable(3);
    injector.armNth("hpmp.program_table", 1);
    const MonitorResult r = monitor->destroyDomain(a);
    injector.disable();
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(monitor->stateDigest(), digest);
    EXPECT_EQ(holders(2_GiB, 4_MiB), 1u);
    EXPECT_EQ(holders(5_GiB, 4_MiB), 2u);
    EXPECT_EQ(add(b, 2_GiB, 4_KiB).code, MonitorError::OverlapDomain);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");

    // The committed destroy drops a's holds; b's shared copy stays.
    ASSERT_TRUE(monitor->destroyDomain(a).ok);
    EXPECT_EQ(holders(2_GiB, 4_MiB), 0u);
    EXPECT_EQ(holders(5_GiB, 4_MiB), 1u);
    EXPECT_TRUE(add(b, 2_GiB, 4_KiB).ok);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

} // namespace
} // namespace hpmp
