/**
 * @file
 * Stale-translation checker tests: pre-ack stale grants inside a
 * shootdown window are observed and bounded (never fatal), a stale
 * grant on a fenced hart is a hard violation the checker reports, and
 * the full chaos matrix — 8 seeds x {4,8} harts x all three isolation
 * schemes, fault injection armed — finishes with zero post-ack stale
 * grants.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/fault_inject.h"
#include "core/smp.h"
#include "verify/chaos_engine.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"

namespace hpmp
{
namespace
{

class StaleTranslationTest : public ::testing::Test
{
  protected:
    ~StaleTranslationTest() override
    {
        if (smp)
            smp->setInterleaveHook(nullptr);
        FaultInjector::instance().disable();
    }

    void
    makeSmp(unsigned harts)
    {
        SmpParams sp;
        sp.harts = harts;
        sp.schedSeed = 21;
        smp = std::make_unique<SmpSystem>(rocketParams(), sp);
        MonitorConfig config;
        config.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(*smp, config);
        for (unsigned h = 0; h < harts; ++h) {
            smp->hart(h).setPriv(PrivMode::Supervisor);
            smp->hart(h).setBare();
        }
    }

    std::unique_ptr<SmpSystem> smp;
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(StaleTranslationTest, PreAckStaleGrantsAreCountedNotFatal)
{
    makeSmp(4);
    ASSERT_TRUE(
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast})
            .ok);

    StaleChecker checker(*smp, *monitor);
    for (unsigned h = 0; h < 4; ++h) {
        // Bare harts: va == pa. Store watches, so narrowing rw -> ro
        // makes a not-yet-fenced hart's cached rw a stale grant.
        checker.addWatch(
            {h, 2_GiB + h * kPageSize, 2_GiB + h * kPageSize,
             AccessType::Store});
    }
    smp->setInterleaveHook(&checker);

    ASSERT_TRUE(monitor->setPerm(0, 2_GiB, Perm::ro()).ok);

    EXPECT_EQ(checker.windowsSeen(), 1u);
    EXPECT_GT(checker.probesRun(), 0u);
    // Unacked harts were still granting the store mid-window: the
    // checker must observe the shootdown window, and must not treat it
    // as a failure.
    EXPECT_GE(checker.preAckStaleHits(), 3u);
    EXPECT_FALSE(checker.failed()) << checker.failure();
    EXPECT_EQ(checker.postAckViolations(), 0u);

    // After the call returned, every hart is fenced: quiescence is
    // clean and the stale hits stop accumulating as violations.
    EXPECT_TRUE(checker.checkQuiescent());
    EXPECT_FALSE(checker.failed());
}

TEST_F(StaleTranslationTest, StaleGrantOnAFencedHartIsAViolation)
{
    // Manufacture the exact bug the checker exists to catch: after a
    // call fully commits and fences, one hart's register file is
    // clobbered back to a granting state (a "missed fence"). The
    // quiescent sweep must flag it as a hard violation.
    makeSmp(2);
    ASSERT_TRUE(
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast})
            .ok);
    ASSERT_TRUE(monitor->setPerm(0, 2_GiB, Perm::ro()).ok);

    StaleChecker checker(*smp, *monitor);
    checker.addWatch({1, 2_GiB, 2_GiB, AccessType::Store});
    ASSERT_TRUE(checker.checkQuiescent()); // clean before sabotage

    // Clobber hart 1's mirror of the fast GMS (entry 1 — entry 0 is
    // the monitor region) back to the pre-narrowing rw, behind the
    // monitor's back: exactly what a missed fence would leave behind.
    smp->hart(1).hpmp().programSegment(1, 2_GiB, 4_MiB, Perm::rw());

    EXPECT_FALSE(checker.checkQuiescent());
    EXPECT_TRUE(checker.failed());
    EXPECT_GE(checker.postAckViolations(), 1u);
    EXPECT_NE(checker.failure().find("stale-translation violation"),
              std::string::npos)
        << checker.failure();
}

TEST(StaleMatrix, ChaosCampaignsHaveNoPostAckStaleGrants)
{
    // The acceptance matrix: 8 seeds x {4,8} harts x all three
    // schemes, fault injection armed. Every campaign must end with
    // zero post-ack stale grants (stats.failed covers the checker,
    // the per-hart rollback digests and the isolation invariants).
    for (const IsolationScheme scheme :
         {IsolationScheme::Pmp, IsolationScheme::PmpTable,
          IsolationScheme::Hpmp}) {
        for (const unsigned harts : {4u, 8u}) {
            for (uint64_t seed = 1; seed <= 8; ++seed) {
                ChaosConfig config;
                config.seed = seed;
                config.ops = 40;
                config.scheme = scheme;
                config.harts = harts;
                config.faultProb = 0.25;
                const ChaosStats stats = runChaos(config);
                ASSERT_FALSE(stats.failed)
                    << "scheme=" << toString(scheme)
                    << " harts=" << harts << " seed=" << seed << ": "
                    << stats.failure;
                EXPECT_GT(stats.staleProbes, 0u);
                EXPECT_GT(stats.convergenceChecks, 0u);
            }
        }
    }
}

TEST(StaleMatrix, OsLayerCampaignDrivesPagedWatches)
{
    // The OS-layer campaign adds per-hart kernels and paged watch
    // addresses, reaching the TLB-inlined-permission flavour of the
    // bug class. Still zero post-ack violations.
    for (uint64_t seed = 1; seed <= 2; ++seed) {
        ChaosConfig config;
        config.seed = seed;
        config.ops = 60;
        config.scheme = IsolationScheme::Hpmp;
        config.harts = 4;
        config.layer = ChaosLayer::Os;
        const ChaosStats stats = runChaos(config);
        ASSERT_FALSE(stats.failed) << "seed " << seed << ": "
                                   << stats.failure;
        EXPECT_GT(stats.osOps, 0u);
        EXPECT_GT(stats.staleProbes, 0u);
    }
}

} // namespace
} // namespace hpmp
