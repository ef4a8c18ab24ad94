/**
 * @file
 * Check-battery tests: the oracle chaos and model_check share must
 * trip on one hand-built violation of each kind it judges, with the
 * stable kind id the model checker reports.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/params.h"
#include "core/smp.h"
#include "migrate/migration.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "pmpt/pmp_table.h"
#include "verify/check_battery.h"

namespace hpmp
{
namespace
{

constexpr Addr kRegion = 256_MiB;

/** A bare 2-hart system with one enclave owning a 64 KiB region. */
class CheckBatteryTest : public ::testing::Test
{
  protected:
    CheckBatteryTest() : CheckBatteryTest(GmsLabel::Fast) {}

    explicit CheckBatteryTest(GmsLabel label)
    {
        SmpParams sp;
        sp.harts = 2;
        smp = std::make_unique<SmpSystem>(rocketParams(), sp);
        monitor = std::make_unique<SecureMonitor>(*smp, MonitorConfig());
        for (unsigned h = 0; h < 2; ++h) {
            smp->hart(h).setPriv(PrivMode::Supervisor);
            smp->hart(h).setBare();
        }
        enclave = monitor->createDomain();
        EXPECT_TRUE(monitor->addGms(enclave,
                                    {kRegion, 64_KiB, Perm::rw(), label})
                        .ok);
        checker = std::make_unique<StaleChecker>(*smp, *monitor);
        hook = std::make_unique<ProbeHook>(
            *smp, *monitor, *checker,
            [this](const IpiEvent &) { return probe; });
        battery = std::make_unique<CheckBattery>(*monitor, checker.get(),
                                                 hook.get());
    }

    std::unique_ptr<SmpSystem> smp;
    std::unique_ptr<SecureMonitor> monitor;
    std::unique_ptr<StaleChecker> checker;
    std::unique_ptr<ProbeHook> hook;
    std::unique_ptr<CheckBattery> battery;
    DomainId enclave = 0;
    bool probe = false;
};

TEST_F(CheckBatteryTest, CleanSystemPassesEveryCheck)
{
    smp->setInterleaveHook(hook.get());
    battery->snapshot();
    EXPECT_TRUE(monitor->switchTo(enclave).ok);
    EXPECT_FALSE(battery->convergence());
    EXPECT_FALSE(battery->stale());
    EXPECT_FALSE(battery->nestedCall());
    EXPECT_FALSE(battery->windowsClosed());
    EXPECT_FALSE(battery->invariants());
    smp->setInterleaveHook(nullptr);
}

TEST_F(CheckBatteryTest, SkippedFenceIsAStaleGrant)
{
    checker->addWatch({1, kRegion, kRegion, AccessType::Store, true});
    smp->setInterleaveHook(hook.get());
    ASSERT_TRUE(monitor->switchTo(enclave).ok);
    ASSERT_FALSE(battery->stale());
    // Hart 1 is never fenced for the revoke and keeps granting stores.
    monitor->testSkipFenceNth(1);
    ASSERT_TRUE(monitor->setPerm(enclave, kRegion, Perm::ro()).ok);
    EXPECT_EQ(battery->stale().kind, "stale_checker");
    EXPECT_EQ(battery->convergence().kind, "convergence_divergence");
    smp->setInterleaveHook(nullptr);
}

TEST_F(CheckBatteryTest, DigestChangedAcrossAFailedCallIsARollback)
{
    battery->snapshot();
    EXPECT_FALSE(battery->rollback());
    // Stand-in for a failed call that leaked state.
    ASSERT_TRUE(monitor->setPerm(enclave, kRegion, Perm::ro()).ok);
    EXPECT_EQ(battery->rollback().kind, "rollback_divergence");
}

TEST_F(CheckBatteryTest, UnbouncedNestedCallAndOpenWindow)
{
    // Fed by hand outside any transaction: the nested call finds the
    // monitor lock free and succeeds, which a real window forbids.
    probe = true;
    hook->onIpiStep({IpiPhase::WindowBegin, 0, 0, 1});
    hook->onIpiStep({IpiPhase::Posted, 0, 1, 1});
    EXPECT_EQ(battery->nestedCall().kind, "nested_call");
    EXPECT_EQ(battery->windowsClosed().kind, "unclosed_window");
    hook->onIpiStep({IpiPhase::WindowEnd, 0, 0, 1});
    EXPECT_FALSE(battery->windowsClosed());
}

class CheckBatteryTableTest : public CheckBatteryTest
{
  protected:
    CheckBatteryTableTest() : CheckBatteryTest(GmsLabel::Slow) {}
};

TEST_F(CheckBatteryTableTest, ZeroedPmpteBreaksTheInvariants)
{
    ASSERT_FALSE(battery->invariants());
    const PmpTable *table = monitor->tablePeek(enclave);
    ASSERT_NE(table, nullptr);
    for (const Addr page : table->tablePages()) {
        for (Addr off = 0; off < kPageSize; off += 8)
            smp->mem().write64(page + off, 0);
    }
    EXPECT_EQ(battery->invariants().kind, "invariant");
}

TEST_F(CheckBatteryTest, RasAuditCatchesEachBrokenContract)
{
    const DomainId bystander = monitor->createDomain();
    PoisonReport report;
    report.cls = PoisonClass::Data;
    report.page = kRegion;
    report.victim = enclave;
    report.before = {0, enclave, bystander};

    // Wrong outcome for the class.
    MonitorValue<RasOutcome> outcome;
    outcome.value = RasOutcome::QuarantinedFree;
    const auto nonce = []() { return uint64_t(7); };
    const auto victim_probe = [&]() { return enclave; };
    EXPECT_EQ(battery->containment(report, outcome, nonce, victim_probe).kind,
              "blast_radius");

    // A bystander died with the victim.
    ASSERT_TRUE(monitor->destroyDomain(bystander).ok);
    EXPECT_EQ(battery->blast(report.before, enclave).kind, "blast_radius");

    // A "failed" containment that still retired the frame.
    const Addr free = kRegion + 64_MiB;
    smp->mem().poisonLine(free);
    battery->snapshot();
    ASSERT_TRUE(monitor->handleMachineCheck(free).ok);
    EXPECT_EQ(battery->rollback().kind, "rollback_divergence");

    // A whole-host degrade no monitor-region event accounts for.
    EXPECT_FALSE(battery->unexpectedFatal());
    const Addr monitorPage = monitor->config().monitorBase +
                             monitor->config().monitorSize - kPageSize;
    smp->mem().poisonLine(monitorPage);
    ASSERT_TRUE(monitor->handleMachineCheck(monitorPage).ok);
    ASSERT_TRUE(monitor->rasFatal());
    EXPECT_EQ(battery->unexpectedFatal().kind, "ras_fatal");
}

TEST_F(CheckBatteryTest, MigrationAuditCatchesEachBrokenOutcome)
{
    SmpSystem dstSmp(rocketParams(), SmpParams{});
    SecureMonitor dst(dstSmp, MonitorConfig());
    const DomainId live = dst.createDomain();

    MigrateResult commit;
    commit.ok = true;
    commit.destId = live;
    // The domain is still on the source after a "commit".
    EXPECT_EQ(auditMigration(commit, *monitor, enclave, dst).kind,
              "commit_state");

    MigrateResult stranded;
    stranded.committed = stranded.stranded = true;
    stranded.destId = live; // active, not staged
    EXPECT_EQ(auditMigration(stranded, *monitor, 12345, dst).kind,
              "stranded_grant");

    MigrateResult abort;
    abort.sourcePreDigest = 1;
    abort.sourcePostDigest = 2;
    EXPECT_EQ(auditMigration(abort, *monitor, enclave, dst).kind,
              "abort_digest");
    abort.sourcePostDigest = 1;
    EXPECT_FALSE(auditMigration(abort, *monitor, enclave, dst));
    ASSERT_TRUE(monitor->suspendDomain(enclave).ok);
    EXPECT_EQ(auditMigration(abort, *monitor, enclave, dst).kind,
              "abort_grantable");
}

} // namespace
} // namespace hpmp
