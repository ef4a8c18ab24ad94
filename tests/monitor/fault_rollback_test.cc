/**
 * @file
 * Error-handling contract tests for the secure monitor: typed error
 * codes, transactional rollback under injected faults (state digest
 * bit-identical after every failed call), Penglai-PMP segment
 * exhaustion, the Hpmp demote-to-table degraded mode and PMP-table
 * frame exhaustion.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "base/fault_inject.h"
#include "monitor/invariants.h"
#include "monitor/secure_monitor.h"

namespace hpmp
{
namespace
{

class RobustnessTest : public ::testing::Test
{
  protected:
    ~RobustnessTest() override { FaultInjector::instance().disable(); }

    void
    makeMonitor(IsolationScheme scheme)
    {
        machine = std::make_unique<Machine>(rocketParams());
        MonitorConfig config;
        config.scheme = scheme;
        monitor = std::make_unique<SecureMonitor>(*machine, config);
        machine->setPriv(PrivMode::Supervisor);
        machine->setBare();
    }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(RobustnessTest, TypedErrorCodes)
{
    makeMonitor(IsolationScheme::Hpmp);
    const Gms gms{2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast};
    ASSERT_TRUE(monitor->addGms(0, gms).ok);
    const DomainId enclave = monitor->createDomain();

    EXPECT_EQ(monitor->addGms(999, gms).code, MonitorError::NoSuchDomain);
    EXPECT_EQ(monitor->destroyDomain(999).code,
              MonitorError::NoSuchDomain);
    EXPECT_EQ(monitor->destroyDomain(0).code, MonitorError::BadArgument);
    EXPECT_EQ(monitor->removeGms(0, 3_GiB).code, MonitorError::NoSuchGms);
    EXPECT_EQ(monitor
                  ->addGms(0, {1_GiB + 7, kPageSize, Perm::rw(),
                               GmsLabel::Slow})
                  .code,
              MonitorError::BadArgument);
    EXPECT_EQ(monitor
                  ->addGms(0, {1_GiB, 0, Perm::rw(), GmsLabel::Slow})
                  .code,
              MonitorError::BadArgument);
    EXPECT_EQ(monitor
                  ->addGms(0, {64_MiB, 128_MiB, Perm::rw(),
                               GmsLabel::Slow})
                  .code,
              MonitorError::OverlapMonitor);
    EXPECT_EQ(monitor
                  ->addGms(enclave, {2_GiB + 1_MiB, 1_MiB, Perm::rw(),
                                     GmsLabel::Slow})
                  .code,
              MonitorError::OverlapDomain);
    EXPECT_EQ(monitor->shareGms(0, 2_GiB, enclave, Perm::rwx()).code,
              MonitorError::PermExceedsOwner);
    EXPECT_EQ(monitor->shareGms(0, 2_GiB, 0, Perm::ro()).code,
              MonitorError::BadArgument);
    EXPECT_EQ(monitor->switchTo(999).code, MonitorError::NoSuchDomain);
}

TEST_F(RobustnessTest, FailedCallsLeaveStateBitIdentical)
{
    makeMonitor(IsolationScheme::Hpmp);
    ASSERT_TRUE(
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast}).ok);
    const DomainId enclave = monitor->createDomain();
    ASSERT_TRUE(monitor
                    ->addGms(enclave,
                             {4_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast})
                    .ok);

    const uint64_t before = monitor->stateDigest();
    EXPECT_FALSE(monitor->addGms(999, {5_GiB, 4_KiB, Perm::rw(),
                                       GmsLabel::Slow}).ok);
    EXPECT_FALSE(monitor->addGms(0, {4_GiB, 4_MiB, Perm::rw(),
                                     GmsLabel::Slow}).ok);
    EXPECT_FALSE(monitor->removeGms(0, 5_GiB).ok);
    EXPECT_FALSE(monitor->setPerm(0, 5_GiB, Perm::ro()).ok);
    EXPECT_FALSE(monitor->hintHotRegion(0, 2_GiB + 0x100, 4_KiB).ok);
    EXPECT_FALSE(monitor->switchTo(12345).ok);
    EXPECT_EQ(monitor->stateDigest(), before);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

/**
 * Arm each monitor-path fault site by name and drive an operation
 * that reaches it. Every injection must surface as a typed
 * InjectedFault failure with the full state digest unchanged.
 */
TEST_F(RobustnessTest, EveryFaultSiteRollsBackCompletely)
{
    struct Case
    {
        const char *site;
        /** Drives one op against (monitor, enclave, spare domain). */
        std::function<MonitorResult(SecureMonitor &, DomainId, DomainId)>
            op;
    };
    const Case cases[] = {
        {"monitor.add_gms",
         [](SecureMonitor &m, DomainId, DomainId) {
             return m.addGms(0, {5_GiB, 4_KiB, Perm::rw(),
                                 GmsLabel::Slow});
         }},
        {"monitor.remove_gms",
         [](SecureMonitor &m, DomainId, DomainId) { return m.removeGms(0, 2_GiB); }},
        {"monitor.set_label",
         [](SecureMonitor &m, DomainId, DomainId) {
             return m.setLabel(0, 2_GiB, GmsLabel::Slow);
         }},
        {"monitor.set_perm",
         [](SecureMonitor &m, DomainId, DomainId) {
             return m.setPerm(0, 2_GiB, Perm::ro());
         }},
        {"monitor.share_gms",
         [](SecureMonitor &m, DomainId e, DomainId) {
             return m.shareGms(0, 2_GiB, e, Perm::ro());
         }},
        {"monitor.hint",
         [](SecureMonitor &m, DomainId, DomainId) {
             return m.hintHotRegion(0, 2_GiB, 4_KiB);
         }},
        {"monitor.switch",
         [](SecureMonitor &m, DomainId e, DomainId) { return m.switchTo(e); }},
        {"monitor.destroy_domain",
         [](SecureMonitor &m, DomainId e, DomainId) { return m.destroyDomain(e); }},
        // Table creation for a table-less domain allocates pmpte frames.
        {"monitor.alloc_pmpte",
         [](SecureMonitor &m, DomainId, DomainId spare) {
             return m.addGms(spare, {6_GiB, 4_KiB, Perm::rw(),
                                     GmsLabel::Slow});
         }},
        // Register programming fires while reapplying the layout.
        {"hpmp.program_segment",
         [](SecureMonitor &m, DomainId e, DomainId) { return m.switchTo(e); }},
        {"hpmp.program_table",
         [](SecureMonitor &m, DomainId e, DomainId) { return m.switchTo(e); }},
        // Switching to a domain using fewer entries disables the rest.
        {"hpmp.disable",
         [](SecureMonitor &m, DomainId e, DomainId) { return m.switchTo(e); }},
        {"pmpt.write_entry",
         [](SecureMonitor &m, DomainId, DomainId) {
             return m.setPerm(0, 2_GiB, Perm::rx());
         }},
    };

    FaultInjector &injector = FaultInjector::instance();
    for (const Case &c : cases) {
        SCOPED_TRACE(c.site);
        makeMonitor(IsolationScheme::Hpmp);
        ASSERT_TRUE(monitor
                        ->addGms(0, {2_GiB, 4_MiB, Perm::rw(),
                                     GmsLabel::Fast})
                        .ok);
        ASSERT_TRUE(monitor
                        ->addGms(0, {3_GiB, 4_KiB, Perm::rwx(),
                                     GmsLabel::Fast})
                        .ok);
        const DomainId enclave = monitor->createDomain();
        ASSERT_TRUE(monitor
                        ->addGms(enclave, {4_GiB, 4_MiB, Perm::rw(),
                                           GmsLabel::Fast})
                        .ok);
        const DomainId spare = monitor->createDomain(); // no table yet
        ASSERT_TRUE(monitor->switchTo(0).ok);

        const uint64_t before = monitor->stateDigest();
        injector.enable(7);
        injector.armNth(c.site, 1);
        const MonitorResult result = c.op(*monitor, enclave, spare);
        injector.disable();

        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.code, MonitorError::InjectedFault)
            << result.error;
        EXPECT_EQ(monitor->stateDigest(), before);
        EXPECT_EQ(checkIsolationInvariants(*monitor), "");
    }
}

TEST_F(RobustnessTest, InjectedFaultMidTableUpdateUndoesPartialWrites)
{
    makeMonitor(IsolationScheme::Hpmp);
    // A 4 MiB GMS spans many leaf pmptes; firing on a later store
    // leaves earlier stores of the same call to be journal-undone.
    ASSERT_TRUE(
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast}).ok);
    const uint64_t before = monitor->stateDigest();

    FaultInjector &injector = FaultInjector::instance();
    injector.enable(7);
    injector.armNth("pmpt.write_entry", 40);
    const MonitorResult result =
        monitor->addGms(0, {5_GiB, 4_MiB, Perm::rwx(), GmsLabel::Slow});
    injector.disable();

    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.code, MonitorError::InjectedFault);
    EXPECT_EQ(monitor->stateDigest(), before);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

TEST_F(RobustnessTest, AttestFaultLeavesStateUntouched)
{
    makeMonitor(IsolationScheme::Hpmp);
    ASSERT_TRUE(
        monitor->addGms(0, {2_GiB, 4_KiB, Perm::rw(), GmsLabel::Fast}).ok);
    const uint64_t before = monitor->stateDigest();

    FaultInjector &injector = FaultInjector::instance();
    injector.enable(7);
    injector.armNth("monitor.attest", 1);
    const auto attested = monitor->attestDomain(0, 0x1234);
    ASSERT_FALSE(attested.ok);
    EXPECT_EQ(attested.code, MonitorError::InjectedFault);
    injector.disable();
    EXPECT_EQ(monitor->stateDigest(), before);
    // The failure is visible in the monitor's own counters.
    EXPECT_GE(monitor->stats().get("errors.injected-fault"), 1u);
}

TEST_F(RobustnessTest, PmpSegmentExhaustionFailsTyped)
{
    makeMonitor(IsolationScheme::Pmp);
    const unsigned budget = monitor->segmentBudget();
    ASSERT_GT(budget, 0u);
    for (unsigned i = 0; i < budget; ++i) {
        ASSERT_TRUE(monitor
                        ->addGms(0, {1_GiB + i * kPageSize, kPageSize,
                                     Perm::rw(), GmsLabel::Fast})
                        .ok)
            << i;
    }

    const uint64_t before = monitor->stateDigest();
    const MonitorResult result = monitor->addGms(
        0, {2_GiB, kPageSize, Perm::rw(), GmsLabel::Fast});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.code, MonitorError::OutOfPmpEntries);
    // Zero state change: registers, GMS lists and counters identical.
    EXPECT_EQ(monitor->stateDigest(), before);
    EXPECT_EQ(monitor->gmsOf(0).size(), budget);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");

    // Penglai-PMP also cannot express non-NAPOT regions at all.
    EXPECT_EQ(monitor->removeGms(0, 1_GiB).code, MonitorError::None);
    EXPECT_EQ(monitor
                  ->addGms(0, {2_GiB, 3 * kPageSize, Perm::rw(),
                               GmsLabel::Fast})
                  .code,
              MonitorError::BadArgument);
}

TEST_F(RobustnessTest, HpmpExhaustionDemotesColdestFastGms)
{
    makeMonitor(IsolationScheme::Hpmp);
    const unsigned budget = monitor->segmentBudget();

    // Fill the segment budget with fast GMSs; the first one added is
    // the coldest (lowest recency stamp).
    for (unsigned i = 0; i < budget; ++i) {
        const MonitorResult r =
            monitor->addGms(0, {1_GiB + i * 4_MiB, 4_MiB, Perm::rw(),
                                GmsLabel::Fast});
        ASSERT_TRUE(r.ok) << i;
        EXPECT_FALSE(r.degraded) << i;
    }

    // Reference cost: the same add on a non-resident domain (its
    // table already exists) pays trap + table stores, no reprogramming.
    const DomainId enclave = monitor->createDomain();
    ASSERT_TRUE(monitor
                    ->addGms(enclave, {8_GiB, 4_MiB, Perm::rw(),
                                       GmsLabel::Slow})
                    .ok);
    const uint64_t baseline_cycles =
        monitor->addGms(enclave, {8_GiB + 4_MiB, 4_MiB, Perm::rw(),
                                  GmsLabel::Slow})
            .cycles;

    // One fast GMS beyond the budget: the call succeeds in degraded
    // mode instead of failing, demoting the coldest fast GMS.
    const MonitorResult result = monitor->addGms(
        0, {1_GiB + budget * 4_MiB, 4_MiB, Perm::rw(), GmsLabel::Fast});
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.degraded);

    const auto &list = monitor->gmsOf(0);
    ASSERT_EQ(list.size(), budget + 1);
    EXPECT_EQ(list[0].label, GmsLabel::Slow); // the coldest, demoted
    for (size_t i = 1; i < list.size(); ++i)
        EXPECT_EQ(list[i].label, GmsLabel::Fast) << i;

    // Cycle accounting: the degraded add reprogrammed the whole layout
    // (CSR writes + flush) on top of the baseline table stores.
    EXPECT_GT(result.cycles, baseline_cycles);

    // The demoted region stays protected — through the table now.
    AccessOutcome out;
    EXPECT_EQ(machine->checkPhys(1_GiB, AccessType::Load, out),
              Fault::None);
    EXPECT_EQ(machine->checkPhys(1_GiB, AccessType::Fetch, out),
              Fault::FetchAccessFault);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

TEST_F(RobustnessTest, HintHeatKeepsHotRegionResidentUnderPressure)
{
    makeMonitor(IsolationScheme::Hpmp);
    const unsigned budget = monitor->segmentBudget();
    for (unsigned i = 0; i < budget; ++i) {
        ASSERT_TRUE(monitor
                        ->addGms(0, {1_GiB + i * 4_MiB, 4_MiB,
                                     Perm::rw(), GmsLabel::Fast})
                        .ok);
    }
    // Re-heat the oldest GMS; the demotion victim moves to the second.
    ASSERT_TRUE(monitor->hintHotRegion(0, 1_GiB, 4_MiB).ok);
    ASSERT_TRUE(monitor
                    ->addGms(0, {1_GiB + budget * 4_MiB, 4_MiB,
                                 Perm::rw(), GmsLabel::Fast})
                    .ok);
    const auto &list = monitor->gmsOf(0);
    EXPECT_EQ(list[0].label, GmsLabel::Fast);
    EXPECT_EQ(list[1].label, GmsLabel::Slow);
}

TEST_F(RobustnessTest, TableFrameExhaustionFailsTyped)
{
    // A 16 KiB monitor region leaves two PMP-table frames: enough for
    // one root + one leaf, not for a second leaf.
    machine = std::make_unique<Machine>(rocketParams());
    MonitorConfig config;
    config.scheme = IsolationScheme::Hpmp;
    config.monitorSize = 16_KiB;
    monitor = std::make_unique<SecureMonitor>(*machine, config);

    ASSERT_TRUE(
        monitor->addGms(0, {1_GiB, 4_KiB, Perm::rw(), GmsLabel::Slow}).ok);
    const uint64_t before = monitor->stateDigest();
    // A GMS in a different 32 MiB span needs a fresh leaf node.
    const MonitorResult result =
        monitor->addGms(0, {2_GiB, 4_KiB, Perm::rw(), GmsLabel::Slow});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.code, MonitorError::OutOfTableFrames);
    EXPECT_EQ(monitor->stateDigest(), before);
    EXPECT_EQ(monitor->gmsOf(0).size(), 1u);
}

TEST_F(RobustnessTest, TableFramesAreReissuedAfterTheBumpRegionIsSpent)
{
    // A 64 KiB monitor region leaves eight PMP-table frames. Each
    // tenant's table takes two (root + leaf), so churning two tenants
    // spends the bump region within a few rounds; from then on every
    // table lives in frames of dead tables.
    MachineParams params = rocketParams();
    params.pmptwEntries = 8;
    machine = std::make_unique<Machine>(params);
    MonitorConfig config;
    config.scheme = IsolationScheme::Hpmp;
    config.monitorSize = 64_KiB;
    monitor = std::make_unique<SecureMonitor>(*machine, config);
    machine->setPriv(PrivMode::Supervisor);
    machine->setBare();

    auto slot_base = [](unsigned slot) { return 1_GiB + slot * 64_MiB; };
    std::vector<DomainId> tenants(2, 0);
    std::set<Addr> issued;
    AccessOutcome out;
    auto churn = [&](unsigned slot, Addr quarantined) {
        ASSERT_TRUE(monitor->switchTo(0).ok);
        if (tenants[slot] != 0) {
            ASSERT_TRUE(monitor->destroyDomain(tenants[slot]).ok);
        }
        const DomainId id = monitor->createDomain();
        tenants[slot] = id;
        const MonitorResult added = monitor->addGms(
            id, {slot_base(slot), 4_KiB, Perm::rw(), GmsLabel::Slow});
        ASSERT_TRUE(added.ok) << added.error;
        for (const Addr frame : monitor->tablePeek(id)->tablePages()) {
            EXPECT_NE(frame, quarantined);
            issued.insert(frame);
        }

        // Own GMS granted (twice, so the PMPTW cache serves the
        // second); every other tenant's GMS denied, whatever tables
        // the reissued frames held before.
        ASSERT_TRUE(monitor->switchTo(id).ok);
        EXPECT_EQ(machine->checkPhys(slot_base(slot), AccessType::Load, out),
                  Fault::None);
        EXPECT_EQ(machine->checkPhys(slot_base(slot), AccessType::Load, out),
                  Fault::None);
        for (unsigned other = 0; other < 3; ++other) {
            if (other == slot)
                continue;
            EXPECT_EQ(machine->checkPhys(slot_base(other), AccessType::Load,
                                         out),
                      Fault::LoadAccessFault);
        }
        EXPECT_EQ(checkIsolationInvariants(*monitor), "");
    };

    for (unsigned round = 0; round < 40; ++round)
        churn(round % 2, 0);
    EXPECT_EQ(issued.size(), 7u); // every frame but the host's root
    EXPECT_EQ(monitor->stats().get("errors.out-of-table-frames"), 0u);

    // A rolled-back addGms that popped a frame puts it back: the
    // root's frame comes off the free list, then the leaf's
    // allocation faults.
    ASSERT_TRUE(monitor->switchTo(0).ok);
    ASSERT_TRUE(monitor->destroyDomain(tenants[0]).ok);
    tenants[0] = monitor->createDomain();
    const std::vector<Addr> free_before = monitor->freeTableFrames();
    ASSERT_GE(free_before.size(), 2u);
    const uint64_t digest = monitor->stateDigest();
    FaultInjector &injector = FaultInjector::instance();
    injector.enable(7);
    injector.armNth("monitor.alloc_pmpte", 2);
    const MonitorResult failed = monitor->addGms(
        tenants[0], {slot_base(0), 4_KiB, Perm::rw(), GmsLabel::Slow});
    injector.disable();
    ASSERT_FALSE(failed.ok);
    EXPECT_EQ(failed.code, MonitorError::InjectedFault);
    EXPECT_EQ(monitor->stateDigest(), digest);
    EXPECT_EQ(monitor->freeTableFrames(), free_before);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
    ASSERT_TRUE(monitor
                    ->addGms(tenants[0], {slot_base(0), 4_KiB, Perm::rw(),
                                          GmsLabel::Slow})
                    .ok);
    EXPECT_EQ(monitor->freeTableFrames().size(), free_before.size() - 2);

    // Poison in a live tenant's leaf: the table heals into reissued
    // frames, the poisoned frame is retired and never handed out again.
    const Addr poisoned = monitor->tablePeek(tenants[1])->tablePages().back();
    machine->mem().poisonLine(poisoned + 0x40);
    const auto healed = monitor->handleMachineCheck(poisoned + 0x40);
    ASSERT_TRUE(healed.ok) << healed.error;
    ASSERT_EQ(healed.value, RasOutcome::HealedTable);
    EXPECT_TRUE(monitor->pageQuarantined(poisoned));
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
    for (unsigned round = 0; round < 20; ++round)
        churn(round % 2, poisoned);
    EXPECT_EQ(monitor->stats().get("errors.out-of-table-frames"), 0u);
}

TEST_F(RobustnessTest, DestroyingCurrentDomainRevokesItsLayout)
{
    makeMonitor(IsolationScheme::Hpmp);
    const DomainId enclave = monitor->createDomain();
    ASSERT_TRUE(monitor
                    ->addGms(enclave, {4_GiB, 4_MiB, Perm::rwx(),
                                       GmsLabel::Fast})
                    .ok);
    ASSERT_TRUE(monitor->switchTo(enclave).ok);

    AccessOutcome out;
    ASSERT_EQ(machine->checkPhys(4_GiB, AccessType::Load, out),
              Fault::None);
    ASSERT_TRUE(monitor->destroyDomain(enclave).ok);

    // The host is current again and the dead enclave's memory is gone
    // from the registers — not merely stale until the next switch.
    EXPECT_EQ(monitor->currentDomain(), 0u);
    EXPECT_EQ(machine->checkPhys(4_GiB, AccessType::Load, out),
              Fault::LoadAccessFault);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

TEST_F(RobustnessTest, SharedGmsRejectsDesynchronizingOps)
{
    makeMonitor(IsolationScheme::Hpmp);
    ASSERT_TRUE(
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast}).ok);
    const DomainId enclave = monitor->createDomain();
    ASSERT_TRUE(monitor->shareGms(0, 2_GiB, enclave, Perm::ro()).ok);

    // Narrowing the owner's copy or splitting it would leave the peer
    // views inconsistent; both are typed rejections.
    EXPECT_EQ(monitor->setPerm(0, 2_GiB, Perm::ro()).code,
              MonitorError::BadArgument);
    EXPECT_EQ(monitor->hintHotRegion(0, 2_GiB, 4_KiB).code,
              MonitorError::BadArgument);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

} // namespace
} // namespace hpmp
