/**
 * @file
 * Chaos-fuzzer acceptance campaigns: thousands of randomized domain
 * lifecycle operations with fault injection armed, the isolation
 * invariants checked after every op and rollback proven by state
 * digest. Any failure here prints a seed that replays exactly via
 * `chaos_fuzz --seed <N>`.
 */

#include <gtest/gtest.h>

#include "verify/chaos_engine.h"

namespace hpmp
{
namespace
{

ChaosStats
runSeed(uint64_t seed, unsigned ops, IsolationScheme scheme)
{
    ChaosConfig config;
    config.seed = seed;
    config.ops = ops;
    config.scheme = scheme;
    const ChaosStats stats = runChaos(config);
    EXPECT_FALSE(stats.failed) << stats.failure;
    EXPECT_EQ(stats.ops, ops);
    EXPECT_EQ(stats.invariantChecks, ops);
    // Every campaign, single-hart included, runs the full battery.
    EXPECT_GT(stats.staleProbes, 0u);
    EXPECT_GT(stats.convergenceChecks, 0u);
    return stats;
}

TEST(ChaosFuzz, HpmpCampaigns)
{
    // The acceptance bar: >= 10,000 mixed operations across >= 8
    // seeds, faults armed throughout, every op audited.
    unsigned total_ops = 0;
    unsigned injected = 0;
    unsigned rollback_checks = 0;
    unsigned degraded = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const ChaosStats stats =
            runSeed(seed, 1300, IsolationScheme::Hpmp);
        total_ops += stats.ops;
        injected += stats.injectedFaults;
        rollback_checks += stats.rollbackChecks;
        degraded += stats.degradedOps;
    }
    EXPECT_GE(total_ops, 10000u);
    // The campaigns actually exercised what they claim to: faults
    // fired and were rolled back, and the Hpmp degraded mode ran.
    EXPECT_GT(injected, 100u);
    EXPECT_GT(rollback_checks, 100u);
    EXPECT_GT(degraded, 0u);
}

TEST(ChaosFuzz, PmpCampaigns)
{
    unsigned injected = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed)
        injected += runSeed(seed, 600, IsolationScheme::Pmp)
                        .injectedFaults;
    EXPECT_GT(injected, 0u);
}

TEST(ChaosFuzz, PmpTableCampaigns)
{
    unsigned injected = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed)
        injected += runSeed(seed, 600, IsolationScheme::PmpTable)
                        .injectedFaults;
    EXPECT_GT(injected, 0u);
}

TEST(ChaosFuzz, DeterministicPerSeed)
{
    ChaosConfig config;
    config.seed = 99;
    config.ops = 300;
    const ChaosStats a = runChaos(config);
    const ChaosStats b = runChaos(config);
    ASSERT_FALSE(a.failed) << a.failure;
    // Replayability: identical seed -> identical campaign, which is
    // what makes a printed failing seed reproducible.
    EXPECT_EQ(a.okOps, b.okOps);
    EXPECT_EQ(a.failedOps, b.failedOps);
    EXPECT_EQ(a.injectedFaults, b.injectedFaults);
    EXPECT_EQ(a.degradedOps, b.degradedOps);
}

} // namespace
} // namespace hpmp
