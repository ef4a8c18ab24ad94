/**
 * @file
 * Stats-layer tests: log2-bucket Distribution edges, on-demand
 * Formula ratios, and the dumpJson -> parseStatsJson round trip that
 * the --stats-json pipeline relies on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/stats.h"

namespace hpmp
{
namespace
{

/** The shift loop bucketOf replaced: the value's bit width. */
unsigned
referenceBucketOf(uint64_t v)
{
    unsigned width = 0;
    for (; v; v >>= 1)
        ++width;
    return width;
}

TEST(Distribution, BucketOfEqualsShiftLoop)
{
    std::vector<uint64_t> values = {0, 1, UINT64_MAX};
    for (unsigned k = 1; k < 64; ++k) {
        values.push_back((1ull << k) - 1);
        values.push_back(1ull << k);
        values.push_back((1ull << k) + 1);
    }
    for (uint64_t v : values)
        EXPECT_EQ(Distribution::bucketOf(v), referenceBucketOf(v)) << v;
}

TEST(Distribution, BucketEdges)
{
    // Bucket 0 holds the value 0; bucket i >= 1 holds the i-bit values
    // [2^(i-1), 2^i - 1].
    EXPECT_EQ(Distribution::bucketOf(0), 0u);
    EXPECT_EQ(Distribution::bucketOf(1), 1u);
    EXPECT_EQ(Distribution::bucketOf(2), 2u);
    EXPECT_EQ(Distribution::bucketOf(3), 2u);
    EXPECT_EQ(Distribution::bucketOf(4), 3u);
    EXPECT_EQ(Distribution::bucketOf(7), 3u);
    EXPECT_EQ(Distribution::bucketOf(8), 4u);
    for (unsigned i = 1; i < 64; ++i) {
        // Both edges of every power-of-two bucket land inside it.
        EXPECT_EQ(Distribution::bucketOf(1ull << (i - 1)), i);
        EXPECT_EQ(Distribution::bucketOf((1ull << i) - 1), i);
    }
    EXPECT_EQ(Distribution::bucketOf(1ull << 63), 64u);
    EXPECT_EQ(Distribution::bucketOf(~0ull), 64u);

    EXPECT_EQ(Distribution::bucketHigh(0), 0u);
    EXPECT_EQ(Distribution::bucketHigh(1), 1u);
    EXPECT_EQ(Distribution::bucketHigh(2), 3u);
    EXPECT_EQ(Distribution::bucketLow(2), 2u);
    EXPECT_EQ(Distribution::bucketHigh(64), ~0ull);
}

TEST(Distribution, SampleAccounting)
{
    Distribution dist;
    EXPECT_EQ(dist.count(), 0u);
    EXPECT_EQ(dist.min(), 0u); // empty: min reads 0, not sentinel

    dist.sample(0);
    dist.sample(1);
    dist.sample(2);
    dist.sample(3);
    dist.sample(1000);
    EXPECT_EQ(dist.count(), 5u);
    EXPECT_EQ(dist.sum(), 1006u);
    EXPECT_EQ(dist.min(), 0u);
    EXPECT_EQ(dist.max(), 1000u);
    EXPECT_DOUBLE_EQ(dist.mean(), 1006.0 / 5.0);
    EXPECT_EQ(dist.bucket(0), 1u); // the 0
    EXPECT_EQ(dist.bucket(1), 1u); // the 1
    EXPECT_EQ(dist.bucket(2), 2u); // 2 and 3
    EXPECT_EQ(dist.bucket(10), 1u); // 1000 in [512, 1023]
    EXPECT_EQ(dist.usedBuckets(), 11u);

    dist.reset();
    EXPECT_EQ(dist.count(), 0u);
    EXPECT_EQ(dist.sum(), 0u);
    EXPECT_EQ(dist.max(), 0u);
    EXPECT_EQ(dist.usedBuckets(), 0u);
}

TEST(Formula, RatioTracksInputsLive)
{
    Counter hits, total;
    Formula rate = Formula::ratio(hits, total);
    // 0/0 is defined as 0, not NaN.
    EXPECT_DOUBLE_EQ(rate.value(), 0.0);

    ++total;
    EXPECT_DOUBLE_EQ(rate.value(), 0.0);
    ++hits;
    ++total;
    EXPECT_DOUBLE_EQ(rate.value(), 0.5);
    hits += 2;
    total += 2;
    EXPECT_DOUBLE_EQ(rate.value(), 0.75);

    // Formulas are never accumulated: resetting inputs resets them.
    hits.reset();
    total.reset();
    EXPECT_DOUBLE_EQ(rate.value(), 0.0);

    // A default-constructed formula reads 0.
    Formula empty;
    EXPECT_DOUBLE_EQ(empty.value(), 0.0);
}

TEST(StatGroup, NamedLookup)
{
    StatGroup group("unit");
    Counter c;
    Distribution d;
    Formula f([] { return 2.5; });
    group.add("events", &c);
    group.add("lat", &d);
    group.add("share", &f);

    c += 7;
    d.sample(4);
    EXPECT_EQ(group.get("events"), 7u);
    EXPECT_EQ(group.get("unknown"), 0u);
    EXPECT_DOUBLE_EQ(group.getFormula("share"), 2.5);
    EXPECT_DOUBLE_EQ(group.getFormula("unknown"), 0.0);
    ASSERT_NE(group.getDist("lat"), nullptr);
    EXPECT_EQ(group.getDist("lat")->count(), 1u);
    EXPECT_EQ(group.getDist("unknown"), nullptr);

    group.resetAll();
    EXPECT_EQ(group.get("events"), 0u);
    EXPECT_EQ(group.getDist("lat")->count(), 0u);
}

TEST(StatRegistry, JsonRoundTrip)
{
    StatRegistry registry;
    StatGroup &tlb = registry.makeGroup("machine.tlb");
    Counter hits, misses;
    Formula rate = Formula::ratio(hits, misses);
    Distribution lat;
    hits += 41;
    misses += 123;
    lat.sample(0);
    lat.sample(9);
    lat.sample(9);
    tlb.add("hits", &hits);
    tlb.add("misses", &misses);
    tlb.add("rate", &rate);
    tlb.add("lat", &lat);

    StatGroup &mon = registry.makeGroup("monitor");
    Counter calls;
    calls += 5;
    mon.add("calls", &calls);

    std::map<std::string, double> flat;
    ASSERT_TRUE(parseStatsJson(registry.dumpJson(), flat));

    // Every registered value survives the round trip under its dotted
    // registry name.
    EXPECT_EQ(flat.at("groups.machine.tlb.hits"), 41.0);
    EXPECT_EQ(flat.at("groups.machine.tlb.misses"), 123.0);
    // Formulas are rendered with six decimals.
    EXPECT_NEAR(flat.at("groups.machine.tlb.rate"), 41.0 / 123.0, 1e-6);
    EXPECT_EQ(flat.at("groups.machine.tlb.lat.count"), 3.0);
    EXPECT_EQ(flat.at("groups.machine.tlb.lat.sum"), 18.0);
    EXPECT_EQ(flat.at("groups.machine.tlb.lat.min"), 0.0);
    EXPECT_EQ(flat.at("groups.machine.tlb.lat.max"), 9.0);
    EXPECT_NEAR(flat.at("groups.machine.tlb.lat.mean"), 6.0, 1e-6);
    // Buckets flatten as ".N": bucket 0 holds the 0, bucket 4 the 9s.
    EXPECT_EQ(flat.at("groups.machine.tlb.lat.buckets.0"), 1.0);
    EXPECT_EQ(flat.at("groups.machine.tlb.lat.buckets.4"), 2.0);
    EXPECT_EQ(flat.at("groups.monitor.calls"), 5.0);

    // Malformed input is rejected, not crashed on.
    std::map<std::string, double> bad;
    EXPECT_FALSE(parseStatsJson("{\"groups\": {", bad));
    EXPECT_FALSE(parseStatsJson("not json", bad));
}

TEST(StatRegistry, FindAndReset)
{
    StatRegistry registry;
    Counter c;
    c += 9;
    StatGroup owned("ext");
    owned.add("n", &c);
    registry.add(&owned);

    ASSERT_NE(registry.find("ext"), nullptr);
    EXPECT_EQ(registry.find("ext")->get("n"), 9u);
    EXPECT_EQ(registry.find("missing"), nullptr);

    registry.resetAll();
    EXPECT_EQ(c.value(), 0u);
}

} // namespace
} // namespace hpmp
