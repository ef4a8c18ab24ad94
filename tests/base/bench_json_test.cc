/**
 * @file
 * The bench JSON emitter round-tripped through parseStatsJson, the
 * flattener tools/perfcheck gates with: nested containers become
 * dotted keys, numbers survive as doubles, string cells ("n/a") are
 * skipped, and a fig14-shaped table yields the keys the CI rule
 * `*.rows.*.*` selects.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "base/perfcheck.h"
#include "base/stats.h"
#include "bench/common.h"

namespace hpmp::bench
{
namespace
{

std::map<std::string, double>
flatten(const Json &json)
{
    std::map<std::string, double> flat;
    EXPECT_TRUE(parseStatsJson(json.str(), flat)) << json.str();
    return flat;
}

TEST(BenchJson, NestedContainersFlattenToDottedKeys)
{
    Json json;
    json.open('{')
        .key("benchmark").value("simperf")
        .key("patterns").open('[')
            .open('{')
                .key("hot_pages").value(224u)
                .key("schemes").open('[')
                    .open('{').key("cycles_per_access").value(3.5).close()
                    .open('{').key("cycles_per_access").value(7.25).close()
                .close()
            .close()
        .close()
        .key("flags").open('[').value(true).value(false).close()
        .close();

    const std::map<std::string, double> expected = {
        {"patterns.0.hot_pages", 224.0},
        {"patterns.0.schemes.0.cycles_per_access", 3.5},
        {"patterns.0.schemes.1.cycles_per_access", 7.25},
        {"flags.0", 1.0},
        {"flags.1", 0.0},
    };
    EXPECT_EQ(flatten(json), expected);
}

TEST(BenchJson, NumbersSurviveAsDoubles)
{
    const double third = 1.0 / 3.0;
    const uint64_t big = (uint64_t(1) << 53) - 1;
    Json json;
    json.open('{')
        .key("third").value(third)
        .key("big").value(big)
        .key("negative").value(-42)
        .key("tiny").value(1e-300)
        .key("nan").value(std::numeric_limits<double>::quiet_NaN())
        .close();

    const auto flat = flatten(json);
    EXPECT_EQ(flat.at("third"), third); // exact, not just close
    EXPECT_EQ(flat.at("big"), double(big));
    EXPECT_EQ(flat.at("negative"), -42.0);
    EXPECT_EQ(flat.at("tiny"), 1e-300);
    EXPECT_EQ(flat.count("nan"), 0u); // written as a string, skipped
}

TEST(BenchJson, StringLeavesAreSkippedAndEscaped)
{
    Json json;
    json.open('{')
        .key("cells").open('[').value(2).value("n/a").value(412).close()
        .key("say \"hi\\\"").value("a \"quoted\" \\ string")
        .close();

    const std::map<std::string, double> expected = {
        {"cells.0", 2.0},
        {"cells.2", 412.0},
    };
    EXPECT_EQ(flatten(json), expected);
}

TEST(BenchJson, EmptyContainersParse)
{
    Json json;
    json.open('{')
        .key("object").open('{').close()
        .key("array").open('[').close()
        .key("nested").open('[').open('{').close().open('[').close().close()
        .close();
    EXPECT_TRUE(flatten(json).empty());

    Json empty;
    empty.open('{').close();
    EXPECT_EQ(empty.str(), "{}");
    EXPECT_TRUE(flatten(empty).empty());
}

TEST(BenchJson, RawSplicesARenderedStatsDump)
{
    StatGroup group("machine");
    Counter walks;
    group.add("walks", &walks);
    walks += 4;
    StatRegistry registry;
    registry.add(&group);

    Json json;
    json.open('{').key("captures").open('{')
        .key("Sv39.hpmp").raw(registry.dumpJson())
        .close().close();
    const auto flat = flatten(json);
    EXPECT_EQ(flat.at("captures.Sv39.hpmp.groups.machine.walks"), 4.0);
}

TEST(BenchJson, Fig14TableYieldsTheGatedKeys)
{
    Json json;
    json.open('{');
    emitTable(json, "domain_switch",
              {"domains", "Penglai-PMP", "Penglai-HPMP"},
              {{"2", "408", "412"}, {"101", "n/a", "412"}});
    json.close();

    const std::map<std::string, double> expected = {
        {"domain_switch.rows.0.0", 2.0},
        {"domain_switch.rows.0.1", 408.0},
        {"domain_switch.rows.0.2", 412.0},
        {"domain_switch.rows.1.0", 101.0},
        {"domain_switch.rows.1.2", 412.0},
    };
    const auto flat = flatten(json);
    EXPECT_EQ(flat, expected);
    for (const auto &[key, value] : flat)
        EXPECT_TRUE(matchMetricGlob("*.rows.*.*", key)) << key;
}

} // namespace
} // namespace hpmp::bench
