/**
 * @file
 * Fleet-scale serving bench: domain-switch throughput and monitor-call
 * tail latency at {100, 1k, 10k} tenant domains under Zipf traffic
 * with churn, attestation, and coalesced shootdown windows.
 *
 * The headline claim is O(1) scaling: the sharded domain registry and
 * the diff-based layout application keep the p99 switch cost at 10k
 * domains within a small constant of the 100-domain figure, while
 * coalescing amortizes one IPI round over a whole batch of switches.
 *
 * Emits BENCH_fleet.json (path override: --json=FILE) with one record
 * per fleet size.
 */

#include <memory>
#include <string>

#include "base/stats.h"
#include "bench/common.h"
#include "workloads/fleet.h"

namespace hpmp::bench
{
namespace
{

int
runBench(int argc, char **argv)
{
    std::string jsonPath = "BENCH_fleet.json", seriesPath;
    std::string interval = "50000", requests = "4000", harts = "4";
    for (int i = 1; i < argc; ++i) {
        parseFlag(argv[i], "--json=", jsonPath) ||
            parseFlag(argv[i], "--stats-series=", seriesPath) ||
            parseFlag(argv[i], "--stats-interval=", interval) ||
            parseFlag(argv[i], "--requests=", requests) ||
            parseFlag(argv[i], "--harts=", harts);
    }

    banner("Fleet serving: Zipf switch traffic with churn + coalescing");
    row({"domains", "switch/s", "p50 cyc", "p99 cyc", "p99.9 cyc",
         "churns", "windows", "c/window"});

    Json json, series;
    json.open('{').key("fleet").open('[');
    series.open('{').key("fleet_series").open('[');
    for (const unsigned domains : {100u, 1000u, 10000u}) {
        FleetConfig cfg;
        cfg.domains = domains;
        cfg.requests = std::stoull(requests);
        cfg.harts = unsigned(std::stoul(harts));
        FleetWorkload fleet(cfg);
        // Windowed telemetry of the serving run (per fleet size).
        StatRegistry seriesRegistry;
        std::unique_ptr<StatSampler> sampler;
        if (!seriesPath.empty()) {
            fleet.monitor().registerStats(seriesRegistry);
            fleet.smp().registerStats(seriesRegistry);
            sampler = std::make_unique<StatSampler>(
                seriesRegistry, std::stoull(interval));
            fleet.setSampler(sampler.get());
        }
        const FleetResult res = fleet.run();
        if (sampler) {
            series.open('{').key("domains").value(domains);
            series.key("series").raw(sampler->dumpJson()).close();
        }
        row({std::to_string(domains), fmt("%.0f", res.switchesPerSec),
             std::to_string(res.p50SwitchCycles),
             std::to_string(res.p99SwitchCycles),
             std::to_string(res.p999SwitchCycles),
             std::to_string(res.churns),
             std::to_string(res.coalescedWindows),
             fmt("%.2f", res.commitsPerWindow)});
        json.open('{')
            .key("domains").value(domains)
            .key("switches").value(res.switches)
            .key("switches_per_sec").value(res.switchesPerSec)
            .key("p50_switch_cycles").value(res.p50SwitchCycles)
            .key("p99_switch_cycles").value(res.p99SwitchCycles)
            .key("p999_switch_cycles").value(res.p999SwitchCycles)
            .key("churns").value(res.churns)
            .key("attests").value(res.attests)
            .key("stale_probes").value(res.staleProbes)
            .key("coalesced_windows").value(res.coalescedWindows)
            .key("commits_per_window").value(res.commitsPerWindow)
            .close();
    }

    const bool ok = json.close().close().write(jsonPath) &&
                    (seriesPath.empty() ||
                     series.close().close().write(seriesPath));
    return ok ? 0 : 1;
}

} // namespace
} // namespace hpmp::bench

int
main(int argc, char **argv)
{
    return hpmp::bench::runBench(argc, argv);
}
