/**
 * @file
 * Simulator-throughput regression harness: replays a deterministic
 * hot-set pattern through the virtualized machine for each method of
 * Fig. 13 and writes BENCH_simperf.json (host Maccesses/s and
 * simulated cycles per access). This guards the engineering quality
 * of the simulator itself rather than reproducing a paper figure;
 * the per-layer host-time costs live in the perfbench ledger.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "base/rng.h"
#include "base/stats.h"
#include "bench/common.h"
#include "workloads/virt_env.h"

namespace hpmp::bench
{
namespace
{

/** Geometry of one simperf replay pattern. */
struct SimperfPattern
{
    const char *name;
    unsigned hotPages;      //!< round-robin working set
    unsigned coldPages;     //!< uniform excursion set (every 17th access)
    bool pageTiedOffsets;   //!< one fixed data line per page (see below)
};

/**
 * "resident": the working set (hot + excursion pages, assumed
 * gva-contiguous) outgrows the 32-entry L1 TLB but stays inside the
 * 1024-entry L2 TLB, so every access exercises the L1 lookup-miss +
 * L2-hit + L1-promotion machinery — exactly the paths where the seed
 * paid two linear scans of the fully-associative array per access and
 * the indexed TLB pays O(1). Each page owns one fixed data line whose
 * set index equals its page number mod 64, so the 256 working-set
 * lines fill the Rocket 64-set x 4-way L1D exactly and the data side
 * never misses: the measured host time is the translation machinery
 * itself.
 *
 * "walk_heavy": the excursion set outgrows the L2 TLB, so a steady
 * fraction of accesses performs the full 3D walk with its per-scheme
 * physical checks — this is where cycles_per_access separates the
 * four methods.
 */
constexpr SimperfPattern kPatterns[] = {
    {"resident", 224, 32, true},
    {"walk_heavy", 24, 4096, false},
};

/**
 * Deterministic replay stream for one pattern: mostly round-robin
 * over the hot set, every 17th access an excursion drawn uniformly
 * from the cold set. Identical for every scheme and run.
 */
std::vector<AccessRequest>
simperfRequests(const SimperfPattern &pattern, Addr hot_base,
                Addr cold_base)
{
    constexpr unsigned kBatch = 1u << 16;
    std::vector<AccessRequest> reqs;
    reqs.reserve(kBatch);
    Rng rng(7);
    for (unsigned i = 0; i < kBatch; ++i) {
        const AccessType type =
            rng.chance(0.3) ? AccessType::Store : AccessType::Load;
        const bool excursion = i % 17 == 16;
        const unsigned page = excursion ? rng.below(pattern.coldPages)
                                        : i % pattern.hotPages;
        uint64_t offset;
        if (pattern.pageTiedOffsets) {
            // Page-global index assuming the cold region directly
            // follows the hot one; its low 6 bits pick the page's
            // dedicated L1D set.
            const unsigned global =
                excursion ? pattern.hotPages + page : page;
            offset = uint64_t(global % 64) * 64 + 8 * (i % 8);
        } else {
            offset = 8 * (i % 512);
        }
        reqs.push_back({(excursion ? cold_base : hot_base) +
                            pageAddr(page) + offset, type});
    }
    return reqs;
}

/** Windowed-telemetry knobs threaded down from main. */
struct SimperfSeries
{
    std::string path;                //!< output file; empty = disabled
    std::string interval = "100000"; //!< simulated cycles per window
    Json json;                       //!< one record per (pattern, scheme) run
};

/** Replay one pattern under one scheme; print and record its row. */
void
runSimperfScheme(VirtScheme scheme, const SimperfPattern &pattern,
                 double min_seconds, SimperfSeries &series, Json &json)
{
    VirtEnv env(CoreKind::Rocket, scheme);
    const Addr hot = env.mapGuestPages(pattern.hotPages);
    const Addr cold = env.mapGuestPages(pattern.coldPages);
    const std::vector<AccessRequest> reqs =
        simperfRequests(pattern, hot, cold);

    VirtMachine &vm = env.vm();
    vm.coldReset();
    (void)vm.accessBatch(reqs); // warm TLBs, caches, tables

    StatRegistry seriesRegistry;
    std::unique_ptr<StatSampler> sampler;
    if (!series.path.empty()) {
        vm.registerStats(seriesRegistry);
        sampler = std::make_unique<StatSampler>(
            seriesRegistry, std::strtoull(series.interval.c_str(),
                                          nullptr, 0));
    }

    VirtBatchOutcome total;
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const VirtBatchOutcome out = vm.accessBatch(reqs);
        total.accesses += out.accesses;
        total.cycles += out.cycles;
        total.tlbHits += out.tlbHits;
        total.faults += out.faults;
        if (sampler)
            sampler->advanceTo(total.cycles);
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0).count();
    } while (elapsed < min_seconds);

    if (sampler) {
        sampler->sample(total.cycles);
        series.json.open('{')
            .key("pattern").value(pattern.name)
            .key("scheme").value(toString(scheme))
            .key("series").raw(sampler->dumpJson())
            .close();
    }

    fatal_if(total.faults != 0, "simperf pattern faulted (%lu)",
             (unsigned long)total.faults);
    const double accesses = double(total.accesses);
    const double macc_per_sec = accesses / elapsed / 1e6;
    const double cycles_per_access = double(total.cycles) / accesses;
    const double tlb_hit_rate = double(total.tlbHits) / accesses;
    row({toString(scheme), fmt("%.2f", macc_per_sec),
         fmt("%.2f", cycles_per_access), pct(tlb_hit_rate)});
    json.open('{')
        .key("name").value(toString(scheme))
        .key("maccesses_per_sec").value(macc_per_sec)
        .key("cycles_per_access").value(cycles_per_access)
        .key("tlb_hit_rate").value(tlb_hit_rate)
        .key("accesses").value(total.accesses)
        .close();
}

int
writeSimperfJson(double min_seconds, const std::string &only_pattern,
                 SimperfSeries &series)
{
    Json json;
    json.open('{')
        .key("benchmark").value("simperf")
        .key("core").value("rocket")
        .key("patterns").open('[');
    series.json.open('{').key("simperf_series").open('[');
    bool matched = false;
    for (const SimperfPattern &pattern : kPatterns) {
        if (!only_pattern.empty() && only_pattern != pattern.name)
            continue;
        matched = true;
        banner(std::string("simperf ") + pattern.name +
               ": simulated-access throughput");
        row({"scheme", "Macc/s", "cyc/access", "TLB hit"});
        json.open('{')
            .key("name").value(pattern.name)
            .key("hot_pages").value(pattern.hotPages)
            .key("cold_pages").value(pattern.coldPages)
            .key("schemes").open('[');
        for (const VirtScheme scheme :
             {VirtScheme::Pmp, VirtScheme::Pmpt, VirtScheme::Hpmp,
              VirtScheme::HpmpGpt})
            runSimperfScheme(scheme, pattern, min_seconds, series, json);
        json.close().close();
    }
    if (!matched) {
        std::fprintf(stderr, "unknown --pattern=%s (have:",
                     only_pattern.c_str());
        for (const SimperfPattern &pattern : kPatterns)
            std::fprintf(stderr, " %s", pattern.name);
        std::fprintf(stderr, ")\n");
        return 1;
    }

    const bool ok = json.close().close().write("BENCH_simperf.json") &&
                    (series.path.empty() ||
                     series.json.close().close().write(series.path));
    return ok ? 0 : 1;
}

} // namespace
} // namespace hpmp::bench

int
main(int argc, char **argv)
{
    using hpmp::bench::parseFlag;
    double min_seconds = 0.25;
    std::string only_pattern;
    hpmp::bench::SimperfSeries series;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            min_seconds = 0.02;
        else if (!parseFlag(argv[i], "--pattern=", only_pattern) &&
                 !parseFlag(argv[i], "--stats-series=", series.path) &&
                 !parseFlag(argv[i], "--stats-interval=",
                            series.interval)) {
            std::fprintf(stderr, "unknown argument %s\n", argv[i]);
            return 1;
        }
    }
    return hpmp::bench::writeSimperfJson(min_seconds, only_pattern,
                                         series);
}
