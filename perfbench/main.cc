/**
 * @file
 * perfbench_sim: one workload, one seed, one timed phase.
 *
 *   perfbench_sim --workload NAME --seed N --seconds S --trace 0|1
 *
 * Sets the workload up twice, runs the untraced timed phase for at
 * least S seconds of whole steps, and with --trace 1 also a traced
 * phase of the same length followed by the per-layer ledger; an
 * untraced run then sets the workload up again for half a second or
 * more, so set-up time is sampled at both ends of the process.
 * Human-readable lines go to stdout first; the last line is one JSON
 * object with the raw results (peak memory, set-up times, the
 * per-block rates and request-time quantiles of the untraced phase,
 * then the counts and layers maps), which run.py checks against the
 * goldens, pools over its processes and reshapes into the benchmark's
 * result line.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench
{
namespace
{

/** Set-ups before the timed phase; the last one is kept and timed. */
constexpr unsigned kSetupsBefore = 2;
/**
 * Host seconds of further set-ups (at least one) after the timed phase
 * of an untraced run; they are timed, then dropped.
 */
constexpr double kLateSetupSeconds = 0.5;

/**
 * Peak resident memory of this process image, from VmHWM. getrusage's
 * ru_maxrss is not used: Linux carries it across fork and exec, so it
 * reads the launching process's size whenever that is larger.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kib / 1024.0;
}

std::unique_ptr<Workload>
make(const Options &opt, Result &res)
{
    if (opt.workload == "gap_hit")
        return makeGapHit(opt, res);
    if (opt.workload == "redis_walk")
        return makeRedisWalk(opt, res);
    if (opt.workload == "virt_walk")
        return makeVirtWalk(opt, res);
    if (opt.workload == "fleet_switch")
        return makeFleetSwitch(opt, res);
    return nullptr;
}

/** Shortest span of whole steps one throughput sample covers. */
constexpr double kBlockSeconds = 0.2;

/**
 * The timed phase, cut into consecutive blocks of whole steps, each at
 * least kBlockSeconds long. The end-to-end figures are read from the
 * blocks, not from the phase as a whole (see run.py): the host's
 * neighbours slow some blocks and not others, and one tail of the
 * blocks reads the same from run to run where the mean does not.
 */
struct Phase
{
    uint64_t ops = 0;
    uint64_t requests = 0;
    double seconds = 0.0;
    std::vector<double> blockRates; //!< ops/s of each block
    std::vector<double> blockP90Us; //!< p90 request time of each block
};

Phase
timedPhase(Workload &w, Tracer &tracer, double seconds)
{
    Phase p;
    const auto t0 = Clock::now();
    uint64_t block_ops = 0;
    double block_start = 0.0;
    std::vector<double> block_us;
    const auto end_block = [&] {
        p.blockRates.push_back(double(block_ops) /
                               (p.seconds - block_start));
        p.blockP90Us.push_back(quantile(block_us, 0.90));
        p.requests += block_us.size();
        block_ops = 0;
        block_start = p.seconds;
        block_us.clear();
    };
    do {
        const uint64_t ops = w.step(tracer, block_us);
        p.ops += ops;
        block_ops += ops;
        p.seconds = secondsSince(t0);
        if (p.seconds - block_start >= kBlockSeconds)
            end_block();
    } while (p.seconds < seconds);
    if (p.blockRates.empty()) // a phase shorter than one block
        end_block();
    return p;
}

void
jsonList(const char *key, const std::vector<double> &v, const char *format)
{
    std::printf("\"%s\": [", key);
    for (size_t i = 0; i < v.size(); ++i) {
        std::printf(i ? ", " : "");
        std::printf(format, v[i]);
    }
    std::printf("], ");
}

void
jsonMap(const char *key, const std::map<std::string, double> &m, bool last)
{
    std::printf("\"%s\": {", key);
    bool first = true;
    for (const auto &[name, value] : m) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                    std::isfinite(value) ? value : 0.0);
        first = false;
    }
    std::printf("}%s", last ? "" : ", ");
}

/**
 * Build the workload from nothing into w, dropping the old one first,
 * and append the seconds it took to setup. Counts restart with it,
 * failures do not.
 */
bool
setUp(const Options &opt, Result &res, std::unique_ptr<Workload> &w,
      std::vector<double> &setup)
{
    w.reset();
    Result fresh;
    fresh.attempted = res.attempted;
    fresh.failed = res.failed;
    fresh.failures = res.failures;
    res = fresh;
    const auto t0 = Clock::now();
    w = make(opt, res);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return false;
    }
    Tracer off(false);
    w->setup(off);
    setup.push_back(secondsSince(t0));
    return true;
}

int
run(const Options &opt)
{
    Result res;
    std::unique_ptr<Workload> w;
    std::vector<double> setup;
    for (unsigned i = 0; i < kSetupsBefore; ++i) {
        if (!setUp(opt, res, w, setup))
            return 2;
    }

    // A traced run adds a traced phase after this untraced reference
    // phase; only its per-layer figures count.
    Tracer off(false);
    const Phase p = timedPhase(*w, off, opt.seconds);
    const double ops_per_s = median(p.blockRates);
    res.attempted += p.ops;
    std::printf("timed phase: %" PRIu64 " ops in %.3f s, %" PRIu64
                " requests in %zu blocks\n",
                p.ops, p.seconds, p.requests, p.blockRates.size());

    if (opt.trace) {
        Tracer tracer(true);
        const Phase t = timedPhase(*w, tracer, opt.seconds);
        res.attempted += t.ops;
        std::printf("traced phase: %" PRIu64 " ops in %.3f s\n", t.ops,
                    t.seconds);
        tracer.print(t.seconds);
        runLedger(opt, res);
        w->shares(tracer, t.seconds);
        res.layers["trace.overhead_pct"] =
            100.0 * (1.0 - median(t.blockRates) / ops_per_s);
    }
    // Schemes a workload does not run, and table frames a workload
    // without churn cannot leak, report 0.
    for (const char *key :
         {"sim.cycles_per_access.pmp", "sim.cycles_per_access.pmpt",
          "sim.cycles_per_access.hpmp", "sim.cycles_per_access.hpmp_gpt",
          "sim.pmpt_overhead_pct", "sim.hpmp_overhead_pct",
          "monitor.table_frames_leaked"})
        res.counts.emplace(key, 0.0);

    for (const std::string &note : res.notes)
        std::printf("%s\n", note.c_str());

    const double peak_rss_mb = peakRssMb(); // the kept workload's peak
    res.check(peak_rss_mb > 0.0, "VmHWM not readable");
    if (!opt.trace) {
        // The host's speed drifts within a process, so later set-ups
        // sample it at another time. Their counts are dropped.
        Result late = res;
        const auto t0 = Clock::now();
        do {
            if (!setUp(opt, late, w, setup))
                return 2;
        } while (secondsSince(t0) < kLateSetupSeconds);
        w.reset();
        res.attempted = late.attempted;
        res.failed = late.failed;
        res.failures = late.failures;
    }
    std::printf("set-ups:");
    for (double s : setup)
        std::printf(" %.3f", s);
    std::printf(" s\n");
    for (const std::string &f : res.failures)
        std::printf("FAILED: %s\n", f.c_str());

    std::printf("{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", ",
                res.attempted, res.failed);
    std::printf("\"peak_rss_mb\": %.17g, ", peak_rss_mb);
    jsonList("setups_s", setup, "%.17g");
    jsonList("block_rates", p.blockRates, "%.17g");
    jsonList("block_p90_us", p.blockP90Us, "%.17g");
    std::printf("\"requests\": %" PRIu64 ", ", p.requests);
    jsonMap("counts", res.counts, false);
    jsonMap("layers", res.layers, true);
    std::printf("}\n");
    return 0;
}

} // namespace

void
Tracer::print(double phase_seconds) const
{
    std::printf("%-28s %10s %10s %10s %7s\n", "span", "calls", "total_s",
                "self_s", "share");
    for (const auto &[name, s] : stats_) {
        std::printf("%-28s %10" PRIu64 " %10.4f %10.4f %6.1f%%\n",
                    name.c_str(), s.count, s.total, s.total - s.children,
                    100.0 * ratio(s.total, phase_seconds));
    }
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val, nullptr, 0);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val, nullptr);
        } else if (key == "--trace") {
            opt.trace = std::strcmp(val, "0") != 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", key.c_str());
            return 2;
        }
    }
    if (opt.workload.empty() || !(opt.seconds > 0.0)) {
        std::fprintf(stderr, "usage: perfbench_sim --workload NAME "
                             "[--seed N] [--seconds S] [--trace 0|1]\n");
        return 2;
    }
    return perfbench::run(opt);
}
