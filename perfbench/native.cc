/**
 * @file
 * The two native Sv39 workloads.
 *
 * gap_hit: GapSuite, all six kernels, one enclave per scheme on
 * Rocket. Host time is almost all TLB-hit path; walkers and monitor
 * sit idle. redis_walk: RedisBench, the full Fig. 12-d/e command mix
 * on Rocket and BOOM; a third of its accesses walk, so host time goes
 * to the walker, PWC, PMPT walker, HPMP check and the hierarchy.
 *
 * A timed step, and the unit a request time is taken over, is one
 * whole pass over every (kernel|command, scheme, core) cell: the
 * cells differ too much in length for one call to be a request. Each
 * pass starts with cold simulated caches, as the
 * fig11/fig12 harnesses do on their first pass: the cold start is
 * per-run cost and is timed. Neither suite takes a seed through its
 * public constructor, so their inputs and work counts are the same at
 * every seed. Work counts are read after the first pass.
 */

#include <cstdio>
#include <string>

#include "bench.h"
#include "stats_view.h"
#include "workloads/gap.h"
#include "workloads/redis.h"

namespace perfbench
{
namespace
{

using namespace hpmp;

const IsolationScheme kSchemes[] = {IsolationScheme::Pmp,
                                    IsolationScheme::PmpTable,
                                    IsolationScheme::Hpmp};

/**
 * Graph scale: 2^13 vertices keeps one pass over the three schemes
 * under a second on a current x86 core, so each timed process holds
 * several whole passes, while the walk rate stays far below 0.1 %.
 */
constexpr unsigned kGapScale = 13;

/** One Redis call serves this many requests (fig12 uses 8x more). */
unsigned
redisRequests(const std::string &command)
{
    return command.rfind("LRANGE", 0) == 0 ? 75 : 250;
}

std::string
note(const char *format, double a, double b, double c)
{
    char line[256];
    std::snprintf(line, sizeof(line), format, a, b, c);
    return line;
}

/** One TeeEnv per (core, scheme) cell. */
struct Cell
{
    IsolationScheme scheme;
    std::unique_ptr<TeeEnv> env;
    uint64_t accesses0 = 0; //!< access count at the start of the pass
    uint64_t walks0 = 0;
    uint64_t badFaults = 0;

    Machine &machine() { return env->machine(); }
    double freqHz() { return machine().params().timing.freqGHz * 1e9; }
};

/**
 * Shared pass loop: cold-reset every cell, run the workload's pass,
 * count accesses as ops, check for unexpected faults, and keep the
 * walk counts of traced passes for the walk-share estimate.
 */
class NativeWorkload : public Workload
{
  public:
    explicit NativeWorkload(Result &res) : res_(res) {}

    uint64_t
    step(Tracer &tracer, std::vector<double> &request_us) override
    {
        const auto t0 = Clock::now();
        for (Cell &c : cells_) {
            c.machine().coldReset();
            c.accesses0 = c.machine().stats().get("accesses");
            c.walks0 = c.machine().stats().get("walks");
        }
        runPass(tracer);
        request_us.push_back(secondsSince(t0) * 1e6);
        uint64_t ops = 0;
        for (Cell &c : cells_) {
            ops += c.machine().stats().get("accesses") - c.accesses0;
            if (tracer.on())
                tracedWalks_[schemeKey(c.scheme)] +=
                    double(c.machine().stats().get("walks") - c.walks0);
            const uint64_t bad = perfbench::badFaults(c.machine());
            res_.check(bad == c.badFaults,
                       "unexpected access fault or machine check");
            c.badFaults = bad;
        }
        if (passes_ == 0) {
            Tally t;
            for (Cell &c : cells_) {
                t.add(c.machine());
                t.addMonitor(c.env->monitor());
            }
            t.report(res_);
            firstPassCounts();
        }
        ++passes_;
        return ops;
    }

  protected:
    virtual void runPass(Tracer &tracer) = 0;
    /** sim.* values from the first pass. */
    virtual void firstPassCounts() = 0;

    void
    addCell(CoreKind core, IsolationScheme scheme)
    {
        EnvConfig c;
        c.core = core;
        c.scheme = scheme;
        cells_.push_back({scheme, std::make_unique<TeeEnv>(c)});
    }

    /** Accesses of cell i in the pass that just ran. */
    double
    passAccesses(size_t i)
    {
        return double(cells_[i].machine().stats().get("accesses") -
                      cells_[i].accesses0);
    }

    /**
     * Share of the traced phase's host time spent in walks: traced
     * walks times the ledger's ns per TLB-missing access, per scheme.
     */
    void
    shares(const Tracer &, double phase_seconds) override
    {
        double ns = 0.0;
        for (const auto &[scheme, walks] : tracedWalks_)
            ns += walks * res_.layers["core.access_walk_ns." + scheme];
        res_.layers["trace.walk_share_pct"] =
            100.0 * ratio(ns * 1e-9, phase_seconds);
        res_.layers["trace.monitor_share_pct"] = 0.0;
    }

    Result &res_;
    std::vector<Cell> cells_;
    uint64_t passes_ = 0;
    std::map<std::string, double> tracedWalks_;
};

class GapHit : public NativeWorkload
{
  public:
    explicit GapHit(Result &res) : NativeWorkload(res) {}

    void
    setup(Tracer &tracer) override
    {
        kernels_ = gapKernels();
        for (const std::string &k : kernels_)
            spanNames_.push_back("gap." + k.substr(0, k.find('-')));
        for (IsolationScheme s : kSchemes) {
            addCell(CoreKind::Rocket, s);
            Tracer::Span span(tracer, "gap.setup");
            suites_.push_back(
                std::make_unique<GapSuite>(*cells_.back().env, kGapScale));
        }
        seconds_.resize(cells_.size());
    }

  protected:
    void
    runPass(Tracer &tracer) override
    {
        for (auto &s : seconds_)
            s.clear();
        for (size_t k = 0; k < kernels_.size(); ++k) {
            for (size_t i = 0; i < cells_.size(); ++i) {
                Tracer::Span span(tracer, spanNames_[k].c_str());
                seconds_[i].push_back(suites_[i]->run(kernels_[k]));
            }
        }
    }

    void
    firstPassCounts() override
    {
        for (size_t i = 0; i < cells_.size(); ++i) {
            double cycles = 0.0;
            for (double s : seconds_[i])
                cycles += s * cells_[i].freqHz();
            res_.counts[std::string("sim.cycles_per_access.") +
                        schemeKey(cells_[i].scheme)] =
                ratio(cycles, passAccesses(i));
        }
        // Fig. 11-b: per-kernel latency normalized to PMP, averaged.
        double sum[2] = {}, lo[2] = {1e9, 1e9}, hi[2] = {-1e9, -1e9};
        for (size_t k = 0; k < kernels_.size(); ++k) {
            for (int j = 0; j < 2; ++j) {
                const double o =
                    100.0 * (seconds_[j + 1][k] / seconds_[0][k] - 1.0);
                sum[j] += o;
                lo[j] = std::min(lo[j], o);
                hi[j] = std::max(hi[j], o);
            }
        }
        const double n = double(kernels_.size());
        res_.counts["sim.pmpt_overhead_pct"] = sum[0] / n;
        res_.counts["sim.hpmp_overhead_pct"] = sum[1] / n;
        res_.notes.push_back(note(
            "sim.pmpt_overhead_pct %.3f (kernels %.3f..%.3f); paper, "
            "Rocket GAP: 1.2..6.7", sum[0] / n, lo[0], hi[0]));
        res_.notes.push_back(note(
            "sim.hpmp_overhead_pct %.3f (kernels %.3f..%.3f); paper, "
            "Rocket GAP: 0.02..1.4", sum[1] / n, lo[1], hi[1]));
    }

  private:
    std::vector<std::unique_ptr<GapSuite>> suites_;
    std::vector<std::string> kernels_;
    std::vector<std::string> spanNames_;
    std::vector<std::vector<double>> seconds_; //!< per cell, per kernel
};

class RedisWalk : public NativeWorkload
{
  public:
    explicit RedisWalk(Result &res) : NativeWorkload(res) {}

    void
    setup(Tracer &) override
    {
        commands_ = redisCommands();
        for (CoreKind core : {CoreKind::Rocket, CoreKind::Boom}) {
            for (IsolationScheme s : kSchemes) {
                addCell(core, s);
                benches_.push_back(
                    std::make_unique<RedisBench>(*cells_.back().env));
            }
        }
        rps_.resize(cells_.size());
    }

  protected:
    void
    runPass(Tracer &tracer) override
    {
        for (auto &r : rps_)
            r.clear();
        for (const std::string &cmd : commands_) {
            const unsigned n = redisRequests(cmd);
            const bool lrange = cmd.rfind("LRANGE", 0) == 0;
            for (size_t i = 0; i < cells_.size(); ++i) {
                Tracer::Span span(tracer, lrange ? "redis.lrange"
                                                 : "redis.other");
                rps_[i].push_back(benches_[i]->run(cmd, n));
            }
        }
    }

    void
    firstPassCounts() override
    {
        std::map<std::string, double> cycles, accesses;
        for (size_t i = 0; i < cells_.size(); ++i) {
            const std::string key = schemeKey(cells_[i].scheme);
            for (size_t c = 0; c < commands_.size(); ++c) {
                cycles[key] += double(redisRequests(commands_[c])) /
                               rps_[i][c] * cells_[i].freqHz();
            }
            accesses[key] += passAccesses(i);
        }
        for (const auto &[key, cyc] : cycles) {
            res_.counts["sim.cycles_per_access." + key] =
                ratio(cyc, accesses[key]);
        }
        // Fig. 12-d/e: throughput loss against PMP, averaged over
        // commands and both cores. Cells are (core, scheme) in order.
        double loss[2] = {};
        unsigned n = 0;
        for (size_t base = 0; base < cells_.size(); base += 3) {
            for (size_t c = 0; c < commands_.size(); ++c) {
                for (int j = 0; j < 2; ++j) {
                    loss[j] += 100.0 * (1.0 - rps_[base + 1 + j][c] /
                                                  rps_[base][c]);
                }
                ++n;
            }
        }
        res_.counts["sim.pmpt_overhead_pct"] = loss[0] / n;
        res_.counts["sim.hpmp_overhead_pct"] = loss[1] / n;
        res_.notes.push_back(note(
            "sim.pmpt_overhead_pct %.3f (throughput loss, Rocket+BOOM); "
            "paper avg: %.1f Rocket, %.1f BOOM", loss[0] / n, 10.5, 16.0));
        res_.notes.push_back(note(
            "sim.hpmp_overhead_pct %.3f (throughput loss, Rocket+BOOM); "
            "paper avg: %.1f Rocket, %.1f BOOM", loss[1] / n, 3.3, 4.5));
    }

  private:
    std::vector<std::unique_ptr<RedisBench>> benches_;
    std::vector<std::string> commands_;
    std::vector<std::vector<double>> rps_; //!< per cell, per command
};

} // namespace

std::unique_ptr<Workload>
makeGapHit(const Options &, Result &res)
{
    return std::make_unique<GapHit>(res);
}

std::unique_ptr<Workload>
makeRedisWalk(const Options &, Result &res)
{
    return std::make_unique<RedisWalk>(res);
}

} // namespace perfbench
