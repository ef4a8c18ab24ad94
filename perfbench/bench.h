/**
 * @file
 * Shared pieces of the host-time benchmark: run options, the result
 * each workload fills in, the in-memory span tracer used by traced
 * runs, and small statistics helpers.
 *
 * The benchmark drives the simulator only through its public entry
 * points and times those calls from outside; nothing here reaches
 * into src/.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** p-quantile (p in [0,1]) by nearest rank; 0 for an empty sample. */
inline double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t idx =
        std::min(v.size() - 1, size_t(p * double(v.size())));
    return v[idx];
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** num / den, 0 when den is 0. */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * What one run reports besides its timed phase: `counts` holds the
 * deterministic work counts and simulated values checked against the
 * goldens, `layers` the per-layer host timings of a traced run.
 * Failed operations are counted, never thrown.
 */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; //!< first few, for the log
    std::map<std::string, double> counts;
    std::map<std::string, double> layers;
    std::vector<std::string> notes; //!< human lines (paper ranges)

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }

    /** Count one checked op; a false `ok` is a failure. */
    void
    check(bool ok, const char *why)
    {
        ++attempted;
        if (!ok)
            fail(why);
    }
};

/**
 * In-memory span recorder. A span is one call the benchmark makes
 * into a layer; spans nest (the innermost open span is the parent),
 * so each name's self time is its total minus its children's. Only
 * per-name aggregates and per-call durations are kept; they are
 * printed when the run ends. Disabled tracers cost one branch.
 */
class Tracer
{
  public:
    struct Stat
    {
        uint64_t count = 0;
        double total = 0.0;    //!< seconds, children included
        double children = 0.0; //!< seconds spent in child spans
        std::vector<double> durations; //!< seconds per call
    };

    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** RAII span; a no-op when the tracer is off. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name) : tracer_(tracer)
        {
            if (tracer_.on_)
                tracer_.begin(name);
        }
        ~Span()
        {
            if (tracer_.on_)
                tracer_.end();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
    };

    /** Total seconds of all spans named `name` (0 if none). */
    double
    total(const std::string &name) const
    {
        auto it = stats_.find(name);
        return it == stats_.end() ? 0.0 : it->second.total;
    }

    const Stat *
    find(const std::string &name) const
    {
        auto it = stats_.find(name);
        return it == stats_.end() ? nullptr : &it->second;
    }

    /** Print a name / calls / total / self table to stdout. */
    void print(double phase_seconds) const;

  private:
    struct Open
    {
        Stat *stat;
        Clock::time_point start;
        double children = 0.0;
    };

    void
    begin(const char *name)
    {
        Stat &s = stats_[name];
        open_.push_back({&s, Clock::now()});
    }

    void
    end()
    {
        const Open o = open_.back();
        open_.pop_back();
        const double d =
            std::chrono::duration<double>(Clock::now() - o.start).count();
        ++o.stat->count;
        o.stat->total += d;
        o.stat->children += o.children;
        o.stat->durations.push_back(d);
        if (!open_.empty())
            open_.back().children += d;
    }

    bool on_;
    std::map<std::string, Stat> stats_;
    std::vector<Open> open_;
};

/**
 * One workload. setup() builds everything up to the first timed op;
 * step() runs one timed unit and returns the ops it completed,
 * appending one host-time sample per served request to `request_us`.
 * Deterministic counts go into the Result as soon as they are known.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(Tracer &tracer) = 0;
    virtual uint64_t step(Tracer &tracer,
                          std::vector<double> &request_us) = 0;
    /**
     * Host-time shares of the traced phase: trace.walk_share_pct
     * (walks x the ledger's ns per walk) and trace.monitor_share_pct
     * (monitor-call spans). Runs after the ledger.
     */
    virtual void shares(const Tracer &tracer, double phase_seconds) = 0;
};

std::unique_ptr<Workload> makeGapHit(const Options &opt, Result &res);
std::unique_ptr<Workload> makeRedisWalk(const Options &opt, Result &res);
std::unique_ptr<Workload> makeVirtWalk(const Options &opt, Result &res);
std::unique_ptr<Workload> makeFleetSwitch(const Options &opt, Result &res);

/**
 * Time each layer's public function alone, and one pass of the GAP
 * and Redis suites under spans; fills res.layers.
 */
void runLedger(const Options &opt, Result &res);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
