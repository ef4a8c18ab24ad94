/**
 * @file
 * fleet_switch: 10k tenant domains on 4 simulated harts, served as a
 * closed loop by one client with FleetWorkload's traffic shape (Zipf
 * 0.99 switches, 2 % churn, 5 % attestation, coalesced shootdown
 * windows of 8). FleetWorkload assembles the SmpSystem and monitor;
 * the benchmark provisions the tenants and issues every
 * SecureMonitor call itself so each call can be timed.
 *
 * Even tenants get a Fast (segment) GMS and odd ones a Slow
 * (table-mode) GMS, so both segment programming and pmpte writes run.
 * After each switch the current hart loads and stores into the
 * tenant's own GMS, which must succeed, and probes another tenant's
 * GMS, which must be denied. Time is taken only after one full warm
 * pass, whose counts are the workload's deterministic work counts.
 *
 * The monitor takes PMP-table frames from a bump allocator that never
 * reuses them, so every churn of a Slow tenant leaks its table frames
 * and a process that serves long enough runs out (addGms then fails).
 * The frames leaked in the warm pass are a work count, and the
 * frames left are reported as the requests they will last.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "base/rng.h"
#include "bench.h"
#include "stats_view.h"
#include "workloads/fleet.h"

namespace perfbench
{
namespace
{

using namespace hpmp;

constexpr unsigned kTenants = 10000;
constexpr unsigned kHarts = 4;
constexpr unsigned kWindow = 8;
constexpr unsigned kBurst = 8;          //!< own-GMS accesses per request
constexpr uint64_t kWarmRequests = 20000;
constexpr double kZipfS = 0.99;
constexpr double kChurnProb = 0.02;
constexpr double kAttestProb = 0.05;

const char *const kMonitorSpans[] = {
    "monitor.switch", "monitor.attest", "monitor.window_end",
    "monitor.destroy", "monitor.create", "monitor.add_gms"};

class FleetSwitch : public Workload
{
  public:
    FleetSwitch(const Options &opt, Result &res)
        : seed_(opt.seed), res_(res), rng_(opt.seed)
    {
    }

    void
    setup(Tracer &tracer) override
    {
        FleetConfig cfg;
        cfg.scheme = IsolationScheme::Hpmp;
        cfg.domains = kTenants;
        cfg.harts = kHarts;
        cfg.seed = seed_;
        fleet_ = std::make_unique<FleetWorkload>(cfg);
        gmsBytes_ = cfg.gmsBytes;

        // Zipf popularity over slots, as FleetWorkload samples it.
        double sum = 0.0;
        for (unsigned i = 0; i < kTenants; ++i) {
            sum += 1.0 / std::pow(double(i + 1), kZipfS);
            zipfCdf_.push_back(sum);
        }
        for (double &c : zipfCdf_)
            c /= sum;

        for (unsigned slot = 0; slot < kTenants; ++slot)
            tenants_.push_back(createTenant(slot, tracer));

        std::vector<double> ignored;
        while (served_ < kWarmRequests)
            serveWindow(tracer, ignored, true);

        Tally t;
        for (unsigned h = 0; h < kHarts; ++h)
            t.add(fleet_->smp().hart(h));
        t.addMonitor(fleet_->monitor());
        t.callCycles = warmSwitchCycles_;
        t.report(res_);
        res_.counts["sim.cycles_per_access.hpmp"] =
            ratio(warmAccessCycles_, warmAccesses_);
        reportTableFrames();
    }

    uint64_t
    step(Tracer &tracer, std::vector<double> &request_us) override
    {
        return serveWindow(tracer, request_us, false);
    }

    void
    shares(const Tracer &tracer, double phase_seconds) override
    {
        double monitor = 0.0;
        for (const char *span : kMonitorSpans)
            monitor += tracer.total(span);
        res_.layers["trace.monitor_share_pct"] =
            100.0 * ratio(monitor, phase_seconds);
        res_.layers["trace.walk_share_pct"] = 0.0; // bare harts never walk
    }

  private:
    Addr
    slotBase(unsigned slot) const
    {
        return FleetWorkload::kArenaBase + Addr(slot) * gmsBytes_;
    }

    unsigned
    sampleSlot()
    {
        const auto it = std::upper_bound(zipfCdf_.begin(), zipfCdf_.end(),
                                         rng_.real());
        return unsigned(std::min<size_t>(it - zipfCdf_.begin(),
                                         kTenants - 1));
    }

    DomainId
    createTenant(unsigned slot, Tracer &tracer)
    {
        SecureMonitor &mon = fleet_->monitor();
        DomainId id;
        {
            Tracer::Span span(tracer, "monitor.create");
            id = mon.createDomain();
        }
        MonitorResult r;
        {
            Tracer::Span span(tracer, "monitor.add_gms");
            r = mon.addGms(id, {slotBase(slot), gmsBytes_, Perm::rwx(),
                                slot % 2 ? GmsLabel::Slow : GmsLabel::Fast});
        }
        res_.check(r.ok, "addGms failed");
        if (const PmpTable *table = mon.tablePeek(id)) {
            for (Addr pa : table->tablePages()) {
                tableLow_ = std::min(tableLow_, pa);
                tableHigh_ = std::max(tableHigh_, pa);
            }
        }
        return id;
    }

    /**
     * Table frames the monitor has handed out (the span from the
     * first to the last, as the allocator only moves up) less those
     * the live tenants' tables hold, and how long the rest will last.
     */
    void
    reportTableFrames()
    {
        const SecureMonitor &mon = fleet_->monitor();
        uint64_t live = 0;
        for (DomainId id : tenants_) {
            if (const PmpTable *table = mon.tablePeek(id))
                live += table->tablePages().size();
        }
        const uint64_t handed_out = (tableHigh_ - tableLow_) / kPageSize + 1;
        const uint64_t leaked = handed_out - live;
        const Addr end = mon.config().monitorBase + mon.config().monitorSize;
        const uint64_t left = (end - tableHigh_) / kPageSize - 1;
        res_.counts["monitor.table_frames_leaked"] = double(leaked);
        char line[256];
        std::snprintf(line, sizeof(line),
                      "table frames after the warm pass: %" PRIu64
                      " handed out, %" PRIu64 " held by live tenants, %"
                      PRIu64 " leaked; %" PRIu64 " left, about %.0f more "
                      "requests at this churn",
                      handed_out, live, leaked, left,
                      double(left) * ratio(double(served_), double(leaked)));
        res_.notes.push_back(line);
    }

    /** Destroy and re-create a slot's tenant; the old id must stay dead. */
    void
    churn(unsigned slot, Tracer &tracer)
    {
        SecureMonitor &mon = fleet_->monitor();
        const DomainId old = tenants_[slot];
        MonitorResult r;
        {
            Tracer::Span span(tracer, "monitor.destroy");
            r = mon.destroyDomain(old);
        }
        res_.check(r.ok, "destroyDomain failed");
        tenants_[slot] = createTenant(slot, tracer);
        const MonitorResult probe = mon.switchTo(old);
        res_.check(!probe.ok && (probe.code == MonitorError::StaleHandle ||
                                 probe.code == MonitorError::NoSuchDomain),
                   "retired domain id was honoured");
    }

    /** Switch, own-GMS burst, cross-tenant probe, maybe attest. */
    void
    serveOne(Tracer &tracer, bool warm)
    {
        SmpSystem &smp = fleet_->smp();
        SecureMonitor &mon = fleet_->monitor();
        const unsigned hart = unsigned(served_ % kHarts);
        smp.setCurrentHart(hart);
        const unsigned slot = sampleSlot();
        MonitorResult r;
        {
            Tracer::Span span(tracer, "monitor.switch");
            r = mon.switchTo(tenants_[slot]);
        }
        res_.check(r.ok, "switchTo failed");
        if (warm)
            warmSwitchCycles_.push_back(double(r.cycles));

        Machine &m = smp.hart(hart);
        {
            Tracer::Span span(tracer, "core.burst");
            for (unsigned i = 0; i < kBurst; ++i) {
                const Addr pa =
                    slotBase(slot) + 8 * rng_.below(gmsBytes_ / 8);
                const AccessOutcome out = m.access(
                    pa, i % 2 ? AccessType::Store : AccessType::Load);
                res_.check(out.ok(), "own-GMS access denied");
                if (warm) {
                    warmAccessCycles_ += double(out.cycles);
                    ++warmAccesses_;
                }
            }
            const unsigned other =
                (slot + 1 + unsigned(rng_.below(kTenants - 1))) % kTenants;
            const AccessOutcome probe = m.access(
                slotBase(other) + 8 * rng_.below(gmsBytes_ / 8),
                AccessType::Load);
            res_.check(probe.fault == Fault::LoadAccessFault,
                       "cross-tenant access allowed");
        }

        if (rng_.chance(kAttestProb)) {
            Tracer::Span span(tracer, "monitor.attest");
            const auto report =
                mon.attestDomain(tenants_[slot], rng_.next());
            res_.check(report.ok, "attestDomain failed");
        }
        if (rng_.chance(kChurnProb))
            pendingChurn_.push_back({served_ % kWindow, slot});
        ++served_;
    }

    /**
     * One coalesced window of kWindow requests. A request's host time
     * is everything done on its behalf: its own calls, the window
     * flush for the last request, and any churn it drew (run after
     * the flush, as FleetWorkload defers it).
     */
    uint64_t
    serveWindow(Tracer &tracer, std::vector<double> &request_us, bool warm)
    {
        SecureMonitor &mon = fleet_->monitor();
        double us[kWindow] = {};
        mon.beginCoalescedWindow();
        for (unsigned i = 0; i < kWindow; ++i) {
            const auto t0 = Clock::now();
            serveOne(tracer, warm);
            us[i] = secondsSince(t0) * 1e6;
        }
        {
            const auto t0 = Clock::now();
            Tracer::Span span(tracer, "monitor.window_end");
            mon.endCoalescedWindow();
            us[kWindow - 1] += secondsSince(t0) * 1e6;
        }
        for (const auto &[index, slot] : pendingChurn_) {
            const auto t0 = Clock::now();
            churn(slot, tracer);
            us[index] += secondsSince(t0) * 1e6;
        }
        pendingChurn_.clear();
        request_us.insert(request_us.end(), us, us + kWindow);
        return kWindow;
    }

    uint64_t seed_;
    Result &res_;
    Rng rng_;
    std::unique_ptr<FleetWorkload> fleet_;
    uint64_t gmsBytes_ = 0;
    std::vector<double> zipfCdf_;
    std::vector<DomainId> tenants_;
    std::vector<std::pair<uint64_t, unsigned>> pendingChurn_;
    uint64_t served_ = 0;
    Addr tableLow_ = ~Addr(0);
    Addr tableHigh_ = 0;
    std::vector<double> warmSwitchCycles_;
    double warmAccessCycles_ = 0.0;
    double warmAccesses_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeFleetSwitch(const Options &opt, Result &res)
{
    return std::make_unique<FleetSwitch>(opt, res);
}

} // namespace perfbench
