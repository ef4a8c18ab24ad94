/**
 * @file
 * virt_walk: a seeded guest access stream replayed through
 * VirtMachine::accessBatch under the four Fig. 13 schemes.
 *
 * The only workload that reaches walkTwoStage, the G-stage TLB and
 * the VS-PWC hooks. One access in two is an excursion into a cold
 * set four times the 1024-entry L2 TLB, so 3D walks take most of the
 * host time; the rest round-robin over a hot set resident in the L1
 * TLB. Time is taken only after one full warm pass over the stream,
 * whose counts are the workload's deterministic work counts.
 */

#include <cstdio>
#include <string>

#include "base/rng.h"
#include "bench.h"
#include "stats_view.h"
#include "workloads/virt_env.h"

namespace perfbench
{
namespace
{

using namespace hpmp;

constexpr unsigned kHotPages = 24;
constexpr unsigned kColdPages = 4096;
constexpr unsigned kStreamLen = 1u << 16;
constexpr unsigned kChunk = 4096; //!< requests per timed accessBatch
constexpr unsigned kExcursionEvery = 2;

struct SchemeInfo
{
    VirtScheme scheme;
    const char *key;
    const char *span;
};

const SchemeInfo kSchemes[] = {
    {VirtScheme::Pmp, "pmp", "virt.pmp"},
    {VirtScheme::Pmpt, "pmpt", "virt.pmpt"},
    {VirtScheme::Hpmp, "hpmp", "virt.hpmp"},
    {VirtScheme::HpmpGpt, "hpmp_gpt", "virt.hpmp_gpt"},
};

class VirtWalk : public Workload
{
  public:
    VirtWalk(const Options &opt, Result &res) : seed_(opt.seed), res_(res)
    {
    }

    void
    setup(Tracer &) override
    {
        Tally t;
        double cpa[4] = {};
        for (size_t i = 0; i < std::size(kSchemes); ++i) {
            envs_.push_back(std::make_unique<VirtEnv>(CoreKind::Rocket,
                                                      kSchemes[i].scheme));
            VirtEnv &env = *envs_.back();
            const Addr hot = env.mapGuestPages(kHotPages);
            const Addr cold = env.mapGuestPages(kColdPages);
            if (i == 0)
                makeStream(hot, cold);
            VirtMachine &vm = env.vm();
            vm.coldReset();
            const VirtBatchOutcome out = vm.accessBatch(stream_);
            res_.attempted += out.accesses;
            if (out.faults)
                res_.fail("virt warm pass faulted");
            addWarmCounts(t, vm, out);
            cpa[i] = ratio(double(out.cycles), double(out.accesses));
            res_.counts[std::string("sim.cycles_per_access.") +
                        kSchemes[i].key] = cpa[i];
        }
        t.report(res_);
        const double pmpt = 100.0 * (cpa[1] / cpa[0] - 1.0);
        const double hpmp = 100.0 * (cpa[2] / cpa[0] - 1.0);
        const double gpt = 100.0 * (cpa[3] / cpa[0] - 1.0);
        res_.counts["sim.pmpt_overhead_pct"] = pmpt;
        res_.counts["sim.hpmp_overhead_pct"] = hpmp;
        char line[256];
        std::snprintf(line, sizeof(line),
                      "sim cycles/access over PMP: PMPT +%.2f%%, HPMP "
                      "+%.2f%%, HPMP-GPT +%.2f%% (whole stream, TLB hits "
                      "included); paper per 3D walk: PMPT +89.9..155%%, "
                      "HPMP +29.7..75.6%%, HPMP-GPT +16.3..26.8%%",
                      pmpt, hpmp, gpt);
        res_.notes.push_back(line);
    }

    uint64_t
    step(Tracer &tracer, std::vector<double> &request_us) override
    {
        const std::span<const AccessRequest> chunk(
            stream_.data() + next_ * kChunk, kChunk);
        next_ = (next_ + 1) % (kStreamLen / kChunk);
        uint64_t ops = 0;
        const auto t0 = Clock::now();
        for (size_t i = 0; i < envs_.size(); ++i) {
            VirtBatchOutcome out;
            {
                Tracer::Span span(tracer, kSchemes[i].span);
                out = envs_[i]->vm().accessBatch(chunk);
            }
            res_.check(out.faults == 0, "virt access faulted");
            ops += out.accesses;
            if (tracer.on())
                tracedWalks_[i] += double(out.accesses - out.tlbHits);
        }
        // A request is one chunk through all four schemes.
        request_us.push_back(secondsSince(t0) * 1e6);
        return ops;
    }

    void
    shares(const Tracer &, double phase_seconds) override
    {
        double ns = 0.0;
        for (size_t i = 0; i < envs_.size(); ++i) {
            ns += tracedWalks_[i] *
                  res_.layers[std::string("core.virt_access_walk_ns.") +
                              kSchemes[i].key];
        }
        res_.layers["trace.walk_share_pct"] =
            100.0 * ratio(ns * 1e-9, phase_seconds);
        res_.layers["trace.monitor_share_pct"] = 0.0;
    }

  private:
    /** Seeded stream: hot round-robin plus uniform cold excursions. */
    void
    makeStream(Addr hot, Addr cold)
    {
        Rng rng(seed_);
        stream_.reserve(kStreamLen);
        for (unsigned i = 0; i < kStreamLen; ++i) {
            const AccessType type =
                rng.chance(0.3) ? AccessType::Store : AccessType::Load;
            const bool excursion = rng.below(kExcursionEvery) == 0;
            const Addr page = excursion
                                  ? cold + pageAddr(rng.below(kColdPages))
                                  : hot + pageAddr(i % kHotPages);
            stream_.push_back({page + 8 * rng.below(512), type});
        }
    }

    static void
    addWarmCounts(Tally &t, VirtMachine &vm, const VirtBatchOutcome &out)
    {
        t.accesses += double(out.accesses);
        t.walks += double(out.accesses - out.tlbHits);
        t.ptRefs += double(out.nptRefs + out.gptRefs);
        t.pmptRefs += double(out.pmptRefs);
        t.tlbL1 += double(vm.combinedTlb().l1Hits());
        t.tlbL2 += double(vm.combinedTlb().l2Hits());
        t.tlbMiss += double(vm.combinedTlb().misses());
        t.pwcHit += double(vm.vsPwc().hits());
        t.pwcMiss += double(vm.vsPwc().misses());
        t.addBelowTlb(vm.machine());
    }

    uint64_t seed_;
    Result &res_;
    std::vector<std::unique_ptr<VirtEnv>> envs_;
    std::vector<AccessRequest> stream_;
    unsigned next_ = 0;
    double tracedWalks_[4] = {};
};

} // namespace

std::unique_ptr<Workload>
makeVirtWalk(const Options &opt, Result &res)
{
    return std::make_unique<VirtWalk>(opt, res);
}

} // namespace perfbench
