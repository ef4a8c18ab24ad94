/**
 * @file
 * Golden simulated outputs of the three workload paths whose host
 * time is the TLB-hit path or the walker: GapSuite (Runner loads and
 * stores), RedisBench (Runner batches, Rocket and BOOM) and a VirtEnv
 * guest stream (combined-TLB hits and 3D walks).
 *
 * Every machine counter (StatRegistry::dumpJson), every cache level's
 * hit/miss count and every CoreModel figure must match the committed
 * golden byte for byte: a hot-path optimisation that moves one TLB
 * LRU touch, one cache LRU stamp or one stall sample fails here.
 *
 * On a mismatch the produced text is written to
 * `golden_stats.actual.txt` in the working directory. A deliberate
 * model change regenerates the golden by copying that file over
 * `golden_stats.txt` next to this source, and says so.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "base/rng.h"
#include "base/stats.h"
#include "workloads/env.h"
#include "workloads/gap.h"
#include "workloads/redis.h"
#include "workloads/runner.h"
#include "workloads/virt_env.h"

namespace hpmp
{
namespace
{

/** Exact text of a double (hex float round-trips every bit). */
std::string
exact(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

void
dumpCaches(std::ostringstream &out, MemoryHierarchy &hier)
{
    out << "l1i " << hier.l1i().hits() << "/" << hier.l1i().misses()
        << " l1d " << hier.l1d().hits() << "/" << hier.l1d().misses()
        << " l2 " << hier.l2().hits() << "/" << hier.l2().misses()
        << " llc " << hier.llc().hits() << "/" << hier.llc().misses()
        << " dram " << hier.dram().rowHits() << "/"
        << hier.dram().rowMisses() << "\n";
}

void
dumpMachine(std::ostringstream &out, Machine &machine)
{
    StatRegistry registry;
    machine.registerStats(registry);
    dumpCaches(out, machine.hier());
    out << registry.dumpJson() << "\n";
}

EnvConfig
envConfig(CoreKind core, IsolationScheme scheme)
{
    EnvConfig config;
    config.core = core;
    config.scheme = scheme;
    return config;
}

/** GAP's six kernels at scale 10, plus a Runner stream of our own. */
void
runGap(std::ostringstream &out, IsolationScheme scheme)
{
    TeeEnv env(envConfig(CoreKind::Rocket, scheme));
    {
        GapSuite suite(env, /*scale=*/10, /*degree=*/8);
        for (const std::string &kernel : gapKernels())
            out << "gap." << kernel << " " << exact(suite.run(kernel))
                << "\n";
    }

    auto enclave = env.createEnclave(8_MiB);
    env.enterEnclave(*enclave, PrivMode::User);
    CoreModel model = env.makeCoreModel();
    Runner runner(*enclave->kernel, *enclave->as, model);
    // Demand-paged, so faults are serviced on both the per-access and
    // the batched path.
    const Addr buf = enclave->as->mmap(2_MiB, Perm::rw(), true, false);
    const Addr code = enclave->as->mmap(64_KiB, Perm::rx(), true, false);
    Rng rng(0x901d);
    runner.streamWrite(buf, 256_KiB);
    for (unsigned i = 0; i < 20000; ++i) {
        const Addr va = buf + alignDown(rng.below(2_MiB - 8), 8);
        if (rng.chance(0.3))
            runner.store(va);
        else
            runner.load(va);
        runner.fetch(code + alignDown(rng.below(64_KiB), 4));
        runner.compute(3);
    }
    runner.streamRead(buf, 512_KiB);
    out << "runner.cycles " << model.cycles() << " instructions "
        << model.instructions() << " mem_accesses " << model.memAccesses()
        << " faults " << runner.faultsServiced() << "\n";
    env.exitToHost();
    dumpMachine(out, env.machine());
}

void
runRedis(std::ostringstream &out, CoreKind core, IsolationScheme scheme)
{
    TeeEnv env(envConfig(core, scheme));
    RedisBench bench(env, 512);
    for (const char *command : {"SET", "GET", "LPUSH", "LRANGE_100", "SADD"})
        out << "redis." << command << " " << exact(bench.run(command, 120))
            << "\n";
    dumpMachine(out, env.machine());
}

/** Hot set plus excursions to a cold set larger than the L2 TLB. */
void
runVirt(std::ostringstream &out, VirtScheme scheme)
{
    VirtEnv env(CoreKind::Rocket, scheme);
    const Addr hot = env.mapGuestPages(16);
    const Addr cold = env.mapGuestPages(2048);
    VirtMachine &vm = env.vm();
    Rng rng(0x7e57);

    std::vector<AccessRequest> reqs;
    for (unsigned i = 0; i < 30000; ++i) {
        const bool to_cold = rng.chance(0.25);
        const Addr base = to_cold ? cold : hot;
        const uint64_t pages = to_cold ? 2048 : 16;
        const Addr va = base + pageAddr(rng.below(pages)) +
                        alignDown(rng.below(kPageSize), 8);
        const AccessType type =
            rng.chance(0.2) ? AccessType::Store : AccessType::Load;
        reqs.push_back({va, type});
    }

    CoreModel model(vm.machine().params());
    const size_t half = reqs.size() / 2;
    for (size_t i = 0; i < half; ++i) {
        const VirtAccessOutcome o = vm.access(reqs[i].va, reqs[i].type);
        model.addStallCycles(o.cycles, !o.tlbHit);
    }
    const VirtBatchOutcome batch =
        vm.accessBatch(std::span(reqs).subspan(half));
    out << "virt.cycles " << model.cycles() << " batch " << batch.accesses
        << " " << batch.tlbHits << " " << batch.faults << " "
        << batch.cycles << " " << batch.totalRefs() << " "
        << batch.gTlbHits << "\n";

    StatRegistry registry;
    vm.registerStats(registry);
    dumpCaches(out, vm.hier());
    out << registry.dumpJson() << "\n";
}

std::string
produce()
{
    std::ostringstream out;
    for (IsolationScheme scheme :
         {IsolationScheme::Pmp, IsolationScheme::PmpTable,
          IsolationScheme::Hpmp}) {
        out << "== gap " << toString(scheme) << "\n";
        runGap(out, scheme);
    }
    out << "== redis rocket pmpt\n";
    runRedis(out, CoreKind::Rocket, IsolationScheme::PmpTable);
    out << "== redis boom hpmp\n";
    runRedis(out, CoreKind::Boom, IsolationScheme::Hpmp);
    for (VirtScheme scheme : {VirtScheme::Pmpt, VirtScheme::HpmpGpt}) {
        out << "== virt " << toString(scheme) << "\n";
        runVirt(out, scheme);
    }
    return out.str();
}

TEST(GoldenStats, MatchesCommittedGolden)
{
    const std::filesystem::path golden_path =
        std::filesystem::path(__FILE__).parent_path() / "golden_stats.txt";
    std::stringstream golden;
    golden << std::ifstream(golden_path).rdbuf();

    const std::string actual = produce();
    if (actual != golden.str()) {
        std::ofstream("golden_stats.actual.txt") << actual;
        FAIL() << "simulated outputs differ from " << golden_path
               << "; produced text written to golden_stats.actual.txt";
    }
}

} // namespace
} // namespace hpmp
