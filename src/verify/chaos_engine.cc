#include "verify/chaos_engine.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>

#include "base/fault_inject.h"
#include "base/frame_alloc.h"
#include "base/rng.h"
#include "base/stats.h"
#include "core/params.h"
#include "core/smp.h"
#include "core/virt_machine.h"
#include "hpmp/iopmp.h"
#include "mem/scrubber.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "os/address_space.h"
#include "os/kernel.h"
#include "pt/page_table.h"
#include "pt/pte.h"
#include "verify/check_battery.h"

namespace hpmp
{

namespace
{

/**
 * Each domain draws its regions from a 64 MiB window keyed by its id,
 * far above the monitor region. Windows bound PMP-table growth (a few
 * leaf pages per domain) and make same-window collisions — rejected
 * overlapping registrations — a regularly exercised path.
 */
constexpr Addr kWindowBase = 256_MiB;
constexpr uint64_t kWindowSize = 64_MiB;
constexpr unsigned kWindows = 10;
constexpr unsigned kMaxDomains = 6;
/**
 * High enough that a domain's fast-GMS count regularly exceeds the
 * Hpmp segment budget (numEntries - 3 = 13), so the demote-to-table
 * degraded mode is exercised, not just unit-tested.
 */
constexpr unsigned kMaxGmsPerDomain = 24;
constexpr DomainId kBogusDomain = 777777;

Addr
windowOf(DomainId id)
{
    return kWindowBase + (id % kWindows) * kWindowSize;
}

/**
 * Campaign machines run with the PMPTW-Cache enabled (the paper keeps
 * it off by default): the monitor must keep the cached leaf pmptes
 * coherent across every shootdown and rollback path, and the stale
 * probes audit exactly that. This is also what makes the benign
 * "pmptw_cache.fill" drop site reachable for the coverage gate.
 */
MachineParams
chaosMachineParams()
{
    MachineParams p = rocketParams();
    p.pmptwEntries = 8;
    return p;
}

Perm
randomPerm(Rng &rng)
{
    switch (rng.below(5)) {
      case 0: return Perm::rw();
      case 1: return Perm::ro();
      case 2: return Perm::rx();
      case 3: return Perm::none();
      default: return Perm::rwx();
    }
}

uint64_t
randomNapotSize(Rng &rng)
{
    // 4 KiB .. 4 MiB, biased small so many regions fit one window.
    static constexpr uint64_t sizes[] = {
        4_KiB, 4_KiB, 8_KiB, 16_KiB, 64_KiB, 256_KiB, 1_MiB, 4_MiB,
    };
    return sizes[rng.below(std::size(sizes))];
}

/**
 * Multi-hart campaign geometry: each hart's kernel (OS layer) owns a
 * NAPOT region far above the chaos windows, so domain-lifecycle chaos
 * and OS traffic collide only where the ops make them collide.
 */
constexpr Addr kKernelMemBase = 2_GiB;
constexpr uint64_t kKernelMemBytes = 32_MiB;
constexpr uint64_t kKernelMemStride = 64_MiB;
/** Watch mappings live above the mmap arena so they are never unmapped. */
constexpr Addr kWatchVaBase = 0x7f000000;

/**
 * Virt-campaign geometry (--virt): each hart's guest draws everything
 * — two nested tables, a guest table and its data pages — from a
 * 64 MiB arena far above the chaos windows and the kernel arenas. One
 * NAPOT GMS of the host domain covers all arenas, so domain switches
 * churn the guests' *physical* stage while the guest ops churn the
 * VS- and G-stages independently.
 */
constexpr Addr kVirtArenaBase = 4_GiB;
constexpr uint64_t kVirtArenaStride = 64_MiB;
constexpr uint64_t kVirtArenaSpan = 512_MiB; //!< covers up to 8 harts
constexpr Addr kVirtNptAOff = 0;
constexpr Addr kVirtNptBOff = 4_MiB;
constexpr Addr kVirtGptOff = 8_MiB;
constexpr uint64_t kVirtGptPoolBytes = 4_MiB;
constexpr Addr kVirtDataOff = 16_MiB;
constexpr unsigned kGuestPages = 8;
constexpr Addr kChaosGuestVaBase = 0x40000000;

/** Guest leaf perms never include none(): a V=1 RWX=0 PTE is a pointer. */
Perm
randomLeafPerm(Rng &rng)
{
    switch (rng.below(5)) {
      case 0: return Perm::rw();
      case 1: return Perm::ro();
      case 2: return Perm::rx();
      case 3: return Perm::xo();
      default: return Perm::rwx();
    }
}

/** One hart's guest: two switchable NPTs, a GPT, and tracked perms. */
struct HartGuest
{
    std::unique_ptr<PageTable> nptA, nptB, gpt;
    bool usingB = false;
    Addr dataBase = 0;
    std::array<Perm, kGuestPages> gptPerm;
    std::array<std::array<Perm, kGuestPages>, 2> nptPerm; //!< [A, B]

    PageTable &currentNpt() { return usingB ? *nptB : *nptA; }
    unsigned currentNptIndex() const { return usingB ? 1 : 0; }
};

} // namespace

/** The two-host campaign (migrate_chaos.cc). */
ChaosStats runMigrateChaos(const ChaosConfig &config);

/**
 * Every campaign but Migrate runs here: each op initiates from a
 * random hart, IPI shootdowns run with the stale-translation checker
 * and nested-call lock probes interleaved into every protocol step,
 * and the check battery judges every op (per-hart rollback, hart
 * convergence outside windows, stale sweeps, window closure,
 * invariants, and the RAS containment audit).
 */
ChaosStats
runChaos(const ChaosConfig &config)
{
    if (config.layer == ChaosLayer::Migrate)
        return runMigrateChaos(config);
    const bool osLayer = config.layer == ChaosLayer::Os;
    const bool virtLayer = config.layer == ChaosLayer::Virt;
    const bool fleetLayer = config.layer == ChaosLayer::Fleet;
    const bool rasLayer = config.layer == ChaosLayer::Ras;

    ChaosStats stats;
    stats.harts = config.harts;
    Rng rng(config.seed);

    SmpParams sp;
    sp.harts = config.harts;
    sp.schedSeed = config.seed * 0x9E3779B97F4A7C15ULL + config.harts;
    SmpSystem smp(chaosMachineParams(), sp);
    MonitorConfig monitor_config;
    monitor_config.scheme = config.scheme;
    SecureMonitor monitor(smp, monitor_config);
    for (unsigned h = 0; h < config.harts; ++h)
        smp.hart(h).setPriv(PrivMode::Supervisor);

    // ---- OS layer: one kernel + address space per hart -------------
    std::vector<DomainId> kernelDomain(config.harts, 0);
    std::vector<std::unique_ptr<Kernel>> kernels;
    std::vector<std::unique_ptr<AddressSpace>> spaces;
    // Per-hart [base, len) regions currently mmapped (touch targets).
    std::vector<std::vector<std::pair<Addr, uint64_t>>> mapped(
        config.harts);
    if (osLayer) {
        for (unsigned h = 0; h < config.harts; ++h) {
            kernelDomain[h] = monitor.createDomain();
            KernelConfig kc;
            kernels.push_back(std::make_unique<Kernel>(
                monitor, kernelDomain[h],
                kKernelMemBase + h * kKernelMemStride, kKernelMemBytes,
                kc));
            spaces.push_back(kernels.back()->createAddressSpace());
        }
    }

    // ---- stale-translation watches ---------------------------------
    // Two watched accesses per hart: a chaos-window page (permission
    // churns with GMS registration and domain switches) and either the
    // hart's kernel data page (flips on switches to/from its domain)
    // or a second window page in bare mode.
    StaleChecker checker(smp, monitor);
    std::vector<Addr> watchPas;
    unsigned wi = 0;
    for (unsigned h = 0; h < config.harts; ++h) {
        for (unsigned k = 0; k < 2; ++k) {
            StaleWatch w;
            w.hart = h;
            w.type = (wi % 2) ? AccessType::Store : AccessType::Load;
            if (k == 0) {
                w.pa = windowOf(h % kWindows) + (1 + h) * kPageSize;
            } else if (osLayer) {
                w.pa = kKernelMemBase + h * kKernelMemStride +
                       kernels[h]->config().ptPoolBytes;
            } else {
                w.pa = windowOf((h + 3) % kWindows) + (2 + h) * kPageSize;
            }
            if (osLayer) {
                w.va = kWatchVaBase + wi * kPageSize;
                const bool mapped_ok =
                    spaces[h]->mapFrameAt(w.va, w.pa, Perm::rwx(), false);
                panic_if(!mapped_ok, "watch mapping failed");
            } else {
                w.va = w.pa; // bare harts access physically
            }
            checker.addWatch(w);
            watchPas.push_back(w.pa & ~Addr(kPageSize - 1));
            ++wi;
        }
    }

    // Point every hart's MMU at its own address space. Runs through
    // Machine::setSatp, i.e. the remote-fence accounting path.
    if (osLayer) {
        for (unsigned h = 0; h < config.harts; ++h) {
            smp.setCurrentHart(h);
            smp.hart(h).setSatp(spaces[h]->rootPa(),
                                kernels[h]->config().pagingMode);
        }
        smp.setCurrentHart(0);
    }

    // ---- virt layer: one guest per hart ----------------------------
    std::vector<HartGuest> guests;
    if (virtLayer) {
        smp.enableVirt();
        // One slow NAPOT GMS of the host domain covers every guest
        // arena: the guests only reach memory while the host domain is
        // current, and every domain switch flips their physical stage.
        Gms arena;
        arena.base = kVirtArenaBase;
        arena.size = kVirtArenaSpan;
        arena.perm = Perm::rwx();
        arena.label = GmsLabel::Slow;
        const MonitorResult ar = monitor.addGms(monitor.currentDomain(),
                                                arena);
        panic_if(!ar.ok, "virt arena GMS rejected: %s", ar.error.c_str());

        guests.resize(config.harts);
        for (unsigned h = 0; h < config.harts; ++h) {
            HartGuest &hg = guests[h];
            const Addr base = kVirtArenaBase + h * kVirtArenaStride;
            hg.nptA = std::make_unique<PageTable>(
                smp.mem(), bumpAllocator(base + kVirtNptAOff),
                PagingMode::Sv39, 2);
            hg.nptB = std::make_unique<PageTable>(
                smp.mem(), bumpAllocator(base + kVirtNptBOff),
                PagingMode::Sv39, 2);
            hg.gpt = std::make_unique<PageTable>(
                smp.mem(), bumpAllocator(base + kVirtGptOff),
                PagingMode::Sv39, 0);
            hg.dataBase = base + kVirtDataOff;

            for (PageTable *npt : {hg.nptA.get(), hg.nptB.get()}) {
                // G-stage identity superpages over the GPT pool: the
                // two-stage walk translates every guest-PT frame.
                for (Addr off = 0; off < kVirtGptPoolBytes; off += 2_MiB) {
                    const Addr gpa = base + kVirtGptOff + off;
                    panic_if(!npt->map(gpa, gpa, Perm::rw(), true, 1),
                             "G-stage identity map failed");
                }
            }
            for (unsigned p = 0; p < kGuestPages; ++p) {
                const Addr gva = kChaosGuestVaBase + p * kPageSize;
                const Addr gpa = hg.dataBase + p * kPageSize;
                // Page 1 boots as an execute-only, supervisor-only
                // leaf (S-mode fetches from U pages always fault) so
                // the fetch watch below hunts stale X grants from the
                // start.
                hg.gptPerm[p] = p == 1 ? Perm::xo() : Perm::rwx();
                panic_if(!hg.gpt->map(gva, gpa, hg.gptPerm[p], p != 1),
                         "GPT map failed");
                // The B table boots with alternating narrower perms so
                // the very first hgatp switch changes the G-stage view.
                hg.nptPerm[0][p] = Perm::rwx();
                hg.nptPerm[1][p] = p % 2 ? Perm::rwx() : Perm::rw();
                panic_if(!hg.nptA->map(gpa, gpa, hg.nptPerm[0][p], true),
                         "NPT-A map failed");
                panic_if(!hg.nptB->map(gpa, gpa, hg.nptPerm[1][p], true),
                         "NPT-B map failed");
            }

            VirtMachine &vm = smp.virtHart(h);
            vm.setHgatp(hg.nptA->rootPa());
            vm.setVsatp(hg.gpt->rootPa());

            // Watch page 0 of each guest through the two-stage oracle
            // and commit the boot-time expectations for every page.
            VirtStaleWatch vw;
            vw.hart = h;
            vw.gva = kChaosGuestVaBase;
            vw.gpa = hg.dataBase;
            vw.spa = hg.dataBase;
            vw.type = h % 2 ? AccessType::Store : AccessType::Load;
            checker.addVirtWatch(vw);
            // A second watch fetches through the X-only page: stale
            // executable grants are attributed separately from RW ones
            // (an injectable-code window, not just a data leak).
            VirtStaleWatch xw;
            xw.hart = h;
            xw.gva = kChaosGuestVaBase + kPageSize;
            xw.gpa = hg.dataBase + kPageSize;
            xw.spa = hg.dataBase + kPageSize;
            xw.type = AccessType::Fetch;
            checker.addVirtWatch(xw);
            for (unsigned p = 0; p < kGuestPages; ++p) {
                checker.setGuestPerm(h, kChaosGuestVaBase + p * kPageSize,
                                     hg.gptPerm[p]);
                checker.setGpaPerm(h, hg.dataBase + p * kPageSize,
                                   hg.nptPerm[0][p]);
            }
        }
    }
    // Rewrite one already-mapped guest leaf in place (PageTable has no
    // protect(): campaigns remap by writing the PTE the walker reads).
    auto rewriteLeaf = [&](PageTable &pt, Addr va, Addr pa, Perm perm,
                           bool user = true) {
        const auto slot = pt.leafPteAddr(va);
        panic_if(!slot, "no guest leaf to rewrite");
        smp.mem().write64(*slot,
                          Pte::leaf(pa, perm, user, true, true).raw);
    };

    ProbeHook hook(smp, monitor, checker,
                   [&](const IpiEvent &) { return rng.chance(0.12); });
    smp.setInterleaveHook(&hook);
    CheckBattery battery(monitor, &checker, &hook);

    // ---- DMA masters behind a two-master IOPMP ---------------------
    // Each master sits on its own hart's cache hierarchy (master 1
    // on hart 1 when the campaign has one) and both contend for one
    // shared channel, so a master's transfer cycles — including its
    // IOPMP table-reference latency — inflate under the other's load.
    IopmpUnit iopmp(smp.mem(), 2);
    iopmp.master(0).programSegment(0, windowOf(0), kWindowSize,
                                   Perm::rw());
    iopmp.master(1).programSegment(0, windowOf(1), kWindowSize,
                                   Perm::rw());
    SharedBus dmaBus(2);
    DmaEngine dma0(iopmp, smp.hart(0).hier(), 0);
    DmaEngine dma1(iopmp,
                   smp.hart(config.harts > 1 ? 1 : 0).hier(), 1);
    dma0.attachBus(&dmaBus);
    dma1.attachBus(&dmaBus);

    // ---- RAS layer: background patrol scrubber ---------------------
    // The patrol covers exactly the chaos windows: poison landing
    // under the patrol head (ras.poison_scrub) then hits enclave,
    // host or free frames — the classes whose containment is bounded.
    // Monitor-region poison is planted deliberately (and rarely) by
    // the ras.monitor sub-op instead, so a whole-host degrade is
    // always an *expected* event the audits can account for.
    std::unique_ptr<Scrubber> scrub;
    if (rasLayer) {
        scrub = std::make_unique<Scrubber>(
            smp.mem(), kWindowBase, kWindows * kWindowSize, 32);
        scrub->setSkip(
            [&](Addr page) { return monitor.pageQuarantined(page); });
    }

    FaultInjector &injector = FaultInjector::instance();
    injector.enable(config.seed);

    const char *op_name = "?";
    auto fail = [&](unsigned index, const std::string &why) {
        std::ostringstream os;
        os << "seed " << config.seed << " harts " << config.harts
           << " op #" << index << " (" << op_name << "): " << why;
        stats.failed = true;
        stats.failure = os.str();
    };

    // Helpers over the current population.
    auto live = [&]() { return monitor.domainIds(); };
    const size_t max_domains =
        kMaxDomains + 1 + (osLayer ? config.harts : 0);
    auto pick_domain = [&](bool allow_bogus) -> DomainId {
        if (allow_bogus && rng.chance(0.08))
            return kBogusDomain;
        const auto ids = live();
        return ids[rng.below(ids.size())];
    };
    auto pick_gms_base = [&](DomainId id) -> Addr {
        if (!monitor.domainExists(id))
            return windowOf(id);
        const auto &list = monitor.gmsOf(id);
        if (list.empty() || rng.chance(0.1))
            return windowOf(id) + rng.below(16) * kPageSize;
        return list[rng.below(list.size())].base;
    };
    auto random_gms = [&](DomainId id) -> Gms {
        Gms gms;
        gms.size = randomNapotSize(rng);
        const Addr window = windowOf(id);
        gms.base = window + rng.below(kWindowSize / gms.size) * gms.size;
        gms.perm = randomPerm(rng);
        gms.label = rng.chance(0.7) ? GmsLabel::Fast : GmsLabel::Slow;
        if (rng.chance(0.05))
            gms.base += 0x100;
        if (rng.chance(0.03))
            gms.size = 0;
        if (rng.chance(0.04))
            gms.base = monitor.config().monitorBase +
                       rng.below(monitor.config().monitorSize / kPageSize) *
                           kPageSize;
        return gms;
    };

    // Fleet campaigns: every destroyed tenant's id is remembered so
    // stale-handle probes can keep asserting the recycling contract —
    // a retired DomainId stays a typed denial forever, even after its
    // registry slot is handed to a new tenant under a new generation.
    std::vector<DomainId> retired;

    // ---- RAS helpers -----------------------------------------------
    // Poison never lands on a stale-watch page: the watch probes are
    // instrumentation, and a fail-closed machine-check denial there
    // would read as a spurious stale-translation diagnosis.
    auto isWatchPage = [&](Addr page) {
        return std::find(watchPas.begin(), watchPas.end(), page) !=
               watchPas.end();
    };
    // A poisonable page of one of `id`'s exclusive GMSs (0 = none):
    // shared regions are excluded so the blast-radius contract —
    // exactly one owner dies — stays well-defined.
    auto pickPoisonPage = [&](DomainId id) -> Addr {
        if (!monitor.domainExists(id))
            return 0;
        const auto &list = monitor.gmsOf(id);
        for (unsigned attempt = 0; attempt < 8 && !list.empty();
             ++attempt) {
            const Gms &gms = list[rng.below(list.size())];
            if (gms.shared || gms.size < kPageSize)
                continue;
            const Addr page =
                gms.base + rng.below(gms.size / kPageSize) * kPageSize;
            if (isWatchPage(page) || monitor.pageQuarantined(page))
                continue;
            return page;
        }
        return 0;
    };
    // The domain whose GMS covers `page` (the last match), if any.
    auto ownerOf = [&](Addr page) -> std::optional<DomainId> {
        std::optional<DomainId> owner;
        for (DomainId id : live()) {
            for (const Gms &gms : monitor.gmsOf(id)) {
                if (gms.base <= page && page < gms.base + gms.size)
                    owner = id;
            }
        }
        return owner;
    };
    // Judge one machine-check report with the battery's containment
    // audit. A failed report becomes the op's result: the rollback
    // digest judges it, as model_check does.
    auto judge = [&](unsigned index, const PoisonReport &report,
                     const MonitorValue<RasOutcome> &outcome) {
        if (!outcome.ok)
            return MonitorResult::fail(outcome.code, outcome.error);
        if (const Verdict v = battery.containment(
                report, outcome, [&]() { return rng.next(); },
                [&]() { return pick_domain(false); })) {
            if (v.kind == "blast_radius")
                ++stats.rasBlastViolations;
            fail(index, v.what);
        }
        return MonitorResult{};
    };

    // The campaign's stats registry (the series adds the DMA bus).
    auto register_all = [&](StatRegistry &registry) {
        monitor.registerStats(registry);
        smp.registerStats(registry);
        checker.registerStats(registry);
        iopmp.registerStats(registry);
        if (scrub)
            scrub->registerStats(registry);
        for (unsigned h = 0; h < unsigned(kernels.size()); ++h) {
            kernels[h]->registerStats(
                registry, h == 0 ? "os" : "hart" + std::to_string(h) + ".os");
        }
    };
    // Windowed telemetry over the full SMP registry, clocked by the
    // monitor's simulated call_cycles sum (see ChaosConfig).
    StatRegistry seriesRegistry;
    std::unique_ptr<StatSampler> sampler;
    auto campaign_cycles = [&]() -> uint64_t {
        const Distribution *d = monitor.stats().getDist("call_cycles");
        return d ? d->sum() : 0;
    };
    if (config.statsSeriesOut) {
        register_all(seriesRegistry);
        seriesRegistry.add(&dmaBus.stats());
        sampler = std::make_unique<StatSampler>(seriesRegistry,
                                                config.statsSeriesInterval);
    }

    for (unsigned i = 0; i < config.ops && !stats.failed; ++i) {
        if (sampler)
            sampler->advanceTo(campaign_cycles());
        // Every op initiates from a random hart: the monitor must
        // program the canonical unit and converge everyone else no
        // matter who trapped in.
        const unsigned initiator = unsigned(rng.below(config.harts));
        smp.setCurrentHart(initiator);

        const bool armed = rng.chance(config.faultProb);
        const bool digest_checked = armed || i % 8 == 0;
        if (digest_checked)
            battery.snapshot();
        if (armed)
            injector.armAnyNth(1 + rng.below(8));

        // ---- run one random operation -------------------------------
        MonitorResult result;
        const unsigned roll = unsigned(rng.below(100));
        if (roll < 6) {
            op_name = "createDomain";
            if (live().size() < max_domains)
                monitor.createDomain();
        } else if (roll < 12) {
            op_name = "destroyDomain";
            const DomainId id = pick_domain(true);
            // Destroy scrubs and releases the freed GMS pages, so a
            // hart's kernel domain — whose arena backs live page
            // tables the campaign keeps exercising — is never torn
            // down mid-flight.
            const bool backs_kernel = osLayer &&
                std::find(kernelDomain.begin(), kernelDomain.end(),
                          id) != kernelDomain.end();
            if (!backs_kernel)
                result = monitor.destroyDomain(id);
        } else if (roll < 28) {
            op_name = "addGms";
            const DomainId id = pick_domain(true);
            if (!monitor.domainExists(id) ||
                monitor.gmsOf(id).size() < kMaxGmsPerDomain) {
                result = monitor.addGms(id, random_gms(id));
            }
        } else if (roll < 35) {
            op_name = "removeGms";
            const DomainId id = pick_domain(true);
            result = monitor.removeGms(id, pick_gms_base(id));
        } else if (roll < 41) {
            op_name = "setLabel";
            const DomainId id = pick_domain(true);
            result = monitor.setLabel(id, pick_gms_base(id),
                                      rng.chance(0.5) ? GmsLabel::Fast
                                                      : GmsLabel::Slow);
        } else if (roll < 47) {
            op_name = "setPerm";
            const DomainId id = pick_domain(true);
            result =
                monitor.setPerm(id, pick_gms_base(id), randomPerm(rng));
        } else if (roll < 52) {
            op_name = "shareGms";
            const DomainId owner = pick_domain(false);
            const DomainId peer = pick_domain(true);
            result = monitor.shareGms(owner, pick_gms_base(owner), peer,
                                      randomPerm(rng));
        } else if (roll < 60) {
            op_name = "hintHotRegion";
            const DomainId id = pick_domain(true);
            Addr base = pick_gms_base(id);
            uint64_t size = randomNapotSize(rng);
            if (monitor.domainExists(id) && !monitor.gmsOf(id).empty() &&
                rng.chance(0.8)) {
                const auto &list = monitor.gmsOf(id);
                const Gms &gms = list[rng.below(list.size())];
                size = std::max<uint64_t>(gms.size >> rng.below(3),
                                          kPageSize);
                if (isPowerOf2(gms.size) && size <= gms.size)
                    base = gms.base + rng.below(gms.size / size) * size;
            }
            result = monitor.hintHotRegion(id, base, size);
        } else if (roll < 74) {
            op_name = "switchTo";
            result = monitor.switchTo(pick_domain(true));
        } else if (roll < 80) {
            op_name = "attest";
            const DomainId id = pick_domain(false);
            const uint64_t nonce = rng.next();
            const auto report = monitor.attestDomain(id, nonce);
            if (report.ok) {
                if (!monitor.attestor().verify(report.value, nonce)) {
                    fail(i, "attestation report failed verification");
                    break;
                }
            } else {
                result = MonitorResult::fail(report.code, report.error);
            }
        } else if (roll < 88 && osLayer) {
            ++stats.osOps;
            AddressSpace &as = *spaces[initiator];
            auto &regions = mapped[initiator];
            switch (rng.below(4)) {
              case 0: {
                op_name = "os.mmap";
                const uint64_t len = (1 + rng.below(8)) * kPageSize;
                const auto va = as.tryMmap(len, Perm::rw(), true,
                                           rng.chance(0.7));
                if (va)
                    regions.push_back({*va, len});
                break;
              }
              case 1: {
                op_name = "os.munmap";
                if (!regions.empty()) {
                    const size_t idx = rng.below(regions.size());
                    as.munmap(regions[idx].first, regions[idx].second);
                    // munmap fences through the canonical machine;
                    // fence the hart that actually ran it too.
                    smp.hart(initiator).sfenceVma();
                    regions.erase(regions.begin() + ptrdiff_t(idx));
                }
                break;
              }
              default: {
                op_name = "os.touch";
                if (monitor.currentDomain() != kernelDomain[initiator])
                    result = monitor.switchTo(kernelDomain[initiator]);
                if (result.ok && !regions.empty()) {
                    const auto &[base, len] =
                        regions[rng.below(regions.size())];
                    for (unsigned t = 0; t < 4; ++t) {
                        const Addr va =
                            base + rng.below(len / kPageSize) * kPageSize;
                        const AccessType type = rng.chance(0.5)
                                                    ? AccessType::Load
                                                    : AccessType::Store;
                        Machine &m = smp.hart(initiator);
                        const auto out = m.access(va, type);
                        if (out.fault == pageFaultFor(type) &&
                            as.handleFault(va, type)) {
                            m.access(va, type);
                        }
                    }
                }
                break;
              }
            }
        } else if (roll < 88 && virtLayer) {
            ++stats.virtOps;
            VirtMachine &vm = smp.virtHart(initiator);
            HartGuest &hg = guests[initiator];
            switch (rng.below(4)) {
              case 0: {
                op_name = "virt.touch";
                for (unsigned t = 0; t < 4; ++t) {
                    const Addr gva = kChaosGuestVaBase +
                                     rng.below(kGuestPages) * kPageSize;
                    vm.access(gva, rng.chance(0.5) ? AccessType::Load
                                                   : AccessType::Store);
                }
                break;
              }
              case 1: {
                op_name = "virt.hgatp";
                // Switch nested tables. Commit the new G-stage view to
                // the oracle first, then fence — the same
                // commit-before-shootdown order the monitor uses.
                hg.usingB = !hg.usingB;
                const unsigned next = hg.currentNptIndex();
                for (unsigned p = 0; p < kGuestPages; ++p) {
                    checker.setGpaPerm(initiator,
                                       hg.dataBase + p * kPageSize,
                                       hg.nptPerm[next][p]);
                }
                vm.setHgatp(hg.currentNpt().rootPa());
                break;
              }
              case 2: {
                op_name = "virt.gpt_remap";
                const unsigned p = unsigned(rng.below(kGuestPages));
                const Perm np = randomLeafPerm(rng);
                const Addr gva = kChaosGuestVaBase + p * kPageSize;
                // Page 1 keeps U clear so its fetch watch stays live.
                rewriteLeaf(*hg.gpt, gva, hg.dataBase + p * kPageSize,
                            np, p != 1);
                hg.gptPerm[p] = np;
                checker.setGuestPerm(initiator, gva, np);
                vm.setVsatp(hg.gpt->rootPa()); // hfence.vvma shootdown
                break;
              }
              default: {
                op_name = "virt.npt_remap";
                const unsigned p = unsigned(rng.below(kGuestPages));
                const Perm np = randomLeafPerm(rng);
                const Addr gpa = hg.dataBase + p * kPageSize;
                rewriteLeaf(hg.currentNpt(), gpa, gpa, np);
                hg.nptPerm[hg.currentNptIndex()][p] = np;
                checker.setGpaPerm(initiator, gpa, np);
                vm.setHgatp(hg.currentNpt().rootPa()); // hfence.gvma
                break;
              }
            }
        } else if (roll < 88 && fleetLayer) {
            ++stats.fleetOps;
            switch (rng.below(4)) {
              case 0: {
                // Coalesced epoch: a batch of switches from rotating
                // harts defers into one shared shootdown window; the
                // flush runs the single IPI round (with the checker
                // and nested-call probes interleaved into it).
                op_name = "fleet.epoch";
                ++stats.fleetEpochs;
                monitor.beginCoalescedWindow();
                const unsigned batch = 2 + unsigned(rng.below(4));
                for (unsigned b = 0; b < batch; ++b) {
                    smp.setCurrentHart(
                        unsigned(rng.below(config.harts)));
                    const MonitorResult r =
                        monitor.switchTo(pick_domain(true));
                    if (!r.ok &&
                        r.code == MonitorError::InjectedFault) {
                        ++stats.injectedFaults;
                    }
                }
                monitor.endCoalescedWindow();
                smp.setCurrentHart(initiator);
                break;
              }
              case 1: {
                // A retired id must stay a typed denial — honouring
                // one would hand a stale tenant handle whatever domain
                // recycled the slot.
                op_name = "fleet.stale";
                if (retired.empty())
                    break;
                const DomainId old =
                    retired[rng.below(retired.size())];
                const MonitorResult r = monitor.switchTo(old);
                if (r.ok) {
                    fail(i, "retired domain id " + std::to_string(old) +
                                " was honoured");
                    break;
                }
                if (r.code != MonitorError::StaleHandle &&
                    r.code != MonitorError::NoSuchDomain &&
                    r.code != MonitorError::InjectedFault) {
                    fail(i, std::string("retired id denied with the "
                                        "wrong error: ") +
                                toString(r.code));
                    break;
                }
                if (r.code != MonitorError::InjectedFault)
                    ++stats.fleetStaleProbes;
                result = r;
                break;
              }
              case 2: {
                op_name = "fleet.churn";
                const DomainId id = pick_domain(false);
                if (id == 0)
                    break; // never churn the host domain
                result = monitor.destroyDomain(id);
                if (result.ok) {
                    retired.push_back(id);
                    ++stats.fleetChurns;
                }
                break;
              }
              default: {
                // Same-domain re-switch: the empty layout diff must
                // elide the shootdown (monitor.ipi_elided), not fence
                // every sibling for nothing.
                op_name = "fleet.reswitch";
                result = monitor.switchTo(monitor.currentDomain());
                break;
              }
            }
        } else if (roll < 88 && rasLayer) {
            ++stats.rasOps;
            // Multi-call sub-ops re-snapshot the rollback oracle after
            // each *successful* mutating call, so a later injected
            // failure is judged against the state it actually aborted
            // from, not the op's entry state.
            auto resnap = [&]() {
                if (digest_checked)
                    battery.snapshot();
            };
            switch (rng.below(6)) {
              case 0: {
                // Poison a victim enclave's data page, consume it
                // through a real load when the region is readable, and
                // report: exactly the owning domain must die.
                op_name = "ras.data";
                if (monitor.rasFatal())
                    break;
                const DomainId victim = pick_domain(false);
                if (victim == 0)
                    break;
                const Addr page = pickPoisonPage(victim);
                if (!page)
                    break;
                const Addr line = page + rng.below(64) * 64;
                smp.mem().poisonLine(line);
                ++stats.rasPoisons;
                const auto before = live();
                Perm perm;
                for (const Gms &gms : monitor.gmsOf(victim)) {
                    if (gms.base <= page && page < gms.base + gms.size)
                        perm = gms.perm;
                }
                if (perm.allows(AccessType::Load) && rng.chance(0.6)) {
                    // Read it back the way a core would: switch to the
                    // owner and load — the fill must fail closed with
                    // a typed machine check, never a panic.
                    const MonitorResult sw = monitor.switchTo(victim);
                    if (!sw.ok) {
                        result = sw;
                        break;
                    }
                    resnap();
                    const auto out = smp.hart(initiator).access(
                        line, AccessType::Load);
                    if (out.fault == Fault::MachineCheck) {
                        ++stats.rasMachineChecks;
                        if ((out.poisonAddr & ~Addr(63)) != line) {
                            fail(i, "machine check attributed to the "
                                    "wrong line");
                            break;
                        }
                    }
                }
                ++stats.rasReports;
                result = judge(i, {PoisonClass::Data, page, victim, 0,
                                   before, {}},
                               monitor.handleMachineCheck(line));
                break;
              }
              case 1: {
                // Poison a pmpte frame: the monitor must rebuild the
                // table from its authoritative layout — same
                // measurement, same grants, fresh frames, new root.
                op_name = "ras.pmpte";
                if (monitor.rasFatal())
                    break;
                const DomainId victim = pick_domain(false);
                const PmpTable *table = monitor.tablePeek(victim);
                if (!table || table->tablePages().empty())
                    break;
                const auto &frames = table->tablePages();
                const Addr frame = frames[rng.below(frames.size())];
                const Addr oldRoot = table->rootPa();
                smp.mem().poisonLine(frame + rng.below(64) * 64);
                ++stats.rasPoisons;
                const auto before = live();
                ++stats.rasReports;
                result = judge(i,
                               {PoisonClass::Pmpte, frame, victim, oldRoot,
                                before, {}},
                               monitor.handleMachineCheck(frame));
                break;
              }
              case 2: {
                // Poison a frame nobody owns: the quarantine must
                // touch no domain at all.
                op_name = "ras.free";
                if (monitor.rasFatal())
                    break;
                const Addr page =
                    windowOf(DomainId(rng.below(kWindows))) +
                    rng.below(kWindowSize / kPageSize) * kPageSize;
                if (ownerOf(page) || isWatchPage(page) ||
                    monitor.pageQuarantined(page)) {
                    break;
                }
                smp.mem().poisonLine(page + rng.below(64) * 64);
                ++stats.rasPoisons;
                const auto before = live();
                ++stats.rasReports;
                result = judge(i, {PoisonClass::Free, page, 0, 0, before,
                                   {}},
                               monitor.handleMachineCheck(page));
                break;
              }
              case 3: {
                // Poison lands under the patrol head mid-scan
                // (ras.poison_scrub); the patrol itself must detect
                // and report it within a few batches.
                op_name = "ras.scrub";
                if (monitor.rasFatal())
                    break;
                if (rng.chance(0.5)) {
                    injector.armNth("ras.poison_scrub",
                                    1 + rng.below(64));
                }
                for (unsigned b = 0; b < 4 && !stats.failed; ++b) {
                    const auto hit = scrub->step();
                    if (!hit)
                        continue;
                    const auto before = live();
                    const DomainId owner = ownerOf(*hit).value_or(0);
                    ++stats.rasReports;
                    const auto mc = monitor.handleMachineCheck(*hit);
                    if (!mc.ok) {
                        result = MonitorResult::fail(mc.code, mc.error);
                        break;
                    }
                    if (const Verdict v = battery.blast(before, owner)) {
                        ++stats.rasBlastViolations;
                        fail(i, v.what);
                        break;
                    }
                    resnap();
                }
                break;
              }
              case 4: {
                // Rare, late: poison the monitor's private state. The
                // only sound containment is a whole-host degrade —
                // every later mutating call must be a typed RasFatal
                // denial while reads and audits stay up.
                op_name = "ras.monitor";
                if (monitor.rasFatal() || i < config.ops * 3 / 4 ||
                    !rng.chance(0.1)) {
                    break;
                }
                const MonitorConfig &mcfg = monitor.config();
                Addr page = 0;
                for (unsigned attempt = 0; attempt < 8 && !page;
                     ++attempt) {
                    const Addr cand =
                        mcfg.monitorBase +
                        rng.below(mcfg.monitorSize / kPageSize) *
                            kPageSize;
                    bool table_frame = false;
                    for (DomainId id : live()) {
                        const PmpTable *t = monitor.tablePeek(id);
                        if (t && t->isTablePage(cand))
                            table_frame = true;
                    }
                    if (!table_frame && !monitor.pageQuarantined(cand))
                        page = cand;
                }
                if (!page)
                    break;
                smp.mem().poisonPage(page);
                ++stats.rasPoisons;
                const auto before = live();
                ++stats.rasReports;
                result = judge(i, {PoisonClass::Monitor, page, 0, 0,
                                   before, {}},
                               monitor.handleMachineCheck(page));
                break;
              }
              default: {
                // Poison inside a suspended (mid-migration) domain:
                // containment must still work — the migration is dead
                // either way, and only the owner may go.
                op_name = "ras.suspended";
                if (monitor.rasFatal())
                    break;
                const DomainId victim = pick_domain(false);
                if (victim == 0)
                    break;
                const Addr page = pickPoisonPage(victim);
                if (!page)
                    break;
                const MonitorResult sus = monitor.suspendDomain(victim);
                if (!sus.ok) {
                    result = sus;
                    break;
                }
                resnap();
                smp.mem().poisonLine(page);
                ++stats.rasPoisons;
                const auto before = live();
                ++stats.rasReports;
                // A failed report leaves the domain suspended: the
                // patrol scrubber re-finds the poison and finishes.
                result = judge(i, {PoisonClass::Data, page, victim, 0,
                                   before, {}},
                               monitor.handleMachineCheck(page));
                break;
              }
            }
        } else if (roll < 94) {
            op_name = "dma";
            ++stats.dmaOps;
            const unsigned master = unsigned(rng.below(2));
            const Addr window = windowOf(master);
            const Addr src = window + rng.below(64) * kPageSize;
            const Addr dst =
                window + kWindowSize / 2 + rng.below(64) * kPageSize;
            DmaEngine &dma = master == 0 ? dma0 : dma1;
            const auto xfer =
                dma.transfer(src, dst, 256 + rng.below(4) * 256);
            if (xfer.busWaitCycles != 0) {
                ++stats.dmaBusWaits;
                stats.dmaBusWaitCycles += xfer.busWaitCycles;
            }
            if (xfer.machineCheck && rasLayer) {
                // A beat consumed poison: the engine failed closed;
                // route the machine check to the monitor like the
                // platform firmware would.
                ++stats.rasMachineChecks;
                ++stats.rasReports;
                const auto mc =
                    monitor.handleMachineCheck(xfer.faultAddr);
                if (!mc.ok)
                    result = MonitorResult::fail(mc.code, mc.error);
            }
            if (rng.chance(0.25))
                iopmp.flushCaches();
        } else if (osLayer) {
            // satp rewrite: the remote-fence path that is not a
            // monitor call (satellite of the shootdown protocol).
            op_name = "os.satp";
            ++stats.osOps;
            smp.hart(initiator).setSatp(
                spaces[initiator]->rootPa(),
                kernels[initiator]->config().pagingMode);
        } else if (virtLayer) {
            // vsatp rewrite with an unchanged root: the guest twin of
            // os.satp — drives the hfence shootdown outside any
            // monitor call.
            op_name = "virt.vsatp";
            ++stats.virtOps;
            smp.virtHart(initiator).setVsatp(
                guests[initiator].gpt->rootPa());
        } else {
            op_name = "switchTo";
            result = monitor.switchTo(pick_domain(true));
        }
        injector.clearPlans(); // disarm anything that did not fire

        // ---- audit the outcome with the check battery ---------------
        ++stats.ops;
        Verdict v;
        if (result.ok) {
            ++stats.okOps;
            if (result.degraded)
                ++stats.degradedOps;
        } else {
            ++stats.failedOps;
            if (result.code == MonitorError::InjectedFault)
                ++stats.injectedFaults;
            if (result.code == MonitorError::None) {
                fail(i, "failed without an error code: " + result.error);
                break;
            }
            if (digest_checked) {
                ++stats.rollbackChecks;
                v = battery.rollback();
                v.what += std::string(" (") + toString(result.code) + ": " +
                          result.error + ")";
            }
        }
        if (!v && i % 4 == 0) {
            ++stats.convergenceChecks;
            v = battery.convergence();
        }
        if (!v)
            v = battery.stale();
        if (!v)
            v = battery.nestedCall();
        if (!v)
            v = battery.windowsClosed();
        if (!v) {
            ++stats.invariantChecks;
            v = battery.invariants();
        }
        if (v) {
            fail(i, v.kind + ": " + v.what);
            break;
        }

        // RAS campaigns: one patrol batch between every op — latent
        // poison the consumers have not tripped over (failed reports,
        // suspended victims) is found and contained within a lap. Runs
        // after the audits: its containments belong to the *next* op's
        // oracle snapshot.
        if (rasLayer && !stats.failed) {
            op_name = "ras.patrol";
            if (const auto hit = scrub->step()) {
                const auto before = live();
                const DomainId owner = ownerOf(*hit).value_or(0);
                ++stats.rasReports;
                const auto mc = monitor.handleMachineCheck(*hit);
                if (mc.ok) {
                    if (const Verdict bv = battery.blast(before, owner)) {
                        ++stats.rasBlastViolations;
                        fail(i, bv.what);
                    }
                } else if (mc.code != MonitorError::RasFatal) {
                    fail(i, "patrol report failed: " + mc.error);
                }
            }
            if (stats.failed)
                break;
        }
    }

    injector.disable();
    smp.setInterleaveHook(nullptr);

    stats.ipiShootdowns = monitor.stats().get("ipi_shootdowns");
    stats.ipiLost = monitor.stats().get("ipi_lost");
    stats.lockContended = hook.contended();
    stats.staleProbes = checker.probesRun();
    stats.preAckStaleHits = checker.preAckStaleHits();
    stats.postAckViolations = checker.postAckViolations();
    if (fleetLayer)
        stats.coalescedWindows = monitor.stats().get("coalesced_windows");
    if (virtLayer) {
        // Monitor-call fences and direct vsatp/hgatp fences both count.
        stats.hfenceShootdowns = monitor.stats().get("hfence_shootdowns") +
                                 smp.stats().get("hfence_shootdowns");
        stats.virtStaleProbes = checker.virtProbesRun();
        stats.virtPreAckStaleHits = checker.virtPreAckStaleHits();
        stats.staleExecGrants = checker.staleExecGrants();
        stats.staleRwGrants = checker.staleRwGrants();
    }
    if (rasLayer) {
        stats.rasQuarantines = monitor.stats().get("ras.quarantines");
        stats.rasContained =
            monitor.stats().get("ras.contained_domains");
        stats.rasHeals = monitor.stats().get("ras.heals");
        stats.rasFatalEvents = monitor.stats().get("ras.fatal");
        stats.scrubPagesScanned = scrub->pagesScanned();
        stats.scrubDetections = scrub->detections();
        // A whole-host degrade is only legal when the campaign planted
        // monitor-region poison (or a rebuild ran out of frames) —
        // anything else means containment escalated past its class.
        const Verdict fatal = battery.unexpectedFatal();
        if (fatal && !stats.failed) {
            ++stats.rasBlastViolations;
            stats.failed = true;
            stats.failure = "seed " + std::to_string(config.seed) + ": " +
                            fatal.what;
        }
    }

    if (sampler) {
        sampler->sample(campaign_cycles());
        *config.statsSeriesOut = sampler->dumpJson();
    }
    if (config.statsJsonOut) {
        StatRegistry registry;
        register_all(registry);
        *config.statsJsonOut = registry.dumpJson();
    }
    return stats;
}

} // namespace hpmp
