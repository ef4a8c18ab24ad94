#include "verify/harness.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>

#include "base/addr.h"
#include "base/fault_inject.h"
#include "base/hash.h"
#include "base/logging.h"
#include "core/params.h"
#include "core/smp.h"
#include "migrate/migration.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "verify/check_battery.h"

namespace hpmp::verify
{

namespace
{

// ---- bounded-scenario geometry ------------------------------------
// Enclave regions live well above the monitor-private region (first
// 128 MiB) and are NAPOT so fast GMSs can use segment entries.
constexpr Addr kRegionBase = 256_MiB;
constexpr Addr kRegionStride = 64_MiB;

Addr
regionOf(unsigned enclave) // 1-based
{
    return kRegionBase + Addr(enclave - 1) * kRegionStride;
}

Addr
extraRegionOf(unsigned enclave)
{
    return regionOf(enclave) + 32_MiB;
}

uint64_t
napotPages(unsigned pages)
{
    uint64_t p = 1;
    while (p < pages)
        p <<= 1;
    return p;
}

// ---- the decision tap shared by all three nondeterminism sources --

struct PathController
{
    const std::vector<Decision> *forced = nullptr;
    std::vector<Decision> made;
    unsigned depthLimit = 0;
    unsigned faultBudget = 0;
    unsigned injectBudget = 0;
    unsigned faultsFired = 0;
    unsigned injectsDone = 0;
    bool truncated = false;
    bool divergence = false;
    std::string divergenceWhy;

    bool pastPrefix() const
    {
        return !forced || made.size() >= forced->size();
    }

    /**
     * Record one branch point and return the alternative to take:
     * the forced prefix's choice while replaying, the default
     * (alts[0]) beyond it. Single-alternative points are not
     * decisions and are not recorded.
     */
    unsigned
    choose(DecisionKind kind, const std::vector<unsigned> &alts,
           const std::string &label)
    {
        panic_if(alts.empty(), "decision point with no alternatives");
        if (alts.size() == 1)
            return alts[0];
        if (truncated)
            return alts[0];
        if (depthLimit != 0 && made.size() >= depthLimit) {
            truncated = true;
            return alts[0];
        }
        Decision d;
        d.kind = kind;
        d.numAlts = unsigned(alts.size());
        d.label = label;
        if (!pastPrefix() && !divergence) {
            const Decision &f = (*forced)[made.size()];
            if (f.kind != kind || f.numAlts != d.numAlts ||
                f.altIndex >= d.numAlts) {
                divergence = true;
                divergenceWhy =
                    "decision #" + std::to_string(made.size()) +
                    ": trace has " + std::string(toString(f.kind)) +
                    " " + std::to_string(f.altIndex) + "/" +
                    std::to_string(f.numAlts) + ", run offers " +
                    std::string(toString(kind)) + " ?/" +
                    std::to_string(d.numAlts);
                d.altIndex = 0;
            } else {
                d.altIndex = f.altIndex;
            }
        } else {
            d.altIndex = 0;
        }
        d.value = alts[d.altIndex];
        made.push_back(d);
        return d.value;
    }
};

const std::vector<unsigned> kBinaryAlts{0, 1};

// ---- one setup for every scenario ---------------------------------

/**
 * One model host: bare harts with the PMPTW cache off, so a hart's
 * complete modelled state is its HPMP register file (see the header
 * comment — the dedup-soundness requirement, not an optimization).
 * Built with the injector disabled: setup is outside the decision
 * space.
 */
struct ModelHost
{
    SmpSystem smp;
    SecureMonitor monitor;

    ModelHost(IsolationScheme scheme, unsigned harts)
        : smp(bareParams(), SmpParams{harts}),
          monitor(smp, configFor(scheme))
    {
        for (unsigned h = 0; h < harts; ++h) {
            smp.hart(h).setPriv(PrivMode::Supervisor);
            smp.hart(h).setBare();
        }
        FaultInjector::instance().disable();
    }

    static MachineParams
    bareParams()
    {
        MachineParams mp = rocketParams();
        mp.pmptwEntries = 0;
        return mp;
    }

    static MonitorConfig
    configFor(IsolationScheme scheme)
    {
        MonitorConfig mc;
        mc.scheme = scheme;
        return mc;
    }
};

/**
 * The decision taps of one path: the controller replaying `forced`,
 * and the injector's fault-decision controller branching every hit of
 * the config's branchable sites while the fault budget lasts. The
 * injector is process-global, so the destructor disables it.
 */
struct PathTaps
{
    PathController ctl;
    std::set<std::string> branchSites;
    bool faultFiredThisOp = false;

    PathTaps(const ModelConfig &cfg, const std::vector<Decision> *forced,
             unsigned injectBudget)
    {
        ctl.forced = forced;
        ctl.depthLimit = cfg.depthLimit;
        ctl.faultBudget = cfg.faultBranch ? cfg.maxFaults : 0;
        ctl.injectBudget = injectBudget;
        for (const std::string &site : cfg.effectiveSites())
            branchSites.insert(site);
        FaultInjector &inj = FaultInjector::instance();
        inj.enable(1);
        inj.setDecisionController([this](const char *site) {
            if (ctl.faultsFired >= ctl.faultBudget ||
                branchSites.find(site) == branchSites.end() ||
                ctl.choose(DecisionKind::Fault, kBinaryAlts, site) != 1) {
                return false;
            }
            ++ctl.faultsFired;
            faultFiredThisOp = true;
            return true;
        });
    }
    ~PathTaps() { FaultInjector::instance().disable(); }
    PathTaps(const PathTaps &) = delete;
    PathTaps &operator=(const PathTaps &) = delete;

    /** New transitions: the decisions made past the forced prefix. */
    uint64_t
    newDecisions() const
    {
        return ctl.pastPrefix()
                   ? ctl.made.size() -
                         (ctl.forced ? ctl.forced->size() : 0)
                   : 0;
    }

    /** Hand the recorded path over to `out`. */
    void
    finish(RunOutcome &out)
    {
        out.decisions = std::move(ctl.made);
        out.truncated = ctl.truncated;
        out.divergence = ctl.divergence;
        out.divergenceWhy = ctl.divergenceWhy;
    }
};

// ---- the monitor-call script --------------------------------------

enum class OpKind : uint8_t
{
    Switch,
    SetPerm,
    AddGms,
    RemoveGms,
    SetLabel,
    Share,
    Access,
};

struct ScriptOp
{
    OpKind kind = OpKind::Access;
    unsigned dom = 0;  //!< domain index (0 = host, 1.. = enclaves)
    unsigned peer = 0; //!< Share: receiving domain index
    Addr addr = 0;
    uint64_t size = 0;
    Perm perm;
    GmsLabel label = GmsLabel::Slow;
    AccessType type = AccessType::Load;
    const char *name = "?";
    /** State-invisible op (pure access on a bare hart): eligible for
     *  the sleep-set-style scheduling merge. */
    bool local = false;
};

std::vector<std::vector<ScriptOp>>
buildCoreScript(const ModelConfig &cfg)
{
    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    const Addr pageA = regionOf(1);
    const unsigned last = cfg.domains;
    const Addr pageLast = regionOf(last);

    std::vector<std::vector<ScriptOp>> script(cfg.harts);

    auto access = [](Addr a, AccessType t, const char *n) {
        ScriptOp op;
        op.kind = OpKind::Access;
        op.addr = a;
        op.type = t;
        op.name = n;
        op.local = true;
        return op;
    };

    // Hart 0: the initiator-heavy path — switch in, revoke a
    // permission (the stale-grant workhorse), share + unshare.
    {
        auto &s = script[0];
        ScriptOp sw;
        sw.kind = OpKind::Switch;
        sw.dom = 1;
        sw.name = "switch_d1";
        s.push_back(sw);

        ScriptOp sp;
        sp.kind = OpKind::SetPerm;
        sp.dom = 1;
        sp.addr = pageA;
        sp.perm = Perm::ro();
        sp.name = "revoke_w_A";
        s.push_back(sp);

        s.push_back(access(pageA, AccessType::Store, "store_A"));

        if (cfg.domains >= 2) {
            ScriptOp sh;
            sh.kind = OpKind::Share;
            sh.dom = 1;
            sh.peer = 2;
            sh.addr = pageA;
            sh.perm = Perm::ro();
            sh.name = "share_A_d2";
            s.push_back(sh);

            ScriptOp rm;
            rm.kind = OpKind::RemoveGms;
            rm.dom = 2;
            rm.addr = pageA;
            rm.name = "unshare_A_d2";
            s.push_back(rm);
        } else {
            ScriptOp ad;
            ad.kind = OpKind::AddGms;
            ad.dom = 1;
            ad.addr = extraRegionOf(1);
            ad.size = gmsBytes;
            ad.perm = Perm::rw();
            ad.name = "add_extra";
            s.push_back(ad);

            ScriptOp rm;
            rm.kind = OpKind::RemoveGms;
            rm.dom = 1;
            rm.addr = extraRegionOf(1);
            rm.name = "remove_extra";
            s.push_back(rm);
        }
    }

    // Hart 1: a victim that also initiates — reads the revoked page,
    // switches domains, relabels.
    if (cfg.harts >= 2) {
        auto &s = script[1];
        s.push_back(access(pageA, AccessType::Load, "load_A"));

        ScriptOp sw;
        sw.kind = OpKind::Switch;
        sw.dom = last;
        sw.name = "switch_last";
        s.push_back(sw);

        s.push_back(access(pageLast, AccessType::Store, "store_last"));

        ScriptOp sl;
        sl.kind = OpKind::SetLabel;
        sl.dom = last;
        sl.addr = pageLast;
        sl.label = GmsLabel::Slow;
        sl.name = "relabel_last";
        s.push_back(sl);
    }

    // Further harts: light probes + a switch, to scale interleavings.
    for (unsigned h = 2; h < cfg.harts; ++h) {
        auto &s = script[h];
        s.push_back(access(pageA, AccessType::Load, "load_A"));
        ScriptOp sw;
        sw.kind = OpKind::Switch;
        sw.dom = (h % cfg.domains) + 1;
        sw.name = "switch_mod";
        s.push_back(sw);
        s.push_back(access(pageLast, AccessType::Load, "load_last"));
    }
    return script;
}

const std::vector<std::string> &
defaultCoreSites()
{
    static const std::vector<std::string> sites = {
        "monitor.add_gms", "monitor.remove_gms", "monitor.set_label",
        "monitor.set_perm", "monitor.share_gms", "monitor.switch",
        "smp.ipi_ack",     "smp.ipi_deliver",
    };
    return sites;
}

const std::vector<std::string> &
defaultMigrateSites()
{
    static const std::vector<std::string> sites = {
        "migrate.ack_lost",      "migrate.checkpoint_torn",
        "migrate.commit_crash",  "migrate.dest_attest",
        "migrate.frame_corrupt", "migrate.frame_drop",
        "migrate.frame_dup",
    };
    return sites;
}

const std::vector<std::string> &
defaultRasSites()
{
    // The two containment workhorses handleMachineCheck() delegates
    // to: branching them enumerates every failed-containment path, and
    // the harness then demands a bit-identical rollback.
    static const std::vector<std::string> sites = {
        "monitor.destroy_domain",
        "monitor.heal_table",
    };
    return sites;
}

} // namespace

std::vector<std::string>
ModelConfig::effectiveSites() const
{
    if (!faultSites.empty())
        return faultSites;
    if (script == "migrate")
        return defaultMigrateSites();
    if (script == "ras")
        return defaultRasSites();
    return defaultCoreSites();
}

std::vector<std::string>
ModelConfig::configLines() const
{
    std::vector<std::string> lines;
    lines.push_back("harts=" + std::to_string(harts));
    lines.push_back("domains=" + std::to_string(domains));
    lines.push_back("pages=" + std::to_string(pages));
    lines.push_back(std::string("scheme=") +
                    (scheme == IsolationScheme::Hpmp       ? "hpmp"
                     : scheme == IsolationScheme::PmpTable ? "pmpt"
                                                           : "pmp"));
    lines.push_back("script=" + script);
    lines.push_back("depth=" + std::to_string(depthLimit));
    lines.push_back("fault_branch=" + std::to_string(faultBranch ? 1 : 0));
    lines.push_back("max_faults=" + std::to_string(maxFaults));
    lines.push_back("max_injects=" + std::to_string(maxInjects));
    std::string sites;
    for (const std::string &s : effectiveSites()) {
        if (!sites.empty())
            sites += ",";
        sites += s;
    }
    lines.push_back("sites=" + sites);
    lines.push_back("mutate_skip_fence=" +
                    std::to_string(mutateSkipFenceNth));
    return lines;
}

bool
ModelConfig::applyConfigLine(const std::string &line, std::string &error)
{
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
        error = "config line without '=': " + line;
        return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    auto toU = [&](unsigned &out) {
        out = unsigned(std::strtoul(val.c_str(), nullptr, 0));
        return true;
    };
    if (key == "harts")
        return toU(harts);
    if (key == "domains")
        return toU(domains);
    if (key == "pages")
        return toU(pages);
    if (key == "depth")
        return toU(depthLimit);
    if (key == "max_faults")
        return toU(maxFaults);
    if (key == "max_injects")
        return toU(maxInjects);
    if (key == "fault_branch") {
        faultBranch = val != "0";
        return true;
    }
    if (key == "mutate_skip_fence") {
        mutateSkipFenceNth = std::strtoull(val.c_str(), nullptr, 0);
        return true;
    }
    if (key == "script") {
        script = val;
        return true;
    }
    if (key == "scheme") {
        if (val == "hpmp") {
            scheme = IsolationScheme::Hpmp;
        } else if (val == "pmpt") {
            scheme = IsolationScheme::PmpTable;
        } else if (val == "pmp") {
            scheme = IsolationScheme::Pmp;
        } else {
            error = "unknown scheme '" + val + "'";
            return false;
        }
        return true;
    }
    if (key == "sites") {
        faultSites.clear();
        std::istringstream ss(val);
        std::string site;
        while (std::getline(ss, site, ','))
            if (!site.empty())
                faultSites.push_back(site);
        return true;
    }
    error = "unknown config key '" + key + "'";
    return false;
}

namespace
{

RunOutcome
runCorePath(const ModelConfig &cfg, const std::vector<Decision> *forced,
            StateSet *visited)
{
    panic_if(cfg.harts < 2, "core scenario wants >= 2 harts");
    panic_if(cfg.domains < 1, "core scenario wants >= 1 domain");
    RunOutcome out;

    ModelHost host(cfg.scheme, cfg.harts);
    SmpSystem &smp = host.smp;
    SecureMonitor &monitor = host.monitor;

    // ---- deterministic setup, outside the decision space ----------
    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    std::vector<DomainId> dom(cfg.domains + 1, 0);
    for (unsigned i = 1; i <= cfg.domains; ++i) {
        dom[i] = monitor.createDomain();
        const MonitorResult r = monitor.addGms(
            dom[i],
            {regionOf(i), gmsBytes, Perm::rw(), GmsLabel::Fast});
        panic_if(!r.ok, "model setup addGms failed: %s",
                 r.error.c_str());
    }
    if (cfg.mutateSkipFenceNth != 0)
        monitor.testSkipFenceNth(cfg.mutateSkipFenceNth);

    StaleChecker checker(smp, monitor);
    for (unsigned h = 0; h < cfg.harts; ++h) {
        checker.addWatch({h, regionOf(1), regionOf(1),
                          AccessType::Store, true});
        checker.addWatch({h, regionOf(1), regionOf(1),
                          AccessType::Load, true});
        if (cfg.domains >= 2) {
            checker.addWatch({h, regionOf(cfg.domains),
                              regionOf(cfg.domains), AccessType::Load,
                              true});
        }
    }

    PathTaps taps(cfg, forced, cfg.maxInjects);
    PathController &ctl = taps.ctl;

    // Inject decision: drive a nested call from the victim hart at
    // this Posted/Delivered step.
    ProbeHook hook(smp, monitor, checker, [&](const IpiEvent &event) {
        if (ctl.injectsDone >= ctl.injectBudget ||
            event.dstHart == event.srcHart) {
            return false;
        }
        const std::string label = std::string(toString(event.phase)) +
                                  "@h" + std::to_string(event.dstHart);
        if (ctl.choose(DecisionKind::Inject, kBinaryAlts, label) != 1)
            return false;
        ++ctl.injectsDone;
        return true;
    });
    smp.setInterleaveHook(&hook);
    CheckBattery battery(monitor, &checker, &hook);

    // ---- the interleaved script, driven through pickHart ----------
    const auto script = buildCoreScript(cfg);
    std::vector<size_t> pc(cfg.harts, 0);

    std::vector<unsigned> alts;
    smp.setSchedHook([&](unsigned) -> unsigned {
        return ctl.choose(DecisionKind::Sched, alts, "");
    });

    auto stateKey = [&]() {
        uint64_t key = monitor.stateDigest();
        for (unsigned h = 0; h < cfg.harts; ++h)
            key = fnvFold(key, monitor.hartStateDigest(h, false));
        for (size_t p : pc)
            key = fnvFold(key, p);
        key = fnvFold(key, ctl.faultsFired);
        key = fnvFold(key, ctl.injectsDone);
        return key;
    };

    unsigned opIndex = 0;
    auto violate = [&](const std::string &kind,
                       const std::string &desc) {
        out.violated = true;
        out.violation.kind = kind;
        out.violation.description = desc;
        out.violation.opIndex = opIndex;
        out.violation.stateDigest = stateKey();
        out.finalDigest = out.violation.stateDigest;
    };

    while (!out.violated && !ctl.truncated) {
        // Scheduling alternatives, with the sleep-set-style merge:
        // among pending harts whose next op is a state-invisible
        // Access, only the lowest id is explorable — local ops
        // commute with everything the state tracks (DESIGN.md §14).
        alts.clear();
        bool tookLocal = false;
        for (unsigned h = 0; h < cfg.harts; ++h) {
            if (pc[h] >= script[h].size())
                continue;
            if (script[h][pc[h]].local) {
                if (tookLocal) {
                    ++out.sleepMergedAlts;
                    continue;
                }
                tookLocal = true;
            }
            alts.push_back(h);
        }
        if (alts.empty())
            break;
        const unsigned hart = smp.pickHart();
        const ScriptOp &op = script[hart][pc[hart]++];
        ++opIndex;
        ++out.opsExecuted;
        smp.setCurrentHart(hart);
        taps.faultFiredThisOp = false;

        const bool monitorOp = op.kind != OpKind::Access;
        if (monitorOp)
            battery.snapshot();

        MonitorResult r;
        switch (op.kind) {
          case OpKind::Switch:
            r = monitor.switchTo(dom[op.dom]);
            break;
          case OpKind::SetPerm:
            r = monitor.setPerm(dom[op.dom], op.addr, op.perm);
            break;
          case OpKind::AddGms:
            r = monitor.addGms(dom[op.dom],
                               {op.addr, op.size, op.perm, op.label});
            break;
          case OpKind::RemoveGms:
            r = monitor.removeGms(dom[op.dom], op.addr);
            break;
          case OpKind::SetLabel:
            r = monitor.setLabel(dom[op.dom], op.addr, op.label);
            break;
          case OpKind::Share:
            r = monitor.shareGms(dom[op.dom], op.addr, dom[op.peer],
                                 op.perm);
            break;
          case OpKind::Access:
            // Outcome deliberately unjudged: fail-closed denials are
            // legal at any point; stale *grants* are the checker's
            // job, judged against its canonical oracle.
            smp.hart(hart).access(op.addr, op.type);
            break;
        }

        const std::string where = "h" + std::to_string(hart) + ":" +
                                  op.name + " (op #" +
                                  std::to_string(opIndex) + ")";

        // ---- the check battery, at every state ---------------------
        Verdict v = battery.nestedCall();
        if (!v)
            v = battery.windowsClosed();
        if (!v && monitorOp && !r.ok) {
            v = battery.rollback();
            v.what += std::string(" (") + toString(r.code) + ")";
        }
        if (!v && monitorOp && r.ok) {
            if (taps.faultFiredThisOp) {
                v = {"fault_swallowed", "an injected fault fired but the "
                                        "call committed ok"};
            } else {
                v = battery.convergence();
            }
        }
        if (!v)
            v = battery.stale();
        if (!v)
            v = battery.invariants();
        if (v) {
            violate(v.kind, v.what + " after " + where);
            break;
        }

        // ---- explicit-state dedup (new territory only) ------------
        if (ctl.pastPrefix() && !ctl.divergence) {
            ++out.newTransitions;
            if (visited != nullptr &&
                !visited->insert(stateKey()).second) {
                out.deduped = true;
                break;
            }
        }
    }

    taps.finish(out);
    if (!out.violated)
        out.finalDigest = stateKey();
    smp.setInterleaveHook(nullptr);
    smp.setSchedHook(nullptr);
    return out;
}

RunOutcome
runMigratePath(const ModelConfig &cfg,
               const std::vector<Decision> *forced)
{
    RunOutcome out;
    ModelHost srcHost(cfg.scheme, 1), dstHost(cfg.scheme, 1);
    SecureMonitor &src = srcHost.monitor;
    SecureMonitor &dst = dstHost.monitor;

    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    const DomainId d = src.createDomain();
    MonitorResult r = src.addGms(
        d, {regionOf(1), gmsBytes, Perm::rw(), GmsLabel::Fast});
    panic_if(!r.ok, "migrate setup addGms failed: %s", r.error.c_str());
    // A recognizable memory image so checkpoint verification bites.
    for (Addr a = regionOf(1); a < regionOf(1) + gmsBytes; a += 512)
        srcHost.smp.mem().write64(a, a ^ 0x5a5a5a5a5a5a5a5aULL);

    CrossSystemOracle oracle(src, dst);
    MigrateConfig mcfg;
    mcfg.maxRetries = 2;
    mcfg.backoffCycles = 50;
    mcfg.frameBytes = 16384;
    MigrationEngine engine(src, dst, mcfg, "migrate_verify");
    engine.setOracle(&oracle);

    PathTaps taps(cfg, forced, 0);
    const MigrateResult res = engine.migrate(d, /*nonce=*/1);
    ++out.opsExecuted;

    Verdict v;
    if (oracle.failed())
        v = {"dual_grant", oracle.failure()};
    else
        v = auditMigration(res, src, d, dst);

    out.newTransitions = taps.newDecisions();
    const unsigned faultsFired = taps.ctl.faultsFired;
    taps.finish(out);
    out.finalDigest = fnvFold(
        fnvFold(src.stateDigest(), dst.stateDigest()), faultsFired);
    if (v) {
        out.violated = true;
        out.violation.kind = v.kind;
        out.violation.description = v.what;
        out.violation.stateDigest = out.finalDigest;
    }
    return out;
}

RunOutcome
runRasPath(const ModelConfig &cfg, const std::vector<Decision> *forced)
{
    panic_if(cfg.domains < 1, "ras scenario wants >= 1 domain");
    RunOutcome out;

    ModelHost host(cfg.scheme, cfg.harts > 0 ? cfg.harts : 1);
    SmpSystem &smp = host.smp;
    SecureMonitor &monitor = host.monitor;

    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    std::vector<DomainId> dom(cfg.domains + 1, 0);
    for (unsigned i = 1; i <= cfg.domains; ++i) {
        dom[i] = monitor.createDomain();
        // Slow label: slow GMSs live in the PMP Table under both the
        // pmpt and hpmp schemes, so the pmpte-frame blast-radius class
        // exists everywhere tables exist.
        const MonitorResult r = monitor.addGms(
            dom[i],
            {regionOf(i), gmsBytes, Perm::rw(), GmsLabel::Slow});
        panic_if(!r.ok, "ras setup addGms failed: %s", r.error.c_str());
    }

    PathTaps taps(cfg, forced, 0);
    PathController &ctl = taps.ctl;
    CheckBattery battery(monitor);

    auto stateKey = [&]() {
        uint64_t key = monitor.stateDigest();
        key = fnvFold(key, monitor.quarantinedPages());
        key = fnvFold(key, monitor.rasFatal() ? 1 : 0);
        key = fnvFold(key, ctl.faultsFired);
        return key;
    };

    unsigned opIndex = 0;
    auto violate = [&](const std::string &kind,
                       const std::string &desc) {
        out.violated = true;
        out.violation.kind = kind;
        out.violation.description = desc;
        out.violation.opIndex = opIndex;
        out.violation.stateDigest = stateKey();
        out.finalDigest = out.violation.stateDigest;
    };

    // Two poison/report rounds so the post-containment state (healed
    // table, contained victim, degraded host) is itself poked again.
    for (unsigned round = 0; round < 2 && !out.violated && !ctl.truncated;
         ++round) {
        ++opIndex;
        const std::string rtag = "#r" + std::to_string(round);

        // The placement decision: which blast-radius class this
        // round's poison lands in. Alternatives derive from the live
        // state (a contained victim removes its data-page class).
        std::vector<unsigned> live, tabled;
        for (unsigned i = 1; i <= cfg.domains; ++i) {
            if (!monitor.domainExists(dom[i]))
                continue;
            live.push_back(i);
            const PmpTable *t = monitor.tablePeek(dom[i]);
            if (t != nullptr && !t->tablePages().empty())
                tabled.push_back(i);
        }
        std::vector<unsigned> classes;
        if (!live.empty())
            classes.push_back(0); // enclave data page
        if (!tabled.empty())
            classes.push_back(1); // pmpte frame of a live table
        classes.push_back(2);     // unowned free frame
        classes.push_back(3);     // monitor-private page
        const unsigned cls = ctl.choose(DecisionKind::Inject, classes,
                                        "ras_place" + rtag);

        PoisonReport report;
        report.cls = PoisonClass(cls);
        for (unsigned i : live)
            report.before.push_back(dom[i]);
        Addr target = 0;
        switch (report.cls) {
          case PoisonClass::Data: {
            const unsigned victim = ctl.choose(DecisionKind::Inject, live,
                                               "ras_victim" + rtag);
            report.victim = dom[victim];
            target = regionOf(victim) + 0x40;
            smp.mem().poisonLine(target);
            // Consume through a real access first when the victim can
            // run: the poisoned line must surface as a MachineCheck
            // naming the line, never as data.
            if (!monitor.rasFatal() && monitor.switchTo(report.victim).ok) {
                const AccessOutcome acc =
                    smp.hart(0).access(target, AccessType::Load);
                if (acc.fault != Fault::MachineCheck) {
                    violate("machine_check",
                            "load of a poisoned line returned " +
                                std::string(toString(acc.fault)) +
                                ", not MachineCheck");
                } else if ((acc.poisonAddr & ~Addr(63)) !=
                           (target & ~Addr(63))) {
                    violate("machine_check",
                            "machine check blamed the wrong line");
                }
            }
            break;
          }
          case PoisonClass::Pmpte: {
            const unsigned victim = ctl.choose(DecisionKind::Inject, tabled,
                                               "ras_victim" + rtag);
            report.victim = dom[victim];
            const PmpTable *table = monitor.tablePeek(report.victim);
            const std::vector<Addr> &frames = table->tablePages();
            std::vector<unsigned> frameAlts{0};
            if (frames.size() > 1)
                frameAlts.push_back(unsigned(frames.size() - 1));
            const unsigned fi = ctl.choose(
                DecisionKind::Inject, frameAlts, "ras_frame" + rtag);
            target = frames[fi] + 0x80;
            report.oldRoot = table->rootPa();
            report.preReport = monitor.attestDomain(report.victim, 7);
            smp.mem().poisonLine(target);
            break;
          }
          case PoisonClass::Free:
            // The same unowned frame every round, so a round-2 repeat
            // exercises cross-round AlreadyQuarantined idempotency.
            target = regionOf(cfg.domains + 1) + 0x200;
            smp.mem().poisonLine(target);
            break;
          case PoisonClass::Monitor: {
            // Highest non-table, non-quarantined monitor-private page
            // (pmpte frames bump-allocate from the low end).
            Addr page = monitor.config().monitorBase +
                        monitor.config().monitorSize;
            while (page > monitor.config().monitorBase) {
                page -= kPageSize;
                if (monitor.pageQuarantined(page))
                    continue;
                bool isTable = false;
                for (unsigned i : live) {
                    const PmpTable *t = monitor.tablePeek(dom[i]);
                    if (t != nullptr && t->isTablePage(page)) {
                        isTable = true;
                        break;
                    }
                }
                if (!isTable)
                    break;
            }
            target = page + 0x100;
            smp.mem().poisonLine(target);
            break;
          }
        }
        if (out.violated)
            break;

        report.page = target & ~Addr(kPageSize - 1);
        const bool fatalBefore = monitor.rasFatal();
        const bool quarBefore = monitor.pageQuarantined(report.page);
        battery.snapshot();

        ++out.opsExecuted;
        const MonitorValue<RasOutcome> mcv =
            monitor.handleMachineCheck(target);

        const std::string where =
            "ras class " + std::to_string(cls) + " (op #" +
            std::to_string(opIndex) + ")";
        Verdict v;
        if (quarBefore) {
            // Repeat report of a retired frame: an ok no-op always,
            // even after the host degraded.
            if (!mcv.ok || mcv.value != RasOutcome::AlreadyQuarantined) {
                v = {"quarantine", "repeat report of a retired frame was "
                                   "not an ok no-op"};
            } else if (battery.rollback()) {
                v = {"quarantine", "no-op repeat report changed the digest"};
            }
        } else if (fatalBefore) {
            // New reports after the whole-host degrade: typed RasFatal
            // denial, nothing mutated.
            if (mcv.ok || mcv.code != MonitorError::RasFatal) {
                v = {"ras_fatal", "report after host degrade was not a "
                                  "typed RasFatal denial"};
            } else if (battery.rollback()) {
                v = {"ras_rollback", "denied report changed the digest"};
            }
        } else if (!mcv.ok) {
            // An injected fault aborted containment: bit-identical
            // rollback (so the victim is intact, its table root
            // unmoved and the frame not retired).
            v = battery.rollback();
            if (v)
                v.kind = "ras_rollback";
        } else {
            v = battery.containment(
                report, mcv, []() { return uint64_t(7); },
                [&]() { return dom[1]; });
            if (!v && report.cls == PoisonClass::Free) {
                // Immediate idempotency probe.
                battery.snapshot();
                const MonitorValue<RasOutcome> again =
                    monitor.handleMachineCheck(target);
                if (!again.ok ||
                    again.value != RasOutcome::AlreadyQuarantined) {
                    v = {"quarantine", "re-report of a retired frame was "
                                       "not an ok no-op"};
                } else if (battery.rollback()) {
                    v = {"quarantine",
                         "no-op re-report changed the digest"};
                }
            }
        }
        if (!v)
            v = battery.invariants();
        if (v)
            violate(v.kind, v.what + " after " + where);
    }

    if (!out.violated) {
        if (const Verdict v = battery.unexpectedFatal())
            violate(v.kind, v.what);
    }

    out.newTransitions = taps.newDecisions();
    taps.finish(out);
    if (!out.violated)
        out.finalDigest = stateKey();
    return out;
}

} // namespace

RunOutcome
runPath(const ModelConfig &cfg, const std::vector<Decision> *forced,
        StateSet *visited)
{
    if (cfg.script == "migrate")
        return runMigratePath(cfg, forced);
    if (cfg.script == "ras")
        return runRasPath(cfg, forced);
    return runCorePath(cfg, forced, visited);
}

} // namespace hpmp::verify
