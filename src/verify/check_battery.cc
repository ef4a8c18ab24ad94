#include "verify/check_battery.h"

#include "migrate/migration.h"
#include "monitor/invariants.h"
#include "pmpt/pmp_table.h"

namespace hpmp
{

ProbeHook::ProbeHook(SmpSystem &smp, SecureMonitor &monitor,
                     StaleChecker &checker, ProbeChoice choose)
    : smp_(smp), monitor_(monitor), checker_(checker),
      choose_(std::move(choose))
{
}

void
ProbeHook::onIpiStep(const IpiEvent &event)
{
    checker_.onIpiStep(event);
    switch (event.phase) {
      case IpiPhase::WindowBegin:
        ++openWindows_;
        return;
      case IpiPhase::WindowEnd:
        --openWindows_;
        return;
      case IpiPhase::Posted:
      case IpiPhase::Delivered:
        // Both run inside a monitor transaction (the satp fence path
        // takes no lock, so its SatpFence steps are never probed).
        break;
      default:
        return;
    }
    if (!violation_.empty() || !choose_(event))
        return;
    // The initiator holds the global monitor lock, so a nested call
    // from the victim hart must bounce before touching any state.
    const unsigned saved = smp_.currentHart();
    smp_.setCurrentHart(event.dstHart);
    const MonitorResult r = monitor_.switchTo(monitor_.currentDomain());
    smp_.setCurrentHart(saved);
    if (r.ok || r.code != MonitorError::LockContended) {
        violation_ = "nested switchTo from hart " +
                     std::to_string(event.dstHart) + " at " +
                     toString(event.phase) +
                     " did not bounce LockContended (got " +
                     std::string(r.ok ? "ok" : toString(r.code)) + ")";
        return;
    }
    ++contended_;
}

CheckBattery::CheckBattery(SecureMonitor &monitor, StaleChecker *checker,
                           const ProbeHook *hook)
    : monitor_(monitor), checker_(checker), hook_(hook),
      pre_(monitor.smp() ? monitor.smp()->numHarts() : 1, 0)
{
}

void
CheckBattery::snapshot()
{
    for (unsigned h = 0; h < pre_.size(); ++h)
        pre_[h] = monitor_.hartStateDigest(h);
}

Verdict
CheckBattery::rollback() const
{
    for (unsigned h = 0; h < pre_.size(); ++h) {
        if (monitor_.hartStateDigest(h) != pre_[h]) {
            return {"rollback_divergence",
                    "hart " + std::to_string(h) +
                        " digest changed across a failed call"};
        }
    }
    return {};
}

Verdict
CheckBattery::convergence() const
{
    // include_virt=false: per-hart guests legitimately run their own
    // tables — only the host view must converge. include_csr_counter=
    // false: coalesced windows fence siblings with one net diff, so
    // write counters diverge legitimately; register contents must not.
    const uint64_t ref = monitor_.hartStateDigest(0, false, false);
    for (unsigned h = 1; h < pre_.size(); ++h) {
        if (monitor_.hartStateDigest(h, false, false) != ref) {
            return {"convergence_divergence",
                    "hart " + std::to_string(h) +
                        " diverged from hart 0 outside a shootdown "
                        "window"};
        }
    }
    return {};
}

Verdict
CheckBattery::stale()
{
    // The checker may have tripped mid-window; either way a quiescent
    // sweep must be clean.
    if (!checker_->failed())
        checker_->checkQuiescent();
    if (checker_->failed())
        return {"stale_checker", checker_->failure()};
    return {};
}

Verdict
CheckBattery::nestedCall() const
{
    if (!hook_->violation().empty())
        return {"nested_call", hook_->violation()};
    return {};
}

Verdict
CheckBattery::windowsClosed() const
{
    if (hook_->openWindows() != 0)
        return {"unclosed_window", "shootdown window still open"};
    return {};
}

Verdict
CheckBattery::invariants() const
{
    const std::string violation = checkIsolationInvariants(monitor_);
    if (!violation.empty())
        return {"invariant", violation};
    return {};
}

Verdict
CheckBattery::containment(const PoisonReport &p,
                          const MonitorValue<RasOutcome> &outcome,
                          const std::function<uint64_t()> &attestNonce,
                          const std::function<DomainId()> &probeDomain)
{
    const RasOutcome got = outcome.value;
    auto wrong = [&](const char *kind, const char *what) {
        return Verdict{kind, std::string(what) + " resolved as " +
                                 toString(got)};
    };
    const bool retired = monitor_.pageQuarantined(p.page);
    DomainId victim = 0;
    switch (p.cls) {
      case PoisonClass::Data:
        if (got != RasOutcome::ContainedDomain)
            return wrong("blast_radius", "data-page poison");
        if (monitor_.domainExists(p.victim))
            return {"blast_radius", "victim survived its own containment"};
        if (!retired)
            return {"quarantine", "contained frame was not retired"};
        victim = p.victim;
        break;
      case PoisonClass::Pmpte: {
        if (got == RasOutcome::HostFatal) {
            // Legal escalation: out of fresh table frames mid-rebuild.
            rasFatalExpected_ = true;
            break;
        }
        if (got != RasOutcome::HealedTable)
            return wrong("heal", "pmpte poison");
        const PmpTable *healed = monitor_.tablePeek(p.victim);
        if (!monitor_.domainExists(p.victim) || !healed)
            return {"heal", "self-heal lost the healed domain"};
        if (healed->rootPa() == p.oldRoot)
            return {"heal", "healed table still points at the old root"};
        if (!retired)
            return {"quarantine", "healed frame was not retired"};
        if (monitor_.domainMigrating(p.victim))
            break; // a suspended domain has no attestable state
        // The rebuilt table must produce the same verifiable report a
        // fresh enrolment would.
        const uint64_t nonce = attestNonce();
        const auto post = monitor_.attestDomain(p.victim, nonce);
        if (p.preReport &&
            (!p.preReport->ok || !post.ok ||
             post.value.measurement != p.preReport->value.measurement)) {
            return {"heal", "self-heal changed the measurement"};
        }
        if (post.ok && !monitor_.attestor().verify(post.value, nonce))
            return {"heal", "post-heal report does not verify"};
        break;
      }
      case PoisonClass::Free:
        if (got != RasOutcome::QuarantinedFree)
            return wrong("blast_radius", "free-frame poison");
        if (!retired)
            return {"quarantine", "free frame was not retired"};
        break;
      case PoisonClass::Monitor: {
        if (got != RasOutcome::HostFatal)
            return wrong("ras_fatal", "monitor-page poison");
        rasFatalExpected_ = true;
        if (!monitor_.rasFatal())
            return {"ras_fatal", "HostFatal did not latch rasFatal"};
        // Degrade, not crash: every mutating call is now a typed
        // denial while reads and audits stay up.
        const MonitorResult denied = monitor_.switchTo(probeDomain());
        if (denied.ok || denied.code != MonitorError::RasFatal) {
            return {"ras_fatal", "mutating call after host degrade was "
                                 "not a typed RasFatal denial"};
        }
        break;
      }
    }
    return blast(p.before, victim);
}

Verdict
CheckBattery::blast(const std::vector<DomainId> &before,
                    DomainId victim) const
{
    for (const DomainId id : before) {
        if (id != victim && !monitor_.domainExists(id)) {
            return {"blast_radius", "containment destroyed bystander "
                                    "domain " + std::to_string(id)};
        }
    }
    return {};
}

Verdict
CheckBattery::unexpectedFatal() const
{
    if (monitor_.rasFatal() && !rasFatalExpected_) {
        return {"ras_fatal",
                "host degraded without a monitor-region poison event"};
    }
    return {};
}

Verdict
auditMigration(const MigrateResult &res, const SecureMonitor &src,
               DomainId id, const SecureMonitor &dst)
{
    const std::string phase =
        std::string(" (phase ") + toString(res.failedPhase) + ")";
    if (res.ok) {
        if (src.domainExists(id)) {
            return {"commit_state",
                    "committed migration left the domain on the source"};
        }
        if (!dst.domainGrantable(res.destId)) {
            return {"commit_state", "committed migration left the "
                                    "destination not granting"};
        }
    } else if (res.committed || res.stranded) {
        // Stranded: the source is gone and the domain sits staged
        // (suspended) on the destination, granted nowhere.
        if (src.domainExists(id) ||
            (res.destId != 0 && dst.domainGrantable(res.destId))) {
            return {"stranded_grant",
                    "stranded migration has a live grant" + phase};
        }
        if (!dst.domainMigrating(res.destId)) {
            return {"stranded_grant", "stranded domain is not staged on "
                                      "the destination" + phase};
        }
    } else if (res.sourcePostDigest != res.sourcePreDigest) {
        return {"abort_digest", "aborted migration did not restore the "
                                "source digest" + phase + ": " + res.error};
    } else if (!src.domainGrantable(id)) {
        return {"abort_grantable", "aborted migration left the domain not "
                                   "grantable on the source" + phase};
    }
    return {};
}

} // namespace hpmp
