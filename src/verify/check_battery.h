/**
 * @file
 * The isolation oracle both fuzz-and-check drivers judge with.
 *
 * The chaos campaigns (verify/chaos_engine.h) sample the op, fault and
 * interleaving space; the model checker (verify/harness.h) enumerates
 * it. Both install the same interleave hook and run the same checks,
 * so the sampler and the prover cannot disagree about what counts as
 * an isolation failure:
 *
 *  - ProbeHook forwards every IPI protocol step to the stale checker,
 *    tracks whether each shootdown window opened and closed, and at
 *    Posted/Delivered steps — when the driver's probe choice says so —
 *    fires a nested monitor call from the victim hart, which must
 *    bounce with LockContended and change nothing.
 *  - CheckBattery holds every check: per-hart rollback digests,
 *    all-hart convergence, the stale checker's in-window and quiescent
 *    verdicts, the nested-call verdict, window closure, the isolation
 *    invariants, the RAS containment audit (DESIGN.md §15) and the
 *    migration outcome audit (DESIGN.md §12).
 *
 * Every check returns a Verdict. Each driver keeps its own schedule of
 * which checks run when, and its own way of reporting a tripped one.
 */

#ifndef HPMP_VERIFY_CHECK_BATTERY_H
#define HPMP_VERIFY_CHECK_BATTERY_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/smp.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"

namespace hpmp
{

struct MigrateResult;

/** Outcome of one check. Converts to true when the check tripped. */
struct Verdict
{
    /** Stable violation id ("stale_checker", ...); empty = clean. */
    std::string kind;
    std::string what; //!< human-readable account
    explicit operator bool() const { return !kind.empty(); }
};

/**
 * The interleave hook both drivers install: stale checker at every
 * step, window balance, and nested-call probes from victim harts.
 */
class ProbeHook : public InterleaveHook
{
  public:
    /** Whether to probe at this Posted/Delivered step. */
    using ProbeChoice = std::function<bool(const IpiEvent &)>;

    ProbeHook(SmpSystem &smp, SecureMonitor &monitor,
              StaleChecker &checker, ProbeChoice choose);
    ProbeHook(const ProbeHook &) = delete;
    ProbeHook &operator=(const ProbeHook &) = delete;

    void onIpiStep(const IpiEvent &event) override;

    int openWindows() const { return openWindows_; }
    uint64_t contended() const { return contended_; }
    /** First nested call that did not bounce; empty = none. */
    const std::string &violation() const { return violation_; }

  private:
    SmpSystem &smp_;
    SecureMonitor &monitor_;
    StaleChecker &checker_;
    ProbeChoice choose_;
    int openWindows_ = 0;
    uint64_t contended_ = 0;
    std::string violation_;
};

/** Blast-radius class of one poison event (DESIGN.md §15). */
enum class PoisonClass : uint8_t
{
    Data,    //!< a data page of one domain's exclusive GMS
    Pmpte,   //!< a pmpte frame of a live PMP Table
    Free,    //!< a frame no domain owns
    Monitor, //!< a monitor-private page
};

/** What one machine-check report is judged against. */
struct PoisonReport
{
    PoisonClass cls = PoisonClass::Free;
    Addr page = 0;       //!< the poisoned page
    DomainId victim = 0; //!< Data/Pmpte: the owning domain
    Addr oldRoot = 0;    //!< Pmpte: the table root before the report
    std::vector<DomainId> before; //!< live domains before the report
    /** Pmpte: a report taken before the poison; a heal must keep its
     *  measurement. Unset = only check that a fresh report verifies. */
    std::optional<MonitorValue<AttestationReport>> preReport;
};

class CheckBattery
{
  public:
    /** checker/hook may be null for drivers that run no shootdowns. */
    explicit CheckBattery(SecureMonitor &monitor,
                          StaleChecker *checker = nullptr,
                          const ProbeHook *hook = nullptr);

    // ---- per-op checks --------------------------------------------

    /** Record every hart's rollback digest (before a call). */
    void snapshot();
    /**
     * Every hart's digest equals its snapshot (after a failed call).
     * The digest folds the quarantine set, every domain and every
     * table root, so it also proves that a failed RAS containment
     * left the frame, the victim and its table alone.
     */
    Verdict rollback() const;
    /** Outside a window every hart's host view equals hart 0's. */
    Verdict convergence() const;
    /** No in-window stale grant, and a clean quiescent sweep. */
    Verdict stale();
    /** Every nested call from inside a window bounced. */
    Verdict nestedCall() const;
    /** Every shootdown window that opened also closed. */
    Verdict windowsClosed() const;
    Verdict invariants() const;

    // ---- RAS containment audit ------------------------------------

    /**
     * A contained report matches its class's expected outcome.
     * `attestNonce` gives the nonce of the post-heal attestation
     * report; `probeDomain` names the domain the post-degrade
     * mutating-call probe aims at. Each runs only when needed.
     */
    Verdict containment(const PoisonReport &report,
                        const MonitorValue<RasOutcome> &outcome,
                        const std::function<uint64_t()> &attestNonce,
                        const std::function<DomainId()> &probeDomain);
    /** Every domain in `before` except `victim` still exists (0 =
     *  no victim: the host domain is never contained). */
    Verdict blast(const std::vector<DomainId> &before,
                  DomainId victim) const;
    /** The host degraded only after an event that may degrade it. */
    Verdict unexpectedFatal() const;

  private:
    SecureMonitor &monitor_;
    StaleChecker *checker_;
    const ProbeHook *hook_;
    std::vector<uint64_t> pre_;
    bool rasFatalExpected_ = false;
};

/**
 * Migration outcome audit for one attempt to move `id` from `src` to
 * `dst`: a commit leaves the domain granted on the destination only, a
 * stranded commit leaves it staged there and granted nowhere, an abort
 * restores the source digest and leaves the domain grantable there.
 */
Verdict auditMigration(const MigrateResult &result,
                       const SecureMonitor &src, DomainId id,
                       const SecureMonitor &dst);

} // namespace hpmp

#endif // HPMP_VERIFY_CHECK_BATTERY_H
