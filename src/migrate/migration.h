/**
 * @file
 * Whole-domain live migration engine (DESIGN.md §12).
 *
 * Moves a domain between two hosts (each a SecureMonitor over its own
 * SmpSystem) with a crash-consistent two-phase handoff:
 *
 *   Quiesce    — source switches away from the domain, captures the
 *                rollback baseline digest, then suspendDomain revokes
 *                every grant path (typed DomainMigrating from then on);
 *   Checkpoint — GMS list + raw memory + per-hart vCPU context +
 *                measurement + signed attestation report;
 *   Transfer   — the serialized image streams over a MsgChannel that
 *                can drop, duplicate or corrupt frames; every frame is
 *                retried with bounded backoff under a per-phase
 *                timeout, receivers dedup by seq and discard frames
 *                failing the end-to-end checksum;
 *   Stage      — destination re-creates the domain (same physical
 *                placement, its own PMP Table rebuilt from the GMS
 *                list) and immediately suspends it: staged, visible,
 *                not grantable;
 *   Verify     — destination independently re-measures the staged
 *                domain, requires digest equality with the checkpoint,
 *                and re-attests (its own report plus verification of
 *                the source's);
 *   Ack        — PREPARED travels dest -> source with bounded retry;
 *   Commit     — source destroyDomain is the point of no return, then
 *                COMMIT travels source -> dest (retried; a crash that
 *                loses every resend strands the domain staged on the
 *                destination — suspended, grantable nowhere, never
 *                granted twice);
 *   Resume     — destination resumeDomain activates the domain, hart
 *                contexts are re-applied (cold TLBs: satp/hgatp writes
 *                fence every sibling) and the domain is switched in.
 *
 * Any failure before Commit aborts: the staged destination copy is
 * destroyed and the source resumes, bit-identical to the pre-suspend
 * digest. The engine publishes every step to a CrossSystemOracle so
 * no interleaving can show both hosts granting at once.
 */

#ifndef HPMP_MIGRATE_MIGRATION_H
#define HPMP_MIGRATE_MIGRATION_H

#include <string>

#include "base/stats.h"
#include "migrate/checkpoint.h"
#include "migrate/msg_channel.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"

namespace hpmp
{

/** Protocol phases, in order; MigrateResult names the failing one. */
enum class MigratePhase : uint8_t
{
    Idle,
    Quiesce,
    Checkpoint,
    Transfer,
    Stage,
    Verify,
    Ack,
    Commit,
    Resume,
    Done,
};

const char *toString(MigratePhase phase);

/** Engine knobs: retry bounds, backoff, frame size, timeouts. */
struct MigrateConfig
{
    unsigned maxRetries = 4;       //!< per message (frame, ack, commit)
    uint64_t backoffCycles = 400;  //!< first retry wait; doubles per retry
    uint64_t frameBytes = 4096;    //!< payload bytes per transfer frame
    uint64_t cyclesPerFrame = 200; //!< modelled wire cost per frame sent
    /** Per-phase cycle budget; an overrun aborts the migration. */
    uint64_t phaseTimeoutCycles = 4'000'000;
    /** After commit: re-apply hart contexts and switch the domain in. */
    bool resumeOnDest = true;
    /**
     * Receive-side sequence-dedup window (frames). Bounds the
     * receiver's dedup state independently of totalFrames; frames at
     * or beyond base+window are rejected, not remembered
     * (MsgChannel SeqWindow).
     */
    uint64_t recvWindowFrames = 64;
    /**
     * chrome://tracing track ids stamped on this engine's span events
     * (DESIGN.md §13): source-side phases land on sourceSystemId,
     * stage/verify/resume on destSystemId, so one dump shows both
     * hosts of a migration on a shared timeline.
     */
    uint32_t sourceSystemId = 0;
    uint32_t destSystemId = 1;
};

/** Outcome of one migration attempt. */
struct MigrateResult
{
    bool ok = false;
    MigratePhase failedPhase = MigratePhase::Idle;
    MonitorError code = MonitorError::None; //!< when a monitor call failed
    std::string error;
    DomainId destId = 0;     //!< destination id (valid once staged)
    bool committed = false;  //!< source destroyed (point of no return)
    bool destActivated = false; //!< destination resumed the domain
    bool destSwitched = false;  //!< contexts applied + switched in
    /** committed but COMMIT lost for good: the domain sits staged
     *  (suspended) on the destination, granted nowhere. */
    bool stranded = false;
    uint64_t bytes = 0;   //!< serialized checkpoint size
    uint64_t retries = 0; //!< message retries across all phases
    uint64_t cycles = 0;  //!< total modelled protocol cycles
    /** Source digest captured after quiesce, before suspend. An abort
     *  must restore the source to exactly this value. */
    uint64_t sourcePreDigest = 0;
    /** Source digest after an abort's rollback (equals pre on every
     *  abort path; meaningless when committed). */
    uint64_t sourcePostDigest = 0;
};

class MigrationEngine
{
  public:
    /**
     * @param stat_prefix name of this engine's StatGroup ("migrate"
     *        by default; campaigns running two engines give the
     *        reverse direction a distinct prefix).
     */
    MigrationEngine(SecureMonitor &src, SecureMonitor &dst,
                    const MigrateConfig &config = {},
                    const std::string &stat_prefix = "migrate");

    /** Install (or clear) the cross-system dual-grant oracle. */
    void setOracle(CrossSystemOracle *oracle) { oracle_ = oracle; }

    /**
     * Migrate domain `id` from the source to the destination host.
     * `nonce` freshens both attestation reports. On failure the
     * result names the phase and the source is rolled back (unless
     * `committed`, after which the source copy is gone by design).
     */
    MigrateResult migrate(DomainId id, uint64_t nonce);

    MsgChannel &channel() { return channel_; }
    const MigrateConfig &config() const { return config_; }

    /**
     * "migrate.*" stats: attempt/commit/abort counters, transport
     * hazard counters, per-phase latency distributions, bytes moved.
     */
    StatGroup &stats() { return stats_; }
    void registerStats(StatRegistry &registry) { registry.add(&stats_); }

  private:
    struct Attempt; //!< per-migration working state (defined in .cc)

    /** Stream the serialized image; false = retries/timeout exhausted. */
    bool transferImage(Attempt &at, const std::vector<uint8_t> &image,
                       std::vector<uint8_t> &received);

    /** Deliver a control message (ack/commit) with bounded retry. */
    bool deliverControl(Attempt &at, const char *fault_site,
                        Counter &lost_counter);

    MigrateResult abort(Attempt &at, MigratePhase phase,
                        MonitorError code, std::string why);
    MigrateResult finish(Attempt &at);

    void oracleStep(const char *where);

    SecureMonitor &src_;
    SecureMonitor &dst_;
    MigrateConfig config_;
    MsgChannel channel_;
    CrossSystemOracle *oracle_ = nullptr;

    StatGroup stats_;
    Counter statMigrations_;  //!< attempts started
    Counter statCommits_;     //!< migrations committed + activated
    Counter statAborts_;      //!< attempts rolled back pre-commit
    Counter statStranded_;    //!< committed, COMMIT lost for good
    Counter statBytes_;       //!< serialized checkpoint bytes moved
    Counter statFrameRetries_; //!< transfer frames re-sent
    Counter statAcksLost_;     //!< PREPARED acks lost (injected)
    Counter statCommitRetries_; //!< COMMIT messages re-sent
    Counter statFramesSent_;    //!< frames put on the wire (incl. resends)
    Counter statFramesDropped_;
    Counter statFramesDuplicated_;
    Counter statFramesCorrupted_;
    /** Frames discarded at or beyond the receive dedup window. */
    Counter statFramesBeyondWindow_;
    Distribution statQuiesceCycles_;
    Distribution statCheckpointCycles_;
    Distribution statTransferCycles_;
    Distribution statStageCycles_;
    Distribution statVerifyCycles_;
    Distribution statCommitCycles_;
    Distribution statTotalCycles_;
};

} // namespace hpmp

#endif // HPMP_MIGRATE_MIGRATION_H
