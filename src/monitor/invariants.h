/**
 * @file
 * Security-invariant checker for the Penglai-HPMP stack.
 *
 * The monitor's whole job is upholding a handful of isolation
 * properties no matter what sequence of (possibly hostile, possibly
 * fault-interrupted) calls the OS issues. This checker re-derives
 * those properties from first principles after the fact:
 *
 *  1. Ownership exclusivity — no two domains' accessible physical
 *     intervals overlap, except regions explicitly marked shared
 *     (which must be the *same* region in both lists).
 *  2. Monitor privacy — the monitor-private region is in no domain's
 *     GMS list and resolves to no permission for S/U accesses.
 *  3. Hardware agreement — what the HPMP unit would actually grant
 *     (via the functional probe, same priority rules as a real check)
 *     matches the monitor's GMS bookkeeping for the current domain,
 *     and denies everything the current domain does not own.
 *  4. Segment mirrors — every programmed segment entry corresponds to
 *     a current-domain GMS with the same base/size/permission, and
 *     (under Hpmp) the set of mirrored GMSs is exactly the fast ones.
 *  5. Table agreement — every domain's PMP Table contents agree with
 *     its GMS list, including after rollbacks and huge-pmpte splits.
 *  6. Frame reuse — every table frame queued for reuse lies in the
 *     monitor region, is queued once and belongs to no live table.
 *
 * Check 1 also compares the monitor's GMS ownership index with the
 * union of all GMS lists (same ranges, same holder counts).
 *
 * The checks use only functional probes (HpmpUnit::probe,
 * PmpTable::lookup), so running them perturbs no statistics, no
 * PMPTW-Cache state and no TLBs — the chaos fuzzer calls them after
 * every single operation.
 */

#ifndef HPMP_MONITOR_INVARIANTS_H
#define HPMP_MONITOR_INVARIANTS_H

#include <string>

#include "monitor/secure_monitor.h"

namespace hpmp
{

/**
 * Check every isolation invariant against the monitor's current state.
 * @return empty string when all invariants hold, otherwise a
 *         description of the first violation found.
 */
std::string checkIsolationInvariants(SecureMonitor &monitor);

} // namespace hpmp

#endif // HPMP_MONITOR_INVARIANTS_H
