#include "monitor/invariants.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "pmpt/pmpte.h"

namespace hpmp
{

namespace
{

struct Region
{
    DomainId dom;
    const Gms *gms;
};

bool
overlaps(Addr a_base, uint64_t a_size, Addr b_base, uint64_t b_size)
{
    return a_base < b_base + b_size && b_base < a_base + a_size;
}

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

std::string
permStr(Perm p)
{
    std::string s;
    s += p.r ? 'r' : '-';
    s += p.w ? 'w' : '-';
    s += p.x ? 'x' : '-';
    return s;
}

bool
napotOk(const Gms &gms)
{
    return isPowerOf2(gms.size) && gms.size >= 8 &&
           gms.base % gms.size == 0;
}

/** Representative page addresses of [base, base+size). */
std::vector<Addr>
samplePages(Addr base, uint64_t size)
{
    std::vector<Addr> pas{base};
    const Addr mid = alignDown(base + size / 2, kPageSize);
    const Addr last = base + size - kPageSize;
    if (mid != base)
        pas.push_back(mid);
    if (last != base && last != mid)
        pas.push_back(last);
    return pas;
}

} // namespace

std::string
checkIsolationInvariants(SecureMonitor &monitor)
{
    Machine &machine = monitor.machine();
    HpmpUnit &unit = machine.hpmp();
    const MonitorConfig &config = monitor.config();
    const uint64_t phys = machine.params().physMemBytes;
    const DomainId current = monitor.currentDomain();
    const std::vector<DomainId> ids = monitor.domainIds();

    std::ostringstream why;
    auto fail = [&why]() -> std::string { return why.str(); };

    // ---- 1. Ownership exclusivity ------------------------------------
    std::vector<Region> all;
    for (const DomainId id : ids) {
        for (const Gms &gms : monitor.gmsOf(id))
            all.push_back({id, &gms});
    }
    for (size_t i = 0; i < all.size(); ++i) {
        for (size_t j = i + 1; j < all.size(); ++j) {
            const Region &a = all[i];
            const Region &b = all[j];
            if (!overlaps(a.gms->base, a.gms->size, b.gms->base,
                          b.gms->size)) {
                continue;
            }
            if (a.dom == b.dom) {
                why << "domain " << a.dom << " has overlapping GMSs at "
                    << hex(a.gms->base) << " and " << hex(b.gms->base);
                return fail();
            }
            const bool legit_share =
                a.gms->shared && b.gms->shared &&
                a.gms->base == b.gms->base && a.gms->size == b.gms->size;
            if (!legit_share) {
                why << "domains " << a.dom << " and " << b.dom
                    << " own overlapping non-shared regions at "
                    << hex(a.gms->base) << "/" << hex(b.gms->base);
                return fail();
            }
        }
    }

    // ---- 1b. The ownership index is the union of all GMS ranges ------
    GmsIndex union_of_lists;
    for (const Region &r : all) {
        GmsRange &range = union_of_lists[r.gms->base];
        range.end = r.gms->base + r.gms->size;
        ++range.holders;
    }
    const GmsIndex &index = monitor.gmsIndex();
    if (index.size() != union_of_lists.size() ||
        !std::equal(index.begin(), index.end(), union_of_lists.begin(),
                    [](const auto &a, const auto &b) {
                        return a.first == b.first &&
                               a.second.end == b.second.end &&
                               a.second.holders == b.second.holders;
                    })) {
        why << "GMS ownership index (" << index.size()
            << " ranges) differs from the union of the GMS lists ("
            << union_of_lists.size() << " ranges)";
        return fail();
    }

    // ---- 2. Monitor privacy (bookkeeping side) -----------------------
    for (const Region &r : all) {
        if (overlaps(r.gms->base, r.gms->size, config.monitorBase,
                     config.monitorSize)) {
            why << "domain " << r.dom << " GMS at " << hex(r.gms->base)
                << " overlaps the monitor-private region";
            return fail();
        }
    }

    // Nothing is programmed under IsolationScheme::None; the remaining
    // invariants compare against the hardware state.
    if (config.scheme == IsolationScheme::None)
        return {};

    // ---- 3. Hardware agreement via the functional probe --------------
    // Expected S/U permission at pa, from the monitor's bookkeeping:
    // the covering GMS of the *current* domain, or nothing.
    auto expected = [&](Addr pa) -> Perm {
        for (const Gms &gms : monitor.gmsOf(current)) {
            if (pa >= gms.base && pa < gms.base + gms.size)
                return gms.perm;
        }
        return Perm::none();
    };

    std::set<Addr> points;
    auto add_point = [&](Addr pa) {
        if (pa < phys && pa % kPageSize == 0)
            points.insert(pa);
    };
    for (const Region &r : all) {
        for (const Addr pa : samplePages(r.gms->base, r.gms->size))
            add_point(pa);
        // Just outside each region: must not leak beyond the bounds.
        if (r.gms->base >= kPageSize)
            add_point(r.gms->base - kPageSize);
        add_point(r.gms->base + r.gms->size);
    }
    for (const Addr pa : samplePages(config.monitorBase,
                                     config.monitorSize)) {
        add_point(pa);
    }

    for (const Addr pa : points) {
        const Perm hw = unit.probe(pa);
        const bool monitor_private =
            pa >= config.monitorBase &&
            pa < config.monitorBase + config.monitorSize;
        const Perm want = monitor_private ? Perm::none() : expected(pa);
        if (hw != want) {
            why << "probe mismatch at " << hex(pa) << ": hardware grants "
                << permStr(hw) << ", monitor expects " << permStr(want)
                << " (current domain " << current << ")";
            return fail();
        }
    }

    // ---- 4. Segment mirrors match the current domain's GMSs ----------
    const PmpUnit &regs = unit.regs();
    const auto entry0 = regs.region(0);
    if (!entry0 || entry0->base != config.monitorBase ||
        entry0->size != config.monitorSize ||
        regs.cfg(0).perm() != Perm::none()) {
        why << "entry 0 no longer pins the monitor region";
        return fail();
    }

    const std::vector<Gms> &cur_gms = monitor.gmsOf(current);
    unsigned table_entries = 0;
    unsigned segment_entries = 0;
    for (unsigned i = 1; i < regs.numEntries(); ++i) {
        const PmpCfg cfg = regs.cfg(i);
        if (cfg.reservedT()) {
            // Table-mode entry: must cover all of physical memory and
            // point at the current domain's table.
            ++table_entries;
            const auto region = regs.region(i);
            if (!region || region->base != 0 || region->size < phys) {
                why << "table-mode entry " << i
                    << " does not cover physical memory";
                return fail();
            }
            const PmpTable *table = monitor.tablePeek(current);
            if (!table) {
                why << "table-mode entry " << i
                    << " programmed but domain " << current
                    << " has no PMP table";
                return fail();
            }
            const PmptBaseReg base_reg{regs.addr(i + 1)};
            if (base_reg.tablePa() != table->rootPa() ||
                base_reg.levels() != table->levels()) {
                why << "table-mode entry " << i
                    << " roots at " << hex(base_reg.tablePa())
                    << ", domain table is at " << hex(table->rootPa());
                return fail();
            }
            ++i; // the pair entry holds the base register
            continue;
        }
        if (cfg.a() == PmpAddrMode::Off)
            continue;
        ++segment_entries;
        const auto region = regs.region(i);
        const Gms *match = nullptr;
        for (const Gms &gms : cur_gms) {
            if (gms.base == region->base && gms.size == region->size) {
                match = &gms;
                break;
            }
        }
        if (!match) {
            why << "segment entry " << i << " maps " << hex(region->base)
                << "+" << hex(region->size)
                << " which is no GMS of current domain " << current;
            return fail();
        }
        if (match->perm != cfg.perm()) {
            why << "segment entry " << i << " grants "
                << permStr(cfg.perm()) << " but the GMS at "
                << hex(match->base) << " holds " << permStr(match->perm);
            return fail();
        }
        if (config.scheme == IsolationScheme::Hpmp &&
            match->label != GmsLabel::Fast) {
            why << "segment entry " << i << " mirrors a slow GMS at "
                << hex(match->base);
            return fail();
        }
    }

    unsigned expect_segments = 0;
    switch (config.scheme) {
      case IsolationScheme::None:
        break;
      case IsolationScheme::Pmp:
        expect_segments = unsigned(cur_gms.size());
        break;
      case IsolationScheme::PmpTable:
        expect_segments = 0;
        break;
      case IsolationScheme::Hpmp:
        for (const Gms &gms : cur_gms) {
            if (gms.label == GmsLabel::Fast && napotOk(gms))
                ++expect_segments;
        }
        break;
    }
    if (segment_entries != expect_segments) {
        why << "scheme " << toString(config.scheme) << " programs "
            << segment_entries << " segment entries but "
            << expect_segments << " GMSs should be mirrored";
        return fail();
    }
    const bool want_table =
        (config.scheme == IsolationScheme::PmpTable ||
         config.scheme == IsolationScheme::Hpmp) &&
        monitor.tablePeek(current) != nullptr;
    if (table_entries != (want_table ? 1u : 0u)) {
        why << table_entries << " table-mode entries programmed, want "
            << (want_table ? 1 : 0);
        return fail();
    }

    // ---- 5. Every domain's PMP table agrees with its GMS list --------
    std::set<Addr> live_frames;
    for (const DomainId id : ids) {
        const PmpTable *table = monitor.tablePeek(id);
        if (!table)
            continue;
        live_frames.insert(table->tablePages().begin(),
                           table->tablePages().end());
        auto expect_of = [&](Addr pa) -> Perm {
            for (const Gms &gms : monitor.gmsOf(id)) {
                if (pa >= gms.base && pa < gms.base + gms.size)
                    return gms.perm;
            }
            return Perm::none();
        };
        std::set<Addr> offsets;
        for (const Gms &gms : monitor.gmsOf(id)) {
            for (const Addr pa : samplePages(gms.base, gms.size)) {
                if (pa < table->coverage())
                    offsets.insert(pa);
            }
            if (gms.base >= kPageSize)
                offsets.insert(gms.base - kPageSize);
            if (gms.base + gms.size < table->coverage())
                offsets.insert(gms.base + gms.size);
        }
        offsets.insert(config.monitorBase);
        for (const Addr off : offsets) {
            const Perm got = table->lookup(off);
            const bool monitor_private =
                off >= config.monitorBase &&
                off < config.monitorBase + config.monitorSize;
            const Perm want =
                monitor_private ? Perm::none() : expect_of(off);
            if (got != want) {
                why << "domain " << id << " table holds "
                    << permStr(got) << " at offset " << hex(off)
                    << ", GMS list says " << permStr(want);
                return fail();
            }
        }
    }

    // ---- 6. Reusable table frames are dead and queued once -----------
    // (No scheme without tables gets here with a frame queued: None
    // returned above and never creates a table.)
    std::set<Addr> reusable;
    for (const auto *list :
         {&monitor.freeTableFrames(), &monitor.fencePendingFrames()}) {
        for (const Addr frame : *list) {
            if (frame % kPageSize || frame < config.monitorBase ||
                frame >= config.monitorBase + config.monitorSize) {
                why << "reusable table frame " << hex(frame)
                    << " lies outside the monitor region";
                return fail();
            }
            if (!reusable.insert(frame).second) {
                why << "table frame " << hex(frame)
                    << " is queued for reuse twice";
                return fail();
            }
            if (live_frames.count(frame)) {
                why << "table frame " << hex(frame)
                    << " is queued for reuse but a live table holds it";
                return fail();
            }
        }
    }

    return {};
}

} // namespace hpmp
