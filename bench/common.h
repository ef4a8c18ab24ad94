/**
 * @file
 * Shared helpers for the benchmark harnesses: fixed-width table
 * printing in the style of the paper's tables/figures, the one JSON
 * emitter every bench dump goes through, and a microbenchmark
 * fixture that builds a Machine + page table + HPMP state for one
 * isolation scheme with controlled placement of PT pages (contiguous
 * pool) and data pages.
 */

#ifndef HPMP_BENCH_COMMON_H
#define HPMP_BENCH_COMMON_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/logging.h"
#include "base/stats.h"
#include "core/machine.h"
#include "hpmp/isolation.h"
#include "pmpt/pmp_table.h"
#include "pt/page_table.h"

namespace hpmp::bench
{

/** When `arg` reads PREFIX+VALUE, store VALUE in `out`. */
inline bool
parseFlag(const char *arg, std::string_view prefix, std::string &out)
{
    if (std::strncmp(arg, prefix.data(), prefix.size()) != 0)
        return false;
    out = arg + prefix.size();
    return true;
}

/**
 * The JSON emitter of the bench harnesses: nested objects and arrays
 * with number, string and bool leaves, in the shape parseStatsJson
 * flattens into dotted keys (and tools/perfcheck gates). Calls nest
 * like the document:
 *
 *     json.open('{').key("rows").open('[').value(408).close().close();
 *
 * Object members take a key() first; array elements do not. Members
 * and nested containers start a new line, leaf array elements stay
 * inline, so one table row reads as one line. A non-finite number is
 * written as a string, which the flattener skips.
 */
class Json
{
  public:
    /** Open an object ('{') or an array ('['). */
    Json &
    open(char bracket)
    {
        place(true);
        out_ += bracket;
        levels_.push_back({bracket == '['});
        return *this;
    }

    /** Close the innermost open object or array. */
    Json &
    close()
    {
        const Level level = levels_.back();
        levels_.pop_back();
        if (level.multiline)
            newline();
        out_ += level.array ? ']' : '}';
        return *this;
    }

    /** Name the next value (object members only). */
    Json &
    key(std::string_view name)
    {
        place(false);
        quote(name);
        out_ += ": ";
        keyed_ = true;
        return *this;
    }

    template <class T>
        requires std::is_arithmetic_v<T>
    Json &
    value(T v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            return token(v ? "true" : "false");
        } else {
            char buf[32];
            const std::string_view text(
                buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
            return std::isfinite(double(v)) ? token(text) : value(text);
        }
    }

    Json &
    value(std::string_view s)
    {
        place(false);
        quote(s);
        return *this;
    }

    /** Splice an already-rendered JSON value (e.g. a stats dump). */
    Json &
    raw(std::string_view json)
    {
        place(true);
        out_ += json.substr(0, json.find_last_not_of(" \n") + 1);
        return *this;
    }

    const std::string &str() const { return out_; }

    /** Write the (closed) document to path. @return false on failure. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        bool ok = f && std::fprintf(f, "%s\n", out_.c_str()) >= 0;
        if (f)
            ok = std::fclose(f) == 0 && ok;
        std::fprintf(stderr, ok ? "wrote %s\n" : "cannot write %s\n",
                     path.c_str());
        return ok;
    }

  private:
    struct Level
    {
        bool array;
        bool any = false;       //!< a value was written at this level
        bool multiline = false; //!< a value started a new line
    };

    /** Separator and placement before a value (container or leaf). */
    void
    place(bool container)
    {
        if (keyed_ || levels_.empty()) {
            keyed_ = false;
            return;
        }
        Level &level = levels_.back();
        if (level.any)
            out_ += ',';
        if (!level.array || container) {
            newline();
            level.multiline = true;
        } else if (level.any) {
            out_ += ' ';
        }
        level.any = true;
    }

    Json &
    token(std::string_view text)
    {
        place(false);
        out_ += text;
        return *this;
    }

    void
    newline()
    {
        out_ += '\n';
        out_.append(2 * levels_.size(), ' ');
    }

    void
    quote(std::string_view s)
    {
        out_ += '"';
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            out_ += c;
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<Level> levels_;
    bool keyed_ = false;
};

/**
 * --stats-json=FILE collector for the bench harnesses: each measured
 * cell (one machine, one scheme/mode point) is captured as a named
 * stats-registry dump under "captures", and write() saves the
 * document when --stats-json names a file. Capturing prints nothing,
 * so bench stdout stays byte-identical either way.
 */
class StatsSink
{
  public:
    StatsSink(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i)
            parseFlag(argv[i], "--stats-json=", path_);
        json_.open('{').key("captures").open('{');
    }

    /** @return false when --stats-json named a file it cannot write. */
    bool
    write()
    {
        return path_.empty() || json_.close().close().write(path_);
    }

    /** Capture anything with registerStats(StatRegistry&). */
    template <class M>
    void
    capture(const std::string &label, M &m)
    {
        StatRegistry registry;
        m.registerStats(registry);
        json_.key(label).raw(registry.dumpJson());
    }

  private:
    std::string path_;
    Json json_;
};

/** Print a header like "=== Figure 10: ... ===". */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Fixed-width row printer: first column 14 wide, rest 12. */
inline void
row(const std::vector<std::string> &cells)
{
    for (size_t i = 0; i < cells.size(); ++i)
        std::printf(i == 0 ? "%-16s" : "  %12s", cells[i].c_str());
    std::printf("\n");
}

/**
 * Print a table (header, then rows) and record it in one call, as the
 * member `key: {"columns": [header], "rows": [[...], ...]}` of the
 * open object in `json`: numeric cells as numbers, the rest (e.g.
 * "n/a") as strings, which the perfcheck flattener skips.
 */
inline void
emitTable(Json &json, std::string_view key,
          const std::vector<std::string> &header,
          const std::vector<std::vector<std::string>> &rows)
{
    row(header);
    json.key(key).open('{').key("columns").open('[');
    for (const std::string &column : header)
        json.value(column);
    json.close().key("rows").open('[');
    for (const std::vector<std::string> &cells : rows) {
        row(cells);
        json.open('[');
        for (const std::string &cell : cells) {
            char *end = nullptr;
            const double v = std::strtod(cell.c_str(), &end);
            if (!cell.empty() && *end == '\0')
                json.value(v);
            else
                json.value(cell);
        }
        json.close();
    }
    json.close().close();
}

inline std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

inline std::string pct(double v) { return fmt("%.1f%%", v * 100.0); }

/**
 * Microbenchmark fixture: one machine with `npages` test pages mapped
 * at consecutive (or strided) virtual addresses. PT pages live in a
 * contiguous pool; the HPMP registers are programmed per scheme the
 * way the secure monitor would.
 */
class MicroEnv
{
  public:
    static constexpr Addr kPtPool = 256_MiB;
    static constexpr uint64_t kPtPoolSize = 16_MiB;
    static constexpr Addr kDataBase = 4_GiB;
    static constexpr uint64_t kDataSize = 4_GiB;
    /**
     * VA base with non-trivial VPN[2]/VPN[1] and data placement deep
     * inside the protected region: radix-structure *roots* otherwise
     * all sit at slot 0 of their pages and collapse into one L1 set,
     * which thrashes in a way real (spread-out) workloads do not.
     */
    static constexpr Addr kVaBase = 0x2A5A000000;
    static constexpr Addr kFirstDataPa = kDataBase + 417_MiB;

    MicroEnv(const MachineParams &params, IsolationScheme scheme)
        : machine_(std::make_unique<Machine>(params))
    {
        pt_ = std::make_unique<PageTable>(machine_->mem(),
                                          bumpAllocator(kPtPool),
                                          PagingMode::Sv39);
        if (scheme == IsolationScheme::PmpTable ||
            scheme == IsolationScheme::Hpmp) {
            table_ = std::make_unique<PmpTable>(
                machine_->mem(), bumpAllocator(64_MiB), 2);
            table_->setPerm(kPtPool, kPtPoolSize, Perm::rw());
            table_->setPerm(kDataBase, kDataSize, Perm::rwx());
        }
        program(machine_->hpmp(), scheme, table_ ? table_->rootPa() : 0);
        machine_->setSatp(pt_->rootPa(), PagingMode::Sv39);
        machine_->setPriv(PrivMode::User);
    }

    /**
     * Map npages at a VA stride (in pages) with a PA stride; returns
     * the VA base. Pages are created accessed; dirty per `dirty`.
     */
    Addr
    mapPages(unsigned npages, uint64_t va_stride_pages = 1,
             uint64_t pa_stride_pages = 1, bool dirty = true)
    {
        const Addr base = nextVa_;
        for (unsigned i = 0; i < npages; ++i) {
            const Addr va = base + pageAddr(i * va_stride_pages);
            const Addr pa = nextPa_;
            nextPa_ += pageAddr(pa_stride_pages);
            const bool ok =
                pt_->map(va, pa, Perm::rw(), true, 0, true, dirty);
            if (!ok)
                fatal("MicroEnv map collision at %#lx", va);
        }
        nextVa_ = base + pageAddr(npages * va_stride_pages + 8);
        machine_->sfenceVma();
        return base;
    }

    Machine &machine() { return *machine_; }
    PageTable &pt() { return *pt_; }

    /** Clear the D bit of the leaf PTE for va (cache state untouched). */
    void
    cleanDirtyBit(Addr va)
    {
        auto slot = pt_->leafPteAddr(va);
        if (!slot)
            return;
        Pte pte{machine_->mem().read64(*slot)};
        pte.setD(false);
        machine_->mem().write64(*slot, pte.raw);
    }

    /**
     * Program the HPMP registers for one scheme the way the secure
     * monitor would: segments for the PT pool and data under PMP, a
     * whole-memory table (rooted at table_root) under PMP Table, and
     * the PT-pool segment in front of that table under HPMP.
     */
    static void
    program(HpmpUnit &unit, IsolationScheme scheme, Addr table_root)
    {
        switch (scheme) {
          case IsolationScheme::None:
            unit.programSegment(0, 0, 16_GiB, Perm::rwx());
            break;
          case IsolationScheme::Pmp:
            unit.programSegment(0, kPtPool, kPtPoolSize, Perm::rw());
            unit.programSegment(1, kDataBase, kDataSize, Perm::rwx());
            break;
          case IsolationScheme::PmpTable:
            unit.programTable(0, 0, 16_GiB, table_root);
            break;
          case IsolationScheme::Hpmp:
            unit.programSegment(0, kPtPool, kPtPoolSize, Perm::rw());
            unit.programTable(1, 0, 16_GiB, table_root);
            break;
        }
    }

  private:
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<PageTable> pt_;
    std::unique_ptr<PmpTable> table_;
    Addr nextVa_ = kVaBase;
    Addr nextPa_ = kFirstDataPa;
};

} // namespace hpmp::bench

#endif // HPMP_BENCH_COMMON_H
