#include "mem/cache.h"

#include "base/bitfield.h"
#include "base/logging.h"

namespace hpmp
{

Cache::Cache(const CacheParams &params)
    : params_(params),
      lineShift_(log2i(params.lineBytes))
{
    fatal_if(!isPowerOf2(params.lineBytes), "%s: line size must be 2^n",
             params.name.c_str());
    fatal_if(params.assoc == 0, "%s: zero associativity",
             params.name.c_str());
    const uint64_t num_lines = params.sizeBytes / params.lineBytes;
    fatal_if(num_lines % params.assoc != 0,
             "%s: size/assoc mismatch", params.name.c_str());
    numSets_ = num_lines / params.assoc;
    if (isPowerOf2(numSets_)) {
        setsPow2_ = true;
        setShift_ = log2i(numSets_);
        setMask_ = numSets_ - 1;
    }
    lines_.resize(num_lines);
}

void
Cache::fillVictim(Line *base, uint64_t tag, bool is_write)
{
    // Same victim choice as the historical single-pass scan: the last
    // invalid unlocked way if any, else the lowest-LRU unlocked way.
    Line *victim = nullptr;
    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (line.locked)
            continue;
        if (!line.valid)
            victim = &line;
        else if (!victim || (victim->valid && line.lru < victim->lru))
            victim = &line;
    }
    panic_if(!victim, "all ways locked in set");

    clearMemo();
    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = is_write;
    victim->lru = ++lruClock_;
}

bool
Cache::probe(Addr pa) const
{
    const uint64_t set = setIndex(pa);
    const uint64_t tag = tagOf(pa);
    const Line *base = &lines_[set * params_.assoc];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return true;
    }
    return false;
}

void
Cache::touch(Addr pa)
{
    clearMemo();
    const uint64_t set = setIndex(pa);
    const uint64_t tag = tagOf(pa);
    Line *base = &lines_[set * params_.assoc];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.lru = ++lruClock_;
            return;
        }
    }
    Line *victim = nullptr;
    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (line.locked)
            continue;
        if (!line.valid)
            victim = &line;
        else if (!victim || (victim->valid && line.lru < victim->lru))
            victim = &line;
    }
    panic_if(!victim, "all ways locked in set");
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = false;
    victim->lru = ++lruClock_;
}

bool
Cache::lockLine(Addr pa)
{
    clearMemo();
    const uint64_t set = setIndex(pa);
    const uint64_t tag = tagOf(pa);
    Line *base = &lines_[set * params_.assoc];

    unsigned unlocked = 0;
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (!base[way].locked)
            ++unlocked;
    }
    if (unlocked <= 1)
        return false; // keep at least one evictable way per set

    // Bring the line in (warm) and pin it.
    touch(pa);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag && !line.locked) {
            line.locked = true;
            ++lockedLines_;
            return true;
        }
    }
    return false;
}

void
Cache::unlockLine(Addr pa)
{
    clearMemo();
    const uint64_t set = setIndex(pa);
    const uint64_t tag = tagOf(pa);
    Line *base = &lines_[set * params_.assoc];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag && line.locked) {
            line.locked = false;
            --lockedLines_;
        }
    }
}

void
Cache::flushAll()
{
    clearMemo();
    for (auto &line : lines_) {
        if (line.locked) {
            // Locked lines survive flushes (the monitor's pinned
            // state); everything else goes.
            continue;
        }
        line = Line{};
    }
}

void
Cache::flushLine(Addr pa)
{
    clearMemo();
    const uint64_t set = setIndex(pa);
    const uint64_t tag = tagOf(pa);
    Line *base = &lines_[set * params_.assoc];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag &&
            !base[way].locked) {
            base[way] = Line{};
        }
    }
}

} // namespace hpmp
