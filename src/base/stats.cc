#include "base/stats.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace hpmp
{

unsigned
Distribution::usedBuckets() const
{
    unsigned used = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (buckets_[i])
            used = i + 1;
    }
    return used;
}

double
Distribution::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return double(min());
    if (p >= 1.0)
        return double(max_);

    // Rank of the target sample (1-based), then walk the buckets to
    // the one holding it and interpolate by rank position inside.
    const double rank = p * double(count_);
    uint64_t below = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        const uint64_t in_bucket = buckets_[i];
        if (in_bucket == 0)
            continue;
        if (double(below + in_bucket) >= rank) {
            const double low = double(bucketLow(i));
            const double high = double(bucketHigh(i));
            const double frac = (rank - double(below)) / double(in_bucket);
            double v = low + (high - low) * frac;
            if (v < double(min()))
                v = double(min());
            if (v > double(max_))
                v = double(max_);
            return v;
        }
        below += in_bucket;
    }
    return double(max_);
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0;
    min_ = ~0ull;
    max_ = 0;
    for (uint64_t &b : buckets_)
        b = 0;
}

void
StatGroup::add(const std::string &stat_name, Counter *counter)
{
    counters_[stat_name] = counter;
}

void
StatGroup::add(const std::string &stat_name, Distribution *dist)
{
    dists_[stat_name] = dist;
}

void
StatGroup::add(const std::string &stat_name, Formula *formula)
{
    formulas_[stat_name] = formula;
}

uint64_t
StatGroup::get(const std::string &stat_name) const
{
    auto it = counters_.find(stat_name);
    return it == counters_.end() ? 0 : it->second->value();
}

double
StatGroup::getFormula(const std::string &stat_name) const
{
    auto it = formulas_.find(stat_name);
    return it == formulas_.end() ? 0.0 : it->second->value();
}

const Distribution *
StatGroup::getDist(const std::string &stat_name) const
{
    auto it = dists_.find(stat_name);
    return it == dists_.end() ? nullptr : it->second;
}

void
StatGroup::resetAll()
{
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, dist] : dists_)
        dist->reset();
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto &[name, counter] : counters_)
        os << name_ << '.' << name << ' ' << counter->value() << '\n';
    for (const auto &[name, dist] : dists_) {
        os << name_ << '.' << name << " count " << dist->count()
           << " min " << dist->min() << " max " << dist->max();
        char mean[32];
        std::snprintf(mean, sizeof(mean), "%.2f", dist->mean());
        os << " mean " << mean << '\n';
    }
    for (const auto &[name, formula] : formulas_) {
        char value[32];
        std::snprintf(value, sizeof(value), "%.4f", formula->value());
        os << name_ << '.' << name << ' ' << value << '\n';
    }
    return os.str();
}

namespace
{

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
}

void
appendDouble(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += buf;
}

} // namespace

void
StatGroup::dumpJson(std::string &out, const std::string &indent) const
{
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out += ",\n";
        first = false;
        out += indent;
    };

    out += "{\n";
    for (const auto &[name, counter] : counters_) {
        sep();
        appendJsonString(out, name);
        out += ": " + std::to_string(counter->value());
    }
    for (const auto &[name, dist] : dists_) {
        sep();
        appendJsonString(out, name);
        out += ": {\"count\": " + std::to_string(dist->count());
        out += ", \"sum\": " + std::to_string(dist->sum());
        out += ", \"min\": " + std::to_string(dist->min());
        out += ", \"max\": " + std::to_string(dist->max());
        out += ", \"mean\": ";
        appendDouble(out, dist->mean());
        out += ", \"p50\": ";
        appendDouble(out, dist->percentile(0.50));
        out += ", \"p99\": ";
        appendDouble(out, dist->percentile(0.99));
        out += ", \"p999\": ";
        appendDouble(out, dist->percentile(0.999));
        out += ", \"buckets\": [";
        const unsigned used = dist->usedBuckets();
        for (unsigned i = 0; i < used; ++i) {
            if (i)
                out += ", ";
            out += std::to_string(dist->bucket(i));
        }
        out += "]}";
    }
    for (const auto &[name, formula] : formulas_) {
        sep();
        appendJsonString(out, name);
        out += ": ";
        appendDouble(out, formula->value());
    }
    out += '\n';
    out.append(indent, 0, indent.size() > 2 ? indent.size() - 2 : 0);
    out += '}';
}

void
StatRegistry::add(StatGroup *group)
{
    groups_.push_back(group);
}

StatGroup &
StatRegistry::makeGroup(const std::string &name)
{
    if (StatGroup *existing = find(name))
        return *existing;
    owned_.push_back(std::make_unique<StatGroup>(name));
    groups_.push_back(owned_.back().get());
    return *owned_.back();
}

StatGroup *
StatRegistry::find(const std::string &name) const
{
    for (StatGroup *group : groups_) {
        if (group->name() == name)
            return group;
    }
    return nullptr;
}

void
StatRegistry::resetAll()
{
    for (StatGroup *group : groups_)
        group->resetAll();
}

std::string
StatRegistry::dumpText() const
{
    std::string out;
    for (const StatGroup *group : groups_)
        out += group->dump();
    return out;
}

std::string
StatRegistry::dumpJson() const
{
    // Sort groups by name (stable, so same-named groups keep their
    // registration order): byte-identical dumps for identical state,
    // whatever order components registered in.
    std::vector<const StatGroup *> sorted(groups_.begin(), groups_.end());
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const StatGroup *a, const StatGroup *b) {
                         return a->name() < b->name();
                     });

    std::string out = "{\n  \"groups\": {\n";
    bool first = true;
    for (const StatGroup *group : sorted) {
        if (!first)
            out += ",\n";
        first = false;
        out += "    ";
        appendJsonString(out, group->name());
        out += ": ";
        group->dumpJson(out, "      ");
    }
    out += "\n  }\n}\n";
    return out;
}

bool
StatRegistry::writeJsonFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = dumpJson();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
                    json.size();
    return std::fclose(f) == 0 && ok;
}

namespace
{

/** Cursor over the JSON text for the flat parser below. */
struct JsonCursor
{
    const std::string &text;
    size_t pos = 0;

    void
    skipWs()
    {
        while (pos < text.size() && std::isspace((unsigned char)text[pos]))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    peek(char c)
    {
        skipWs();
        return pos < text.size() && text[pos] == c;
    }
};

bool
parseString(JsonCursor &cur, std::string &out)
{
    if (!cur.consume('"'))
        return false;
    out.clear();
    while (cur.pos < cur.text.size()) {
        const char c = cur.text[cur.pos++];
        if (c == '"')
            return true;
        if (c == '\\') {
            if (cur.pos >= cur.text.size())
                return false;
            out += cur.text[cur.pos++];
        } else {
            out += c;
        }
    }
    return false;
}

bool
parseValue(JsonCursor &cur, const std::string &prefix,
           std::map<std::string, double> &out)
{
    cur.skipWs();
    if (cur.peek('{')) {
        cur.consume('{');
        if (cur.consume('}'))
            return true;
        do {
            std::string key;
            if (!parseString(cur, key) || !cur.consume(':'))
                return false;
            const std::string path =
                prefix.empty() ? key : prefix + "." + key;
            if (!parseValue(cur, path, out))
                return false;
        } while (cur.consume(','));
        return cur.consume('}');
    }
    if (cur.peek('[')) {
        cur.consume('[');
        if (cur.consume(']'))
            return true;
        unsigned idx = 0;
        do {
            if (!parseValue(cur, prefix + "." + std::to_string(idx++),
                            out)) {
                return false;
            }
        } while (cur.consume(','));
        return cur.consume(']');
    }
    if (cur.peek('"')) {
        std::string ignored;
        return parseString(cur, ignored); // strings are not flattened
    }
    const bool t = cur.text.compare(cur.pos, 4, "true") == 0;
    if (t || cur.text.compare(cur.pos, 5, "false") == 0) {
        cur.pos += t ? 4 : 5;
        out[prefix] = t;
        return true;
    }
    // A number.
    size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(cur.text.substr(cur.pos), &used);
    } catch (...) {
        return false;
    }
    if (used == 0)
        return false;
    cur.pos += used;
    out[prefix] = v;
    return true;
}

} // namespace

bool
parseStatsJson(const std::string &text, std::map<std::string, double> &out)
{
    JsonCursor cur{text};
    if (!parseValue(cur, "", out))
        return false;
    cur.skipWs();
    return cur.pos == text.size();
}

StatSampler::StatSampler(const StatRegistry &registry,
                         uint64_t intervalCycles, size_t maxWindows)
    : registry_(registry),
      interval_(intervalCycles ? intervalCycles : 1),
      maxWindows_(maxWindows),
      nextTick_(interval_)
{
}

void
StatSampler::advanceTo(uint64_t nowCycles)
{
    while (nowCycles >= nextTick_) {
        sample(nextTick_);
        nextTick_ += interval_;
    }
}

void
StatSampler::sample(uint64_t nowCycles)
{
    if (ticks_.size() >= maxWindows_) {
        ++dropped_;
        return;
    }

    std::map<std::string, double> flat;
    parseStatsJson(registry_.dumpJson(), flat);

    const size_t window = ticks_.size();
    ticks_.push_back(nowCycles);
    for (const auto &[key, value] : flat) {
        auto &column = series_[key];
        column.resize(window, 0.0); // backfill a key appearing mid-run
        column.push_back(value);
    }
    // A key that vanished (can't happen with static registries, but
    // keep the columns rectangular regardless).
    for (auto &[key, column] : series_) {
        if (column.size() <= window)
            column.resize(window + 1, 0.0);
    }
}

const std::vector<double> &
StatSampler::series(const std::string &key) const
{
    static const std::vector<double> kEmpty;
    auto it = series_.find(key);
    return it == series_.end() ? kEmpty : it->second;
}

std::string
StatSampler::dumpJson() const
{
    std::string out = "{\n  \"interval\": " + std::to_string(interval_);
    out += ",\n  \"dropped_windows\": " + std::to_string(dropped_);
    out += ",\n  \"ticks\": [";
    for (size_t i = 0; i < ticks_.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(ticks_[i]);
    }
    out += "],\n  \"series\": {";
    bool first = true;
    for (const auto &[key, column] : series_) {
        if (!first)
            out += ",";
        first = false;
        out += "\n    ";
        appendJsonString(out, key);
        out += ": [";
        for (size_t i = 0; i < column.size(); ++i) {
            if (i)
                out += ", ";
            appendDouble(out, column[i]);
        }
        out += "]";
    }
    out += series_.empty() ? "}\n}\n" : "\n  }\n}\n";
    return out;
}

bool
StatSampler::writeJsonFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = dumpJson();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace hpmp
