/**
 * @file
 * A small statistics package: named counters and distributions owned by
 * a per-machine registry, dumpable as text and queryable by benches.
 */

#ifndef CCSVM_SIM_STATS_HH
#define CCSVM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "base/logging.hh"
#include "sim/histogram.hh"
#include "sim/trace.hh"

namespace ccsvm::sim
{

/** Escape a string for inclusion in a JSON document. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20 ||
                static_cast<unsigned char>(ch) >= 0x7f) {
                // Control bytes are forbidden in JSON strings, and a
                // raw high-bit byte need not be valid UTF-8; escape
                // both. Widen through unsigned char: a negative char
                // sign-extends into an 8-hex-digit escape that no
                // JSON parser accepts.
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

/** Format a double as a JSON number (JSON has no inf/nan). */
inline std::string
jsonNumber(double x)
{
    if (!(x == x) || x > 1e308 || x < -1e308)
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

/** Monotonically increasing event counter. */
class Counter
{
  public:
    Counter(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        value_ += n;
        return *this;
    }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/** Running distribution: count, min, max, mean. */
class Distribution
{
  public:
    Distribution(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    void
    record(double x)
    {
        ++count_;
        sum_ += x;
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0;
        min_ = 1e300;
        max_ = -1e300;
    }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 1e300;
    double max_ = -1e300;
};

/**
 * Owns all statistics for one simulated machine. Components request
 * counters by hierarchical dotted name (e.g. "dram.reads"); requesting
 * an existing name returns the existing stat so multiple components can
 * share an aggregate.
 */
class StatRegistry
{
  public:
    Counter &
    counter(const std::string &name, const std::string &desc = "")
    {
        auto it = counters_.find(name);
        if (it == counters_.end()) {
            it = counters_
                     .emplace(name,
                              std::make_unique<Counter>(name, desc))
                     .first;
        }
        return *it->second;
    }

    Distribution &
    distribution(const std::string &name, const std::string &desc = "")
    {
        auto it = dists_.find(name);
        if (it == dists_.end()) {
            it = dists_
                     .emplace(name,
                              std::make_unique<Distribution>(name, desc))
                     .first;
        }
        return *it->second;
    }

    LatencyHistogram &
    histogram(const std::string &name, const std::string &desc = "")
    {
        auto it = histos_.find(name);
        if (it == histos_.end()) {
            it = histos_
                     .emplace(name, std::make_unique<LatencyHistogram>(
                                        name, desc))
                     .first;
        }
        return *it->second;
    }

    /** The machine's trace recorder (off until a category mask is
     * set; see Tracer). Living here lets every component reach it
     * through the StatRegistry& it already takes. */
    Tracer &tracer() { return tracer_; }

    /** Value of a counter, or 0 if it was never created. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second->value();
    }

    bool
    hasCounter(const std::string &name) const
    {
        return counters_.count(name) != 0;
    }

    /** Sum of all counters whose names start with @p prefix. */
    std::uint64_t
    sumMatching(const std::string &prefix) const
    {
        std::uint64_t total = 0;
        for (const auto &[name, c] : counters_) {
            if (name.rfind(prefix, 0) == 0)
                total += c->value();
        }
        return total;
    }

    /** Sum of all counters whose names end with @p suffix (e.g.
     * ".l1.misses" across every core). The time-series sampler uses
     * this to snapshot per-component families as one column. */
    std::uint64_t
    sumMatchingSuffix(const std::string &suffix) const
    {
        std::uint64_t total = 0;
        for (const auto &[name, c] : counters_) {
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) == 0)
                total += c->value();
        }
        return total;
    }

    void
    resetAll()
    {
        for (auto &[name, c] : counters_)
            c->reset();
        for (auto &[name, d] : dists_)
            d->reset();
        for (auto &[name, h] : histos_)
            h->reset();
    }

    /** Text dump in name order, gem5 stats.txt style. */
    void
    dump(std::ostream &os) const
    {
        for (const auto &[name, c] : counters_) {
            os << name << " " << c->value();
            if (!c->desc().empty())
                os << "   # " << c->desc();
            os << "\n";
        }
        for (const auto &[name, d] : dists_) {
            os << name << "::count " << d->count() << "\n"
               << name << "::mean " << d->mean() << "\n"
               << name << "::min " << d->minValue() << "\n"
               << name << "::max " << d->maxValue() << "\n";
        }
        for (const auto &[name, h] : histos_) {
            os << name << "::count " << h->count() << "\n"
               << name << "::mean " << h->mean() << "\n"
               << name << "::min " << h->minValue() << "\n"
               << name << "::max " << h->maxValue() << "\n"
               << name << "::p50 " << h->percentile(50) << "\n"
               << name << "::p99 " << h->percentile(99) << "\n";
        }
    }

    /**
     * JSON dump: one object with "counters" (name -> value),
     * "distributions" (name -> {count, sum, mean, min, max}) and
     * "histograms" (name -> {count, mean, min, max, p50..p999})
     * members. Emitted sorted by name so diffs between runs are
     * stable. The driver and the figure benchmarks both embed this
     * object in their output files.
     */
    void
    dumpJson(std::ostream &os, const std::string &indent = "") const
    {
        const std::string in1 = indent + "  ";
        const std::string in2 = in1 + "  ";
        os << "{\n" << in1 << "\"counters\": {";
        bool first = true;
        for (const auto &[name, c] : counters_) {
            os << (first ? "\n" : ",\n") << in2 << '"'
               << jsonEscape(name) << "\": " << c->value();
            first = false;
        }
        os << (first ? "" : "\n" + in1) << "},\n"
           << in1 << "\"distributions\": {";
        first = true;
        for (const auto &[name, d] : dists_) {
            os << (first ? "\n" : ",\n") << in2 << '"'
               << jsonEscape(name) << "\": {"
               << "\"count\": " << d->count()
               << ", \"sum\": " << jsonNumber(d->sum())
               << ", \"mean\": " << jsonNumber(d->mean())
               << ", \"min\": " << jsonNumber(d->minValue())
               << ", \"max\": " << jsonNumber(d->maxValue()) << "}";
            first = false;
        }
        os << (first ? "" : "\n" + in1) << "},\n"
           << in1 << "\"histograms\": {";
        first = true;
        for (const auto &[name, h] : histos_) {
            os << (first ? "\n" : ",\n") << in2 << '"'
               << jsonEscape(name) << "\": {"
               << "\"count\": " << h->count()
               << ", \"mean\": " << jsonNumber(h->mean())
               << ", \"min\": " << h->minValue()
               << ", \"max\": " << h->maxValue()
               << ", \"p50\": " << jsonNumber(h->percentile(50))
               << ", \"p90\": " << jsonNumber(h->percentile(90))
               << ", \"p99\": " << jsonNumber(h->percentile(99))
               << ", \"p999\": " << jsonNumber(h->percentile(99.9))
               << "}";
            first = false;
        }
        os << (first ? "" : "\n" + in1) << "}\n" << indent << "}";
    }

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Distribution>> dists_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histos_;
    Tracer tracer_;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_STATS_HH
