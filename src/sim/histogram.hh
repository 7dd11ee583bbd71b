/**
 * @file
 * Log2-bucketed latency histogram.
 *
 * The paper's argument is about latency *shape*, not just means: the
 * multi-tenant tail-latency scenario (ROADMAP) needs p99s, and the
 * synth patterns need to show how coherence choices move the whole
 * distribution. A histogram with power-of-two buckets covers the full
 * Tick range at fixed memory cost and gives percentiles by linear
 * interpolation inside the containing bucket.
 */

#ifndef CCSVM_SIM_HISTOGRAM_HH
#define CCSVM_SIM_HISTOGRAM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>

namespace ccsvm::sim
{

/** Power-of-two-bucketed histogram of unsigned samples (ticks). */
class LatencyHistogram
{
  public:
    /** Bucket 0 holds the value 0; bucket b >= 1 holds
     * [2^(b-1), 2^b). 64-bit samples need buckets 0..64. */
    static constexpr unsigned kBuckets = 65;

    LatencyHistogram(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    static unsigned
    bucketOf(std::uint64_t v)
    {
        return static_cast<unsigned>(std::bit_width(v));
    }

    void
    record(std::uint64_t v)
    {
        ++count_;
        sum_ += static_cast<double>(v);
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        ++buckets_[bucketOf(v)];
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t minValue() const { return count_ ? min_ : 0; }
    std::uint64_t maxValue() const { return max_; }

    /**
     * The @p p-th percentile (p in [0, 100]), linearly interpolated
     * inside the containing bucket and clamped to the observed
     * [min, max] — so a histogram holding a single repeated value
     * reports that exact value at every percentile. 0 when empty.
     */
    double
    percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        const double target =
            std::max(1.0, p / 100.0 * static_cast<double>(count_));
        double cum = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            if (buckets_[b] == 0)
                continue;
            const double cnt = static_cast<double>(buckets_[b]);
            if (cum + cnt >= target) {
                const double lo =
                    b == 0 ? 0.0
                           : static_cast<double>(std::uint64_t(1)
                                                 << (b - 1));
                const double hi = b == 0 ? 0.0 : lo * 2.0;
                const double frac = (target - cum) / cnt;
                const double v = lo + frac * (hi - lo);
                return std::clamp(v,
                                  static_cast<double>(minValue()),
                                  static_cast<double>(maxValue()));
            }
            cum += cnt;
        }
        return static_cast<double>(maxValue());
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0;
        min_ = ~std::uint64_t(0);
        max_ = 0;
        buckets_ = {};
    }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
    std::array<std::uint64_t, kBuckets> buckets_{};
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_HISTOGRAM_HH
