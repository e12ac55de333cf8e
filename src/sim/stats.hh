/**
 * @file
 * A small statistics package: scalar counters, averages, arbitrary-edge
 * distributions, and log2-bucketed percentile histograms, organised into
 * named groups.
 */

#ifndef STACKNOC_SIM_STATS_HH
#define STACKNOC_SIM_STATS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace stacknoc::stats {

namespace detail {
/** Set while this thread runs a parallel compute phase. */
inline thread_local bool t_concurrent = false;

// Stat fields are plain uint64_t members updated through atomic_ref.
static_assert(std::atomic_ref<std::uint64_t>::required_alignment ==
              alignof(std::uint64_t));

/** dst += n, as a relaxed atomic add when @p concurrent. */
inline void
add(std::uint64_t &dst, std::uint64_t n, bool concurrent)
{
    if (concurrent)
        std::atomic_ref<std::uint64_t>(dst).fetch_add(
            n, std::memory_order_relaxed);
    else
        dst += n;
}
} // namespace detail

/**
 * Select how this thread updates stats. Every stat update is an integer
 * add, a min or a max, so updates commute: the final values do not
 * depend on the order in which components apply them. That lets the
 * sharded engine's workers update shared stat objects (one Counter
 * referenced by all 64 routers, one Average sampled by every NI, ...)
 * in place during a parallel compute phase. With @p on, updates are
 * relaxed atomic adds (compare-and-swap loops for Histogram min/max),
 * which keeps them race free; off (the default), they are plain adds.
 *
 * Stats are read only between phases (cycle-end callbacks, exporters),
 * never by a component during its tick.
 */
inline void
setConcurrentUpdates(bool on)
{
    detail::t_concurrent = on;
}

/** @return whether this thread updates stats atomically. */
inline bool
concurrentUpdates()
{
    return detail::t_concurrent;
}

/** A monotonically growing scalar statistic. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        detail::add(value_, n, concurrentUpdates());
    }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * An accumulating mean (sum / count) of integer samples (every caller
 * samples a cycle count). The sum is an exact integer; sum() and mean()
 * report it as a double, the same value a double accumulator would
 * hold for any sum below 2^53.
 */
class Average
{
  public:
    void
    sample(std::uint64_t v)
    {
        const bool concurrent = concurrentUpdates();
        detail::add(sum_, v, concurrent);
        detail::add(count_, 1, concurrent);
    }

    double mean() const { return count_ ? sum() / count_ : 0.0; }
    double sum() const { return static_cast<double>(sum_); }
    std::uint64_t count() const { return count_; }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
    }

  private:
    std::uint64_t sum_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A distribution over user-supplied bin edges.
 *
 * Edges {e0, e1, ..., en} define bins [0,e0), [e0,e1), ..., [en,inf).
 * Figure 3 of the paper uses edges {16, 33, 66, 99, 132, 165}.
 */
class Distribution
{
  public:
    Distribution() = default;
    explicit Distribution(std::vector<std::uint64_t> edges);

    void sample(std::uint64_t v, std::uint64_t weight = 1);

    std::size_t numBins() const { return counts_.size(); }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t total() const { return total_; }

    /** @return fraction of samples in bin @p i (0 when empty). */
    double binFraction(std::size_t i) const;

    /** Human-readable label of bin @p i, e.g. "[16,33)" or "165+". */
    std::string binLabel(std::size_t i) const;

    const std::vector<std::uint64_t> &edges() const { return edges_; }

    void reset();

  private:
    std::vector<std::uint64_t> edges_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * A log2-bucketed histogram: constant-size, O(1) sampling, approximate
 * percentiles. Bucket 0 holds the value 0; bucket i >= 1 holds values in
 * [2^(i-1), 2^i - 1]. Exact minimum, maximum and sum are tracked on the
 * side, so mean() is exact and percentile() is clamped to observed
 * bounds.
 */
class Histogram
{
  public:
    /** Buckets 0..64: value 0 plus one bucket per bit width. */
    static constexpr std::size_t kNumBuckets = 65;

    void sample(std::uint64_t v, std::uint64_t weight = 1);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const;
    std::uint64_t minValue() const { return count_ ? min_ : 0; }
    std::uint64_t maxValue() const { return max_; }

    /**
     * Rank-based percentile for @p p in [0, 1], linearly interpolated
     * inside the containing log2 bucket and clamped to the observed
     * [min, max]. Exact when the bucket holds a single value (0, 1) or
     * when p selects the extremes.
     */
    double percentile(double p) const;

    /** @return the bucket a value falls into. */
    static std::size_t bucketOf(std::uint64_t v);

    /** Inclusive lower bound of bucket @p i. */
    static std::uint64_t bucketLo(std::size_t i);

    /** Inclusive upper bound of bucket @p i. */
    static std::uint64_t bucketHi(std::size_t i);

    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts_.at(i);
    }

    void reset();

  private:
    std::array<std::uint64_t, kNumBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/**
 * A named collection of statistics. Groups own their stats; components
 * hold references obtained at construction time.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    Counter &counter(const std::string &stat_name);
    Average &average(const std::string &stat_name);
    Distribution &distribution(const std::string &stat_name,
                               std::vector<std::uint64_t> edges);
    Histogram &histogram(const std::string &stat_name);

    /** Lookup without creating; returns nullptr when absent. */
    const Counter *findCounter(const std::string &stat_name) const;
    const Average *findAverage(const std::string &stat_name) const;
    const Distribution *findDistribution(const std::string &stat_name) const;
    const Histogram *findHistogram(const std::string &stat_name) const;

    const std::string &name() const { return name_; }

    /** Pretty-print every stat in the group. */
    void dump(std::ostream &os) const;

    /** Reset every stat in the group to zero. */
    void reset();

    // Read-only iteration, used by the telemetry exporters.
    const std::map<std::string, Counter> &allCounters() const
    {
        return counters_;
    }
    const std::map<std::string, Average> &allAverages() const
    {
        return averages_;
    }
    const std::map<std::string, Distribution> &allDistributions() const
    {
        return distributions_;
    }
    const std::map<std::string, Histogram> &allHistograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Distribution> distributions_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace stacknoc::stats

#endif // STACKNOC_SIM_STATS_HH
