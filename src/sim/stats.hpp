/**
 * @file
 * Measurement primitives: exact sample sets with percentile queries,
 * memory-bounded log-binned histograms, running summaries, counters, and
 * time-weighted averages. These back every figure reproduction in the benches.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace ccsim::sim {

/**
 * Exact sample statistics.
 *
 * Stores every sample; percentile queries sort lazily. Suitable for up to
 * tens of millions of samples (the largest experiment records ~2M query
 * latencies).
 */
class SampleStats
{
  public:
    /** Record one sample. */
    void add(double x);

    /** Number of samples. */
    std::size_t count() const { return samples.size(); }
    /** True if no samples have been recorded. */
    bool empty() const { return samples.empty(); }
    /** NaN inputs passed to add(); they are counted but not recorded. */
    std::size_t nanCount() const { return nanSamples; }

    /** Arithmetic mean (0 if empty). */
    double mean() const;
    /** Minimum sample (+inf if empty). */
    double min() const { return minVal; }
    /** Maximum sample (-inf if empty). */
    double max() const { return maxVal; }
    /** Sum of all samples. */
    double sum() const { return total; }
    /** Population standard deviation (0 if fewer than 2 samples). */
    double stddev() const;

    /**
     * The p-th percentile using nearest-rank interpolation.
     *
     * @param p Percentile in [0, 100]; NaN panics. A single-sample set
     *          returns that sample for every p, including 0 and 100.
     */
    double percentile(double p) const;

    /** Shorthand: percentile(50). */
    double median() const { return percentile(50.0); }

    /** Drop all samples. */
    void clear();

    /** Read-only access to the raw samples (unsorted). */
    const std::vector<double> &raw() const { return samples; }

  private:
    mutable std::vector<double> samples;
    mutable bool sorted = false;
    double total = 0.0;
    double minVal = std::numeric_limits<double>::infinity();
    double maxVal = -std::numeric_limits<double>::infinity();
    std::size_t nanSamples = 0;
};

/**
 * Log-binned histogram: constant memory regardless of sample count.
 *
 * Bins are geometric with a configurable number of sub-bins per octave
 * (HdrHistogram-style). Relative quantile error is bounded by the bin
 * width (~1.5% at 48 bins/octave).
 */
class LogHistogram
{
  public:
    /**
     * @param min_value    Values at or below this land in the first bin.
     * @param bins_per_octave Resolution (sub-bins per doubling).
     */
    explicit LogHistogram(double min_value = 1.0, int bins_per_octave = 48);

    /** Binning parameters (two histograms merge iff these are equal). */
    struct Binning {
        double minValue;
        int binsPerOctave;
    };

    /**
     * A histogram rebuilt from per-bin counts (as binCounts() returns
     * them) and the sum of its samples, e.g. the difference of two
     * binCounts() snapshots of one histogram. The exact min and max are
     * unknown, so they become the outer edges of the first and last
     * occupied bins; percentile() then reads bin midpoints unclamped.
     */
    static LogHistogram fromBins(Binning binning,
                                 std::vector<std::uint64_t> counts,
                                 double sum);

    /** Record one sample. */
    void add(double x) { addN(x, 1); }

    /** Record @p n identical samples. NaN values are counted but not binned. */
    void addN(double x, std::uint64_t n);

    /** Number of samples recorded. */
    std::uint64_t count() const { return totalCount; }

    /** NaN inputs passed to add()/addN() (skipped, not binned). */
    std::uint64_t nanCount() const { return nanSamples; }

    /**
     * Fold another histogram into this one. Both must share the same
     * min_value and bins_per_octave (panics otherwise).
     */
    void merge(const LogHistogram &other);

    /** Approximate p-th percentile (p in [0,100]). */
    double percentile(double p) const;

    /** Exact mean of recorded samples. */
    double mean() const { return totalCount ? totalSum / totalCount : 0.0; }

    /** Exact max of recorded samples. */
    double max() const { return maxVal; }

    /** Exact min of recorded samples. */
    double min() const { return minVal; }

    /** Exact sum of recorded samples. */
    double sum() const { return totalSum; }

    Binning binning() const
    {
        return {minValue, static_cast<int>(binsPerOctave)};
    }

    /**
     * Per-bin counts (index 0 is the <= min_value underflow bin). Until
     * clear(), counts only ever grow, so two snapshots of one histogram
     * differ by the exact bin counts of the samples recorded in between
     * (fromBins() turns them into a windowed histogram).
     */
    const std::vector<std::uint64_t> &binCounts() const { return bins; }

    /** Drop all samples. */
    void clear();

  private:
    double minValue;
    double binsPerOctave;
    std::vector<std::uint64_t> bins;
    std::uint64_t totalCount = 0;
    std::uint64_t nanSamples = 0;
    double totalSum = 0.0;
    double minVal = std::numeric_limits<double>::infinity();
    double maxVal = -std::numeric_limits<double>::infinity();

    std::size_t binIndex(double x) const;
    double binLowerEdge(std::size_t idx) const;
};

/**
 * Count, sum, min and max of a sample stream, in constant memory: the
 * summary SampleStats keeps beside its samples, without the samples.
 */
class RunningStats
{
  public:
    void add(double x)
    {
        ++n;
        total += x;
        minVal = std::min(minVal, x);
        maxVal = std::max(maxVal, x);
    }

    std::size_t count() const { return n; }
    bool empty() const { return n == 0; }
    double sum() const { return total; }
    /** Arithmetic mean (0 if empty). */
    double mean() const { return n == 0 ? 0.0 : total / double(n); }
    /** Minimum sample (+inf if empty). */
    double min() const { return minVal; }
    /** Maximum sample (-inf if empty). */
    double max() const { return maxVal; }

  private:
    std::size_t n = 0;
    double total = 0.0;
    double minVal = std::numeric_limits<double>::infinity();
    double maxVal = -std::numeric_limits<double>::infinity();
};

/** A simple monotonically increasing counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value += n; }
    std::uint64_t get() const { return value; }
    void reset() { value = 0; }

  private:
    std::uint64_t value = 0;
};

/**
 * Time-weighted average of a piecewise-constant signal (e.g. queue depth).
 *
 * Call update(t, v) whenever the signal changes; the value v is assumed to
 * hold from t until the next update.
 */
class TimeWeighted
{
  public:
    /** Record that the signal takes value @p v from time @p t_ps onward. */
    void update(std::int64_t t_ps, double v);

    /** Time-weighted mean over [first update, last update). */
    double average() const;

    /** Peak value seen. */
    double peak() const { return peakVal; }

  private:
    bool started = false;
    std::int64_t lastTime = 0;
    double lastValue = 0.0;
    double weightedSum = 0.0;
    std::int64_t elapsed = 0;
    double peakVal = 0.0;
};

}  // namespace ccsim::sim
