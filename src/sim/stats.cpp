#include "sim/stats.hpp"

#include <cmath>
#include <utility>

#include "sim/logging.hpp"

namespace ccsim::sim {

void
SampleStats::add(double x)
{
    if (std::isnan(x)) {
        // A NaN sample would poison the mean and break the strict weak
        // ordering percentile sorting relies on; count it and move on.
        ++nanSamples;
        return;
    }
    samples.push_back(x);
    sorted = false;
    total += x;
    minVal = std::min(minVal, x);
    maxVal = std::max(maxVal, x);
}

double
SampleStats::mean() const
{
    return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

double
SampleStats::stddev() const
{
    if (samples.size() < 2)
        return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double x : samples)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(samples.size()));
}

double
SampleStats::percentile(double p) const
{
    if (std::isnan(p))
        panic("SampleStats::percentile: p is NaN");
    if (p < 0.0 || p > 100.0)
        panicf("SampleStats::percentile: p=", p, " out of [0,100]");
    if (samples.empty())
        return 0.0;
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
    // Linear interpolation between closest ranks (type-7 / numpy default).
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

void
SampleStats::clear()
{
    samples.clear();
    sorted = false;
    total = 0.0;
    minVal = std::numeric_limits<double>::infinity();
    maxVal = -std::numeric_limits<double>::infinity();
    nanSamples = 0;
}

LogHistogram::LogHistogram(double min_value, int bins_per_octave)
    : minValue(min_value), binsPerOctave(bins_per_octave)
{
    if (min_value <= 0.0)
        panic("LogHistogram: min_value must be positive");
    if (bins_per_octave < 1)
        panic("LogHistogram: bins_per_octave must be >= 1");
}

LogHistogram
LogHistogram::fromBins(Binning binning, std::vector<std::uint64_t> counts,
                       double sum)
{
    LogHistogram h(binning.minValue, binning.binsPerOctave);
    h.bins = std::move(counts);
    for (std::size_t i = 0; i < h.bins.size(); ++i) {
        if (h.bins[i] == 0)
            continue;
        if (h.totalCount == 0)
            h.minVal = h.binLowerEdge(i);
        h.maxVal = h.binLowerEdge(i + 1);
        h.totalCount += h.bins[i];
    }
    h.totalSum = sum;
    return h;
}

std::size_t
LogHistogram::binIndex(double x) const
{
    if (x <= minValue)
        return 0;
    const double octaves = std::log2(x / minValue);
    return 1 + static_cast<std::size_t>(octaves * binsPerOctave);
}

double
LogHistogram::binLowerEdge(std::size_t idx) const
{
    if (idx == 0)
        return 0.0;
    return minValue * std::exp2(static_cast<double>(idx - 1) / binsPerOctave);
}

void
LogHistogram::addN(double x, std::uint64_t n)
{
    if (n == 0)
        return;
    if (std::isnan(x)) {
        // log2(NaN) would produce a garbage bin index; count and skip.
        nanSamples += n;
        return;
    }
    const std::size_t idx = binIndex(x);
    if (idx >= bins.size())
        bins.resize(idx + 1, 0);
    bins[idx] += n;
    totalCount += n;
    totalSum += x * static_cast<double>(n);
    minVal = std::min(minVal, x);
    maxVal = std::max(maxVal, x);
}

double
LogHistogram::percentile(double p) const
{
    if (totalCount == 0)
        return 0.0;
    if (p < 0.0 || p > 100.0)
        panicf("LogHistogram::percentile: p=", p, " out of [0,100]");
    const auto target = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(totalCount)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        cum += bins[i];
        if (cum >= target && bins[i] > 0) {
            // Midpoint of the bin (geometric), clamped to observed range.
            const double lo = binLowerEdge(i);
            const double hi = binLowerEdge(i + 1);
            const double mid = lo > 0.0 ? std::sqrt(lo * hi) : hi * 0.5;
            return std::min(std::max(mid, minVal), maxVal);
        }
    }
    return maxVal;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (minValue != other.minValue || binsPerOctave != other.binsPerOctave)
        panic("LogHistogram::merge: binning parameters differ");
    if (other.bins.size() > bins.size())
        bins.resize(other.bins.size(), 0);
    for (std::size_t i = 0; i < other.bins.size(); ++i)
        bins[i] += other.bins[i];
    totalCount += other.totalCount;
    totalSum += other.totalSum;
    nanSamples += other.nanSamples;
    minVal = std::min(minVal, other.minVal);
    maxVal = std::max(maxVal, other.maxVal);
}

void
LogHistogram::clear()
{
    bins.clear();
    totalCount = 0;
    nanSamples = 0;
    totalSum = 0.0;
    minVal = std::numeric_limits<double>::infinity();
    maxVal = -std::numeric_limits<double>::infinity();
}

void
TimeWeighted::update(std::int64_t t_ps, double v)
{
    if (started && t_ps >= lastTime) {
        const auto dt = t_ps - lastTime;
        weightedSum += lastValue * static_cast<double>(dt);
        elapsed += dt;
    }
    started = true;
    lastTime = t_ps;
    lastValue = v;
    peakVal = std::max(peakVal, v);
}

double
TimeWeighted::average() const
{
    return elapsed > 0 ? weightedSum / static_cast<double>(elapsed) : lastValue;
}

}  // namespace ccsim::sim
