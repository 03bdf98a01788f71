/**
 * @file
 * Summary statistics and empirical CDFs.
 *
 * Used by the benchmark harnesses to report the paper's tables
 * (mean / standard deviation in Table 3, CDF series in Figure 11).
 */

#ifndef EDB_TRACE_STATS_HH
#define EDB_TRACE_STATS_HH

#include <cstddef>
#include <vector>

namespace edb::trace {

/**
 * Online accumulator for mean / variance / extrema (Welford).
 */
class Summary
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples added. */
    std::size_t count() const { return n; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return n ? mu : 0.0; }

    /** Unbiased sample standard deviation (0 when n < 2). */
    double stddev() const;

    /** Population variance numerator / (n-1). */
    double variance() const;

    /** Smallest sample seen. */
    double min() const { return n ? lo : 0.0; }

    /** Largest sample seen. */
    double max() const { return n ? hi : 0.0; }

    /** Sum of all samples. */
    double sum() const { return total; }

  private:
    std::size_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double total = 0.0;
};

/**
 * Batch sample set with quantile / CDF queries.
 *
 * Samples are stored and sorted lazily on first query.
 */
class SampleSet
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples. */
    std::size_t count() const { return samples.size(); }

    /** True when no samples were added. */
    bool empty() const { return samples.empty(); }

    /** Quantile q in [0,1] by linear interpolation. */
    double quantile(double q) const;

    /** Median (quantile 0.5). */
    double median() const { return quantile(0.5); }

    /** Empirical CDF evaluated at x: P(sample <= x). */
    double cdfAt(double x) const;

    /**
     * Evaluate the CDF at `points` evenly spaced values spanning
     * [min, max]; returns (x, P) pairs, suitable for plotting
     * Figure 11-style curves.
     */
    std::vector<std::pair<double, double>> cdfSeries(std::size_t points)
        const;

    /** Summary statistics over the same samples. */
    const Summary &summary() const { return stats; }

    /** Sorted copy of the samples. */
    const std::vector<double> &sorted() const;

  private:
    mutable std::vector<double> samples;
    mutable bool isSorted = true;
    Summary stats;
};

} // namespace edb::trace

#endif // EDB_TRACE_STATS_HH
