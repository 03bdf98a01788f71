#include "trace/stats.hh"

#include <algorithm>
#include <cmath>

namespace edb::trace {

void
Summary::add(double x)
{
    ++n;
    total += x;
    double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
    if (n == 1) {
        lo = hi = x;
    } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
}

double
Summary::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

void
SampleSet::add(double x)
{
    samples.push_back(x);
    isSorted = false;
    stats.add(x);
}

const std::vector<double> &
SampleSet::sorted() const
{
    if (!isSorted) {
        std::sort(samples.begin(), samples.end());
        isSorted = true;
    }
    return samples;
}

double
SampleSet::quantile(double q) const
{
    if (samples.empty())
        return 0.0;
    const auto &s = sorted();
    if (q <= 0.0)
        return s.front();
    if (q >= 1.0)
        return s.back();
    double pos = q * static_cast<double>(s.size() - 1);
    std::size_t idx = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(idx);
    if (idx + 1 >= s.size())
        return s.back();
    return s[idx] * (1.0 - frac) + s[idx + 1] * frac;
}

double
SampleSet::cdfAt(double x) const
{
    if (samples.empty())
        return 0.0;
    const auto &s = sorted();
    auto it = std::upper_bound(s.begin(), s.end(), x);
    return static_cast<double>(it - s.begin()) /
           static_cast<double>(s.size());
}

std::vector<std::pair<double, double>>
SampleSet::cdfSeries(std::size_t points) const
{
    std::vector<std::pair<double, double>> series;
    if (samples.empty() || points < 2)
        return series;
    const auto &s = sorted();
    double lo = s.front();
    double hi = s.back();
    double span = hi - lo;
    series.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        double x = lo + span * static_cast<double>(i) /
                            static_cast<double>(points - 1);
        series.emplace_back(x, cdfAt(x));
    }
    return series;
}

} // namespace edb::trace
