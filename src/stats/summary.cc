#include "stats/summary.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/logging.hh"

namespace agentsim::stats
{

void
SampleSet::add(double x)
{
    values_.push_back(x);
    sortedValid_ = false;
}

double
SampleSet::mean() const
{
    if (values_.empty())
        return 0.0;
    return sum() / static_cast<double>(values_.size());
}

double
SampleSet::sum() const
{
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double
SampleSet::min() const
{
    AGENTSIM_ASSERT(!values_.empty(), "min of empty sample set");
    return *std::min_element(values_.begin(), values_.end());
}

double
SampleSet::max() const
{
    AGENTSIM_ASSERT(!values_.empty(), "max of empty sample set");
    return *std::max_element(values_.begin(), values_.end());
}

double
SampleSet::stddev() const
{
    if (values_.size() < 2)
        return 0.0;
    const double m = mean();
    double m2 = 0.0;
    for (double v : values_)
        m2 += (v - m) * (v - m);
    return std::sqrt(m2 / static_cast<double>(values_.size() - 1));
}

void
SampleSet::ensureSorted() const
{
    if (!sortedValid_) {
        sorted_ = values_;
        std::sort(sorted_.begin(), sorted_.end());
        sortedValid_ = true;
    }
}

double
SampleSet::percentile(double p) const
{
    AGENTSIM_ASSERT(!values_.empty(), "percentile of empty sample set");
    AGENTSIM_ASSERT(p >= 0.0 && p <= 100.0, "percentile %f out of range",
                    p);
    ensureSorted();
    if (sorted_.size() == 1)
        return sorted_.front();
    const double rank =
        p / 100.0 * static_cast<double>(sorted_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

} // namespace agentsim::stats
