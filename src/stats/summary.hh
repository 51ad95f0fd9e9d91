/**
 * @file
 * An exact sample set with percentile queries, used by every
 * experiment reporter.
 */

#ifndef AGENTSIM_STATS_SUMMARY_HH
#define AGENTSIM_STATS_SUMMARY_HH

#include <cstddef>
#include <vector>

namespace agentsim::stats
{

/**
 * Stores every observation; supports exact percentile queries via
 * linear interpolation between order statistics.
 */
class SampleSet
{
  public:
    /** Add one observation. */
    void add(double x);

    std::size_t count() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double mean() const;
    double min() const;
    double max() const;
    double sum() const;
    double stddev() const;

    /**
     * Percentile in [0, 100] via linear interpolation.
     * Panics on an empty set.
     */
    double percentile(double p) const;

    /** Median shorthand. */
    double median() const { return percentile(50.0); }

    /** Read access to the raw samples (unsorted, insertion order). */
    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;

    void ensureSorted() const;
};

} // namespace agentsim::stats

#endif // AGENTSIM_STATS_SUMMARY_HH
