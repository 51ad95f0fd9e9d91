/**
 * @file
 * Windowed time-series store: per-metric ring buffers sampled at a
 * fixed sim-clock cadence.
 *
 * The metrics registry answers "what is the value now"; the Chrome
 * trace answers "what happened to this request". Neither answers the
 * operator question "what did the system look like over the last N
 * seconds" without unbounded retention. This store does: every
 * registered metric (plus any live signal recorded directly) is
 * sampled into a bounded ring, so windowed queries — rate of a
 * counter, derivative of a gauge, min/mean/max over an interval —
 * stay O(window) at a fixed memory cost regardless of run length.
 *
 * The flight recorder exports a window of this store into each
 * incident bundle, giving every alert its surrounding context.
 */

#ifndef AGENTSIM_TELEMETRY_TIMESERIES_HH
#define AGENTSIM_TELEMETRY_TIMESERIES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace agentsim::telemetry
{

class MetricsRegistry;

/** One (tick, value) observation in a series ring. */
struct TsPoint
{
    sim::Tick tick = 0;
    double value = 0.0;
};

/** Aggregate of the points inside a query window. */
struct TsWindowStats
{
    std::size_t samples = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double last = 0.0;
};

class TimeSeriesStore
{
  public:
    struct Config
    {
        /** Sampling cadence, virtual seconds: the fleet's sampler
         *  coroutine wakes at this period (record() itself is
         *  cadence-free). */
        double periodSeconds = 0.5;
        /** Points retained per series (ring capacity). */
        std::size_t capacity = 512;
    };

    TimeSeriesStore() = default;
    explicit TimeSeriesStore(Config config) : config_(config) {}

    void setConfig(Config config);
    const Config &config() const { return config_; }

    /** Record one point of a named live signal. */
    void record(const std::string &name, sim::Tick now, double value);

    /**
     * Sample every scalar the registry exposes at @p now (one ring
     * point per metric). The periodic sampler coroutine calls this at
     * config().periodSeconds cadence.
     */
    void sample(const MetricsRegistry &registry, sim::Tick now);

    std::size_t seriesCount() const { return series_.size(); }
    bool has(const std::string &name) const
    {
        return index_.count(name) != 0;
    }

    /** Retained points of @p name inside [from, to], oldest first. */
    std::vector<TsPoint> window(const std::string &name, sim::Tick from,
                                sim::Tick to) const;

    /** Min/max/mean/last of @p name inside [from, to]. */
    TsWindowStats windowStats(const std::string &name, sim::Tick from,
                              sim::Tick to) const;

    /**
     * Average increase per second of @p name across [from, to]
     * (last - first over elapsed): the windowed *rate* of a counter.
     * 0 with fewer than two in-window points.
     */
    double windowRate(const std::string &name, sim::Tick from,
                      sim::Tick to) const;

    /**
     * Instantaneous derivative at the newest in-window point (slope
     * of the last two points): the direction a gauge is heading.
     * 0 with fewer than two in-window points.
     */
    double windowDerivative(const std::string &name, sim::Tick from,
                            sim::Tick to) const;

    /**
     * CSV of every series restricted to [from, to]: long format
     * (series,time_s,value) so rings with different cadences export
     * cleanly side by side.
     */
    std::string renderCsvWindow(sim::Tick from, sim::Tick to) const;

    /** Total points currently retained across all rings. */
    std::size_t pointsRetained() const;

    /** Drop all series (reused across bench sweep points). */
    void clear();

  private:
    /** Fixed-capacity ring of (tick, value) points. */
    struct Ring
    {
        std::string name;
        std::vector<TsPoint> points; ///< size <= capacity
        std::size_t head = 0;        ///< next write slot once full
        bool full = false;

        void push(const TsPoint &p, std::size_t capacity);
        /** Points in [from, to], oldest first. */
        std::vector<TsPoint> window(sim::Tick from, sim::Tick to) const;
    };

    Config config_;
    std::vector<Ring> series_;
    std::unordered_map<std::string, std::size_t> index_;

    Ring &ringFor(const std::string &name);
    const Ring *findRing(const std::string &name) const;
};

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_TIMESERIES_HH
