/**
 * @file
 * The benchmark's workloads. A workload is a fixed list of units; a
 * unit is one core::runServing or core::runCluster call at a fixed
 * configuration, and reports its simulated statistics by name.
 */

#ifndef AGENTSIM_PERFBENCH_WORKLOADS_HH
#define AGENTSIM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench
{

/** Simulated statistics of one unit run, in a fixed order. */
using Stats = std::vector<std::pair<std::string, double>>;

struct UnitOutcome
{
    /** Simulated requests completed (agent episodes or chat
     *  requests); the numerator of requests_per_s. */
    int requests = 0;
    Stats stats;
};

struct Unit
{
    std::string name;
    std::function<UnitOutcome()> run;
};

/** The units of @p workload with inputs drawn from @p seed; empty if
 *  there is no such workload. */
std::vector<Unit> makeUnits(std::string_view workload,
                            std::uint64_t seed);

} // namespace perfbench

#endif // AGENTSIM_PERFBENCH_WORKLOADS_HH
