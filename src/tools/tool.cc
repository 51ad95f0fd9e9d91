#include "tools/tool.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace agentsim::tools
{

namespace
{

/** Wall time a failing tool call burns before erroring, seconds. */
constexpr double kToolFailureSeconds = 1.0;
/** Latency multiplier of a tool call that hits a spike. */
constexpr double kToolSlowdownFactor = 4.0;

} // namespace

double
LatencySpec::sample(sim::Rng &rng) const
{
    switch (dist) {
      case Dist::Constant:
        return a;
      case Dist::Uniform:
        return rng.uniform(a, b);
      case Dist::Lognormal:
        return rng.lognormalMean(a, b);
    }
    AGENTSIM_PANIC("unknown latency distribution");
}

double
LatencySpec::mean() const
{
    switch (dist) {
      case Dist::Constant:
        return a;
      case Dist::Uniform:
        return 0.5 * (a + b);
      case Dist::Lognormal:
        return a;
    }
    AGENTSIM_PANIC("unknown latency distribution");
}

std::int64_t
ObservationSpec::sample(sim::Rng &rng) const
{
    const double x = rng.normal(mean, sd);
    const auto tokens = static_cast<std::int64_t>(std::llround(x));
    return std::clamp(tokens, minTokens, maxTokens);
}

Tool::Tool(sim::Simulation &sim, std::string name, int max_concurrency)
    : sim_(sim), name_(std::move(name))
{
    if (max_concurrency > 0)
        limiter_.emplace(sim_, max_concurrency);
}

void
Tool::setFaults(const FaultProfile &profile)
{
    faults_ = profile;
    faultRng_.emplace(profile.seed, "fault.tool", sim::fnv1a(name_));
}

sim::Task<ToolResult>
Tool::invoke(sim::Rng &rng)
{
    const sim::Tick start = sim_.now();
    if (limiter_)
        co_await limiter_->acquire();

    // Sample injected faults before executing: a failing call still
    // holds its concurrency permit while burning wall time (a wedged
    // endpoint blocks other callers, just like a healthy slow one).
    bool fail = false;
    bool slow = false;
    if (faults_) {
        fail = faultRng_->bernoulli(faults_->failureProb);
        slow = !fail && faultRng_->bernoulli(faults_->slowdownProb);
    }

    ToolResult result;
    try {
        if (fail) {
            co_await sim::delaySec(sim_, kToolFailureSeconds);
            result.failed = true;
            result.observationTokens =
                faults_->failureObservationTokens;
            ++failures_;
        } else {
            const sim::Tick exec_start = sim_.now();
            result = co_await execute(rng);
            if (slow) {
                const double elapsed =
                    sim::toSeconds(sim_.now() - exec_start);
                co_await sim::delaySec(
                    sim_, elapsed * (kToolSlowdownFactor - 1.0));
                ++slowdowns_;
            }
        }
    } catch (...) {
        if (limiter_)
            limiter_->release();
        throw;
    }
    if (limiter_)
        limiter_->release();

    ++invocations_;
    result.latencySeconds = sim::toSeconds(sim_.now() - start);
    co_return result;
}

StochasticTool::StochasticTool(sim::Simulation &sim, std::string name,
                               LatencySpec latency,
                               ObservationSpec observation,
                               int max_concurrency)
    : Tool(sim, std::move(name), max_concurrency), latency_(latency),
      observation_(observation)
{
}

sim::Task<ToolResult>
StochasticTool::execute(sim::Rng &rng)
{
    const double latency = latency_.sample(rng);
    co_await sim::delaySec(sim_, latency);
    ToolResult result;
    result.observationTokens = observation_.sample(rng);
    co_return result;
}

} // namespace agentsim::tools
