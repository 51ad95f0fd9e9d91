/**
 * @file
 * Tool abstraction: the external-environment side of the agent loop.
 *
 * A tool call occupies virtual time (sampled from a per-tool latency
 * distribution) and returns an observation of some token length, which
 * the agent appends to its context. Tools optionally limit concurrency
 * (shared external endpoints) and may themselves consume GPU time by
 * issuing LLM calls (HumanEval's self-test generation, §IV-A).
 */

#ifndef AGENTSIM_TOOLS_TOOL_HH
#define AGENTSIM_TOOLS_TOOL_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sim/awaitable.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"

namespace agentsim::tools
{

/** Outcome of one tool invocation. */
struct ToolResult
{
    /** Observation length appended to the agent context, tokens. */
    std::int64_t observationTokens = 0;
    /** Wall time the call took (including any queueing). */
    double latencySeconds = 0.0;
    /** True if the call consumed GPU time (LLM-in-the-loop tools). */
    bool usedGpu = false;
    /**
     * Injected fault: the call burned wall time and returned an error
     * observation instead of a useful one. The agent still appends the
     * (short) error text to its context and carries on.
     */
    bool failed = false;
};

/**
 * Fault-injection profile for a tool endpoint (chaos experiments).
 * Sampled from a tool-owned deterministic stream, so enabling faults
 * on one tool never perturbs another tool's draws.
 */
struct FaultProfile
{
    /** Probability a call fails outright, burning
     *  kToolFailureSeconds (tool.cc) before erroring. */
    double failureProb = 0.0;
    /** Error-observation length returned by a failed call, tokens. */
    std::int64_t failureObservationTokens = 16;
    /** Probability a (non-failing) call hits a latency spike of
     *  kToolSlowdownFactor (tool.cc) times its latency. */
    double slowdownProb = 0.0;
    /** Seed for the tool's "fault.tool" stream. */
    std::uint64_t seed = 1;
};

/** Latency distribution specification. */
struct LatencySpec
{
    enum class Dist
    {
        Constant,  ///< a seconds, exactly
        Uniform,   ///< uniform in [a, b] seconds
        Lognormal, ///< mean a seconds, log-sigma b (heavy tailed)
    };

    Dist dist = Dist::Constant;
    double a = 0.0;
    double b = 0.0;

    /** Sample one latency in seconds. */
    double sample(sim::Rng &rng) const;

    /** Expected value of the distribution, seconds. */
    double mean() const;
};

/** Observation-length distribution specification. */
struct ObservationSpec
{
    double mean = 100.0;
    double sd = 30.0;
    std::int64_t minTokens = 10;
    std::int64_t maxTokens = 2000;

    /** Sample one observation length in tokens. */
    std::int64_t sample(sim::Rng &rng) const;
};

/**
 * Base class for simulated tools.
 */
class Tool
{
  public:
    /**
     * @param sim owning simulation.
     * @param name stable tool name (for traces and reports).
     * @param max_concurrency >0 limits in-flight calls; 0 = unlimited.
     */
    Tool(sim::Simulation &sim, std::string name, int max_concurrency = 0);

    virtual ~Tool() = default;

    Tool(const Tool &) = delete;
    Tool &operator=(const Tool &) = delete;

    const std::string &name() const { return name_; }

    /** True if invocations keep the GPU busy (LLM-backed tools). */
    virtual bool usesGpu() const { return false; }

    /**
     * Expected GPU-idle wall time of one invocation, seconds — the
     * agent layer's KV-parking hint (how long its chain will sit idle
     * while this tool runs). 0 for tools with no usable estimate.
     */
    virtual double expectedLatencySeconds() const { return 0.0; }

    /**
     * Invoke the tool. @p rng is the caller's request-level stream so
     * results are deterministic per request regardless of tool
     * sharing.
     */
    sim::Task<ToolResult> invoke(sim::Rng &rng);

    /**
     * Enable fault injection on this endpoint. Failures and latency
     * spikes are sampled per call from a stream derived from
     * (profile.seed, "fault.tool", hash(name)).
     */
    void setFaults(const FaultProfile &profile);

    /** Number of completed invocations (including failed ones). */
    std::int64_t invocations() const { return invocations_; }

    /** Number of injected call failures. */
    std::int64_t failures() const { return failures_; }

    /** Number of injected latency spikes. */
    std::int64_t slowdowns() const { return slowdowns_; }

  protected:
    /** Tool-specific behaviour; runs inside the concurrency permit. */
    virtual sim::Task<ToolResult> execute(sim::Rng &rng) = 0;

    sim::Simulation &sim_;

  private:
    std::string name_;
    std::optional<sim::Semaphore> limiter_;
    std::int64_t invocations_ = 0;
    std::int64_t failures_ = 0;
    std::int64_t slowdowns_ = 0;
    std::optional<FaultProfile> faults_;
    std::optional<sim::Rng> faultRng_;
};

/**
 * A tool fully described by latency and observation distributions —
 * covers Wikipedia, WebShop navigation, Wolfram and the Python
 * calculator/executor.
 */
class StochasticTool : public Tool
{
  public:
    StochasticTool(sim::Simulation &sim, std::string name,
                   LatencySpec latency, ObservationSpec observation,
                   int max_concurrency = 0);

    const LatencySpec &latency() const { return latency_; }
    const ObservationSpec &observation() const { return observation_; }

    double expectedLatencySeconds() const override
    {
        return latency_.mean();
    }

  protected:
    sim::Task<ToolResult> execute(sim::Rng &rng) override;

  private:
    LatencySpec latency_;
    ObservationSpec observation_;
};

} // namespace agentsim::tools

#endif // AGENTSIM_TOOLS_TOOL_HH
