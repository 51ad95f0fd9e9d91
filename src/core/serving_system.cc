#include "core/serving_system.hh"

#include <algorithm>

#include "agents/accuracy.hh"
#include "sim/logging.hh"
#include "telemetry/sim_metrics.hh"

namespace agentsim::core
{

namespace
{

/** Observe every sample of @p samples into a fresh 20-bin histogram. */
void
exportLatencyHistogram(telemetry::MetricsRegistry &registry,
                       const char *name, const char *help,
                       const stats::SampleSet &samples)
{
    if (samples.empty())
        return;
    auto &h = registry.histogram(name, help, 0.0,
                                 std::max(1.0, samples.max() * 1.001), 20);
    for (double v : samples.values())
        h.observe(v);
}

} // namespace

ClusterResult
detail::runServingPath(const ServeConfig &config,
                       RequestPathModes::AgentDone on_agent_done)
{
    AGENTSIM_ASSERT(config.numRequests > 0, "serving without requests");
    if (!config.closedLoop && !(config.qps > 0)) {
        AGENTSIM_FATAL("serving config: open-loop serving needs qps > 0 "
                       "(got %g)", config.qps);
    }
    if (!config.chatbot &&
        !agents::agentSupports(config.agent, config.bench)) {
        AGENTSIM_FATAL("unsupported agent/benchmark pair in serving");
    }

    // The serving system is the one-node, fault-free fleet.
    ClusterConfig fleet;
    fleet.numNodes = 1;
    fleet.engineConfig = config.engineConfig;
    WorkloadSpec spec;
    spec.chatbot = config.chatbot;
    spec.agent = config.agent;
    spec.bench = config.bench;
    spec.agentConfig = config.agentConfig;
    fleet.mix = {spec};
    fleet.qps = config.qps;
    fleet.numRequests = config.numRequests;
    fleet.seed = config.seed;
    telemetry::SessionTelemetry *t = config.telemetry;
    fleet.traceSink = t != nullptr ? &t->trace : nullptr;
    fleet.metrics = t != nullptr ? &t->registry : nullptr;
    fleet.slo = config.slo;
    fleet.spans = config.spans != nullptr
                      ? config.spans
                      : (t != nullptr ? &t->spans : nullptr);
    fleet.recorder = config.recorder;
    fleet.timeseries = config.timeseries;

    detail::RequestPathModes modes;
    // Serving's own arrival stream, pinned by BENCH_agentsim.json
    // (fig14) and the serving workloads of perfbench/reference.json.
    modes.arrivalStream = "arrivals";
    modes.closedLoop = config.closedLoop;
    modes.multiTurn = config.multiTurn;
    if (t != nullptr) {
        modes.servingExport = [t](const sim::Simulation &sim,
                                  const serving::LlmEngine &engine,
                                  const ClusterResult &r) {
            engine.exportMetrics(t->registry);
            telemetry::exportSimMetrics(t->registry, sim);
            exportLatencyHistogram(t->registry,
                                   "agentsim_request_e2e_seconds",
                                   "End-to-end request latency",
                                   r.e2eSeconds);
            exportLatencyHistogram(t->registry, "agentsim_ttft_seconds",
                                   "Time to first token", r.ttftSeconds);
            t->registry.snapshot(sim.now());
            t->engineSamples = engine.sampler().samples();
        };
    }
    modes.onAgentDone = std::move(on_agent_done);
    return detail::runRequestPath(fleet, modes);
}

ServeResult
runServing(const ServeConfig &config)
{
    ClusterResult r = detail::runServingPath(config, {});

    const NodeResult &node = r.nodes.front();
    ServeResult out;
    out.e2eSeconds = std::move(r.e2eSeconds);
    out.turnSeconds = std::move(r.turnSeconds);
    out.ttftSeconds = std::move(r.ttftSeconds);
    out.completed = r.completed;
    out.solved = r.solved;
    out.makespanSeconds = r.makespanSeconds;
    out.engineStats = node.engineStats;
    out.cacheStats = node.cacheStats;
    out.cacheHitRate = node.cacheHitRate;
    out.kvAvgBytes = node.kvAvgBytes;
    out.kvMaxBytes = node.kvMaxBytes;
    out.energyWh = node.energyWh;
    out.totalCost = r.episodeCost;
    out.totalCost += r.chatCost;
    out.simWallSeconds = r.simWallSeconds;
    out.simEventsProcessed = r.simEventsProcessed;
    out.simEventsPerSecond = r.simEventsPerSecond;
    return out;
}

} // namespace agentsim::core
