#include "core/probe.hh"

#include "core/serving_system.hh"
#include "sim/logging.hh"

namespace agentsim::core
{

serving::EngineConfig
enginePreset8b()
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    cfg.enablePrefixCaching = true;
    return cfg;
}

serving::EngineConfig
enginePreset70b()
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_70b();
    cfg.node = llm::octoA100();
    cfg.enablePrefixCaching = true;
    return cfg;
}

ProbeResult
runProbe(const ProbeConfig &config)
{
    AGENTSIM_ASSERT(config.numTasks > 0, "probe without tasks");
    if (!agents::agentSupports(config.agent, config.bench)) {
        AGENTSIM_FATAL("the paper does not evaluate %s on %s",
                       std::string(agents::agentName(config.agent))
                           .c_str(),
                       std::string(workload::benchmarkName(
                                       config.bench))
                           .c_str());
    }

    // The probe is closed-loop serving: one task at a time on the
    // one-node fleet.
    ServeConfig serve;
    serve.agent = config.agent;
    serve.bench = config.bench;
    serve.agentConfig = config.agentConfig;
    serve.engineConfig = config.engineConfig;
    serve.closedLoop = true;
    serve.numRequests = config.numTasks;
    serve.seed = config.seed;
    serve.telemetry = config.telemetry;
    serve.spans = config.spans;

    ProbeResult out;
    out.config = config;
    out.requests.reserve(static_cast<std::size_t>(config.numTasks));

    // In a closed loop request i's window opens at the tick where
    // request i - 1's closed, so each completion measures the engine
    // against the previous one and re-marks the KV gauge.
    sim::Tick start = 0;
    double joules0 = 0.0;
    serving::EngineStats stats0;
    double kv_integral0 = 0.0;
    auto measure = [&](serving::LlmEngine &engine, sim::Tick end,
                       agents::AgentResult &&result,
                       const telemetry::BlameVector &blame) {
        const serving::EngineStats &stats = engine.stats();
        const double joules = engine.energyJoules(end);
        const double kv_integral = engine.kvUsageGauge().integral(end);
        const double block_bytes =
            static_cast<double>(engine.blockBytes());
        RequestProbe probe;
        probe.result = std::move(result);
        probe.energyWh = (joules - joules0) / 3600.0;
        probe.gpuBusySeconds = stats.busySeconds - stats0.busySeconds;
        probe.gpuPrefillSeconds =
            stats.prefillSeconds - stats0.prefillSeconds;
        probe.gpuDecodeSeconds =
            stats.decodeSeconds - stats0.decodeSeconds;
        probe.gpuCoreActiveSeconds =
            stats.coreActiveSeconds - stats0.coreActiveSeconds;
        const double ticks = static_cast<double>(end - start);
        probe.kvAvgBytes =
            ticks > 0 ? (kv_integral - kv_integral0) / ticks * block_bytes
                      : 0.0;
        probe.kvMaxBytes =
            engine.kvUsageGauge().maxSinceMark() * block_bytes;
        probe.flops = stats.totalFlops - stats0.totalFlops;
        probe.blame = blame;
        out.requests.push_back(std::move(probe));

        start = end;
        joules0 = joules;
        stats0 = stats;
        kv_integral0 = kv_integral;
        engine.kvUsageGaugeMut().mark();
    };
    detail::runServingPath(serve, measure);
    return out;
}

double
ProbeResult::accuracy() const
{
    if (requests.empty())
        return 0.0;
    double solved = 0.0;
    for (const auto &r : requests)
        solved += r.result.solved ? 1.0 : 0.0;
    return solved / static_cast<double>(requests.size());
}

stats::SampleSet
ProbeResult::e2eSeconds() const
{
    stats::SampleSet s;
    for (const auto &r : requests)
        s.add(r.result.e2eSeconds);
    return s;
}

double
ProbeResult::meanLlmCalls() const
{
    if (requests.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &r : requests)
        total += r.result.llmCalls;
    return total / static_cast<double>(requests.size());
}

double
ProbeResult::meanToolCalls() const
{
    if (requests.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &r : requests)
        total += r.result.toolCalls;
    return total / static_cast<double>(requests.size());
}

double
ProbeResult::meanEnergyWh() const
{
    if (requests.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &r : requests)
        total += r.energyWh;
    return total / static_cast<double>(requests.size());
}

double
ProbeResult::meanFlops() const
{
    if (requests.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &r : requests)
        total += r.flops;
    return total / static_cast<double>(requests.size());
}

serving::CostLedger
ProbeResult::totalCost() const
{
    serving::CostLedger sum;
    for (const auto &r : requests)
        sum += r.result.cost;
    return sum;
}

double
ProbeResult::meanGpuIdleFraction() const
{
    if (requests.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &r : requests) {
        if (r.result.e2eSeconds > 0) {
            total += 1.0 - r.gpuBusySeconds / r.result.e2eSeconds;
        }
    }
    return total / static_cast<double>(requests.size());
}

} // namespace agentsim::core
