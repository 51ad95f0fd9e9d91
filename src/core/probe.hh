/**
 * @file
 * Single-request characterization probes (paper §IV-A/B, §V): run an
 * agent over a set of tasks one request at a time against a warm
 * serving engine, and collect per-request latency, token, GPU-phase,
 * KV-memory and energy measurements. A probe is a closed-loop run of
 * the one-node fleet (core/serving_system.hh), so it shares the
 * serving system's driver, workers and observers.
 */

#ifndef AGENTSIM_CORE_PROBE_HH
#define AGENTSIM_CORE_PROBE_HH

#include <vector>

#include "agents/workflows.hh"
#include "serving/engine.hh"
#include "stats/summary.hh"
#include "telemetry/session.hh"
#include "workload/benchmark.hh"

namespace agentsim::core
{

/** Engine preset: Llama-3.1-8B on one A100 (paper default). */
serving::EngineConfig enginePreset8b();

/** Engine preset: Llama-3.1-70B on 8 A100s, TP=8. */
serving::EngineConfig enginePreset70b();

/** Probe configuration. */
struct ProbeConfig
{
    agents::AgentKind agent{};
    workload::Benchmark bench{};
    agents::AgentConfig agentConfig;
    /** The node's engine; its seed is derived from `seed`, as for
     *  every fleet node. */
    serving::EngineConfig engineConfig;
    /** Number of tasks, processed strictly one at a time. */
    int numTasks = 20;
    std::uint64_t seed = 1;

    /** Optional telemetry collection (see ServeConfig::telemetry). */
    telemetry::SessionTelemetry *telemetry = nullptr;

    /**
     * Optional causal span collector. Defaults to the session's
     * collector when `telemetry` is set; point it elsewhere to keep
     * span trees out of the session. Every task then yields a
     * critical-path blame vector in RequestProbe::blame.
     */
    telemetry::SpanCollector *spans = nullptr;
};

/** Per-request window measurements around one agent run. */
struct RequestProbe
{
    agents::AgentResult result;
    /** Node GPU energy within the request window (incl. idle), Wh. */
    double energyWh = 0.0;
    /** GPU-busy seconds within the window. */
    double gpuBusySeconds = 0.0;
    double gpuPrefillSeconds = 0.0;
    double gpuDecodeSeconds = 0.0;
    /** DCGM-style SM-active seconds within the window. */
    double gpuCoreActiveSeconds = 0.0;
    /** Time-average / peak KV-cache bytes over the window. */
    double kvAvgBytes = 0.0;
    double kvMaxBytes = 0.0;
    /** FLOPs the engine attributed to this request's calls. */
    double flops = 0.0;
    /** Critical-path blame (all zero unless spans were collected). */
    telemetry::BlameVector blame;
};

/** Probe output: all requests plus common aggregates. */
struct ProbeResult
{
    ProbeConfig config;
    std::vector<RequestProbe> requests;

    double accuracy() const;
    stats::SampleSet e2eSeconds() const;
    double meanLlmCalls() const;
    double meanToolCalls() const;
    double meanEnergyWh() const;
    double meanFlops() const;
    /** Mean share of the request window the GPU sat idle. */
    double meanGpuIdleFraction() const;

    /** Attributed cost summed over all rollouts (their LLM calls). */
    serving::CostLedger totalCost() const;
};

/** Run the probe. */
ProbeResult runProbe(const ProbeConfig &config);

} // namespace agentsim::core

#endif // AGENTSIM_CORE_PROBE_HH
