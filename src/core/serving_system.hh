/**
 * @file
 * The agent serving system of paper Fig 13: an open-loop Poisson
 * request driver feeding asynchronous workers which run agent
 * workflows (or chatbot requests) against one shared
 * continuous-batching LLM engine and a shared tool belt. It runs as
 * the one-node, fault-free fleet of core/cluster.hh, through the same
 * driver, workers and observers as runCluster().
 */

#ifndef AGENTSIM_CORE_SERVING_SYSTEM_HH
#define AGENTSIM_CORE_SERVING_SYSTEM_HH

#include "agents/workflows.hh"
#include "serving/engine.hh"
#include "stats/summary.hh"
#include "telemetry/session.hh"
#include "workload/benchmark.hh"

namespace agentsim::core
{

/** Serving-experiment configuration. */
struct ServeConfig
{
    /** Serve single-turn ShareGPT requests instead of an agent. */
    bool chatbot = false;
    /**
     * With chatbot: serve multi-turn conversation *sessions*. Each
     * request is a session; successive turns extend the same context
     * (keytakeaway #8's cross-query prefix persistence).
     */
    bool multiTurn = false;

    agents::AgentKind agent = agents::AgentKind::ReAct;
    workload::Benchmark bench = workload::Benchmark::HotpotQA;
    agents::AgentConfig agentConfig;
    serving::EngineConfig engineConfig;

    /** Offered load (Poisson arrivals). Ignored in closed-loop mode. */
    double qps = 1.0;
    /**
     * Closed-loop mode: issue each request only after the previous
     * one completes (the "sequential execution" comparison, §IV-C).
     */
    bool closedLoop = false;

    int numRequests = 100;
    std::uint64_t seed = 1;

    /**
     * Optional telemetry collection: when set, the run attaches the
     * session's trace sink to the engine and every agent rollout,
     * exports end-of-run engine metrics and request-latency
     * histograms into the registry, and copies the engine's
     * per-iteration sample series out before the engine is torn down.
     * The session must outlive the call.
     */
    telemetry::SessionTelemetry *telemetry = nullptr;

    /**
     * Optional online SLO tracker: when set it is attached to the
     * engine for the run (TTFT/TBT/E2E observations, burn-rate
     * alerts) and its families are exported into the telemetry
     * registry at the end. Must outlive the call.
     */
    telemetry::SloTracker *slo = nullptr;

    /**
     * Optional causal span collector. Defaults to the session's
     * collector when `telemetry` is set. Every request then gets a
     * span tree (engine phases, agent iterations, tool calls) that
     * collapses to a critical-path blame vector on completion; blame
     * aggregates and tail exemplars are exported with the telemetry
     * (core/bottleneck_report.hh). Must outlive the call.
     */
    telemetry::SpanCollector *spans = nullptr;

    /**
     * Optional flight recorder: trace events and span completions
     * tee into its retroactive rings and SLO burn alerts (when `slo`
     * is also set) dump incident bundles. Must outlive the call.
     */
    telemetry::FlightRecorder *recorder = nullptr;
    /**
     * Optional windowed time-series store fed by the fleet's
     * read-only sampler coroutine at the store's own cadence. Pure
     * observer. Must outlive the call.
     */
    telemetry::TimeSeriesStore *timeseries = nullptr;
};

/** Serving-experiment measurements. */
struct ServeResult
{
    stats::SampleSet e2eSeconds;
    /** Per-turn generation latencies (multi-turn mode only). */
    stats::SampleSet turnSeconds;
    /** Time-to-first-token per LLM request (chatbot modes). */
    stats::SampleSet ttftSeconds;
    int completed = 0;
    int solved = 0;
    /** First submission to last completion, seconds. */
    double makespanSeconds = 0.0;

    serving::EngineStats engineStats;
    kv::CacheStats cacheStats;
    double cacheHitRate = 0.0;
    /** Time-average / peak KV bytes over the run. */
    double kvAvgBytes = 0.0;
    double kvMaxBytes = 0.0;
    /** Node GPU energy over the run, Wh. */
    double energyWh = 0.0;

    /**
     * Attributed cost summed over every request the clients saw
     * (agent rollouts or chat calls). Reconciles with engineStats
     * busy seconds / joules — the ledger conservation property.
     */
    serving::CostLedger totalCost;

    /** Simulator self-timing (host wall clock, see sim::Simulation). */
    double simWallSeconds = 0.0;
    double simEventsProcessed = 0.0;
    double simEventsPerSecond = 0.0;

    double
    throughputQps() const
    {
        return makespanSeconds > 0 ? completed / makespanSeconds : 0.0;
    }

    double p50() const { return e2eSeconds.percentile(50.0); }
    double p95() const { return e2eSeconds.percentile(95.0); }
};

/** Run one serving experiment. */
ServeResult runServing(const ServeConfig &config);

} // namespace agentsim::core

#endif // AGENTSIM_CORE_SERVING_SYSTEM_HH
