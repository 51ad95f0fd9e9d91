/**
 * @file
 * Multi-node agent serving with request routing — the paper's
 * keytakeaway #7 ("agent-aware request dispatching") made concrete.
 *
 * A cluster holds N identical serving nodes. A router assigns each
 * incoming request (an agent rollout or a chatbot query, drawn from a
 * weighted workload mix) to one node for its whole lifetime:
 *
 *  - RoundRobin: classic load spreading; every node ends up serving
 *    every workflow, so each node's prefix cache holds every
 *    instruction block (duplicated working sets).
 *  - LeastLoaded: route to the node with the fewest in-flight
 *    sequences + queue.
 *  - CacheAffinity: hash the workflow identity (agent x benchmark) to
 *    a home node, falling back to the least-loaded node when the home
 *    node is overloaded — concentrating identical prefixes per node.
 */

#ifndef AGENTSIM_CORE_CLUSTER_HH
#define AGENTSIM_CORE_CLUSTER_HH

#include <functional>
#include <memory>
#include <vector>

#include "agents/workflows.hh"
#include "core/autoscaler.hh"
#include "core/brownout.hh"
#include "core/health.hh"
#include "serving/checkpoint.hh"
#include "serving/cost.hh"
#include "serving/engine.hh"
#include "sim/fault.hh"
#include "stats/summary.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/registry.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"
#include "workload/benchmark.hh"

namespace agentsim::core
{

/** Request routing policies. */
enum class RoutePolicy
{
    RoundRobin,
    LeastLoaded,
    CacheAffinity,
};

std::string_view routePolicyName(RoutePolicy policy);

/** One component of the offered workload mix. */
struct WorkloadSpec
{
    /** Single-turn chatbot request instead of an agent rollout. */
    bool chatbot = false;
    agents::AgentKind agent = agents::AgentKind::ReAct;
    workload::Benchmark bench = workload::Benchmark::HotpotQA;
    agents::AgentConfig agentConfig;
    /** Relative sampling weight (> 0). */
    double weight = 1.0;
};

/**
 * Client-side retry discipline for retryable serving failures (node
 * crash, admission shed). Exponential backoff with multiplicative
 * jitter; each retry re-routes, so after a crash the rollout usually
 * lands on another node — with a cold prefix cache for its workflow.
 */
struct RetryPolicy
{
    /** Total tries per rollout, first attempt included. */
    int maxAttempts = 3;
    /** Backoff before retry k is base * 2^(k-1), seconds. */
    double baseBackoffSeconds = 0.5;
    /** Backoff ceiling, seconds. */
    double maxBackoffSeconds = 8.0;
    /** Uniform jitter fraction: sleep *= 1 + U(0, jitter). */
    double jitter = 0.5;
    /** Sleep before re-probing when every node is offline, seconds. */
    double allDownPollSeconds = 0.5;

    /** Backoff for retry @p attempt (1-based), before jitter. */
    double
    backoffSeconds(int attempt) const
    {
        double b = baseBackoffSeconds;
        for (int i = 1; i < attempt; ++i)
            b *= 2;
        return b < maxBackoffSeconds ? b : maxBackoffSeconds;
    }
};

/**
 * Time-varying offered load. Constant keeps the classic homogeneous
 * Poisson arrivals at ClusterConfig::qps (bit-identical to the
 * pre-autoscaler driver). Diurnal modulates a non-homogeneous Poisson
 * process (thinning) along a raised-cosine day/night curve between
 * baseQps and peakQps, optionally with a fixed-phase burst window each
 * period — the workload shape elastic capacity exists for.
 */
struct ArrivalPattern
{
    enum class Kind
    {
        Constant,
        Diurnal,
    };
    Kind kind = Kind::Constant;

    /** Length of one diurnal cycle, seconds. */
    double periodSeconds = 240.0;
    /** Trough arrival rate, requests/s. */
    double baseQps = 0.5;
    /** Crest arrival rate, requests/s. */
    double peakQps = 4.0;
    /** Phase (fraction of the period) where the burst window opens. */
    double burstStartFraction = 0.6;
    /** Burst window length, seconds (0 disables bursts). */
    double burstDurationSeconds = 0.0;
    /** Rate multiplier inside the burst window (>= 1). */
    double burstMultiplier = 3.0;

    /** Instantaneous rate at sim-time @p t_seconds; Constant returns
     *  @p constant_qps. */
    double rateAt(double t_seconds, double constant_qps) const;
    /** Tight upper bound on rateAt (the thinning envelope). */
    double maxQps(double constant_qps) const;
};

/** Cluster experiment configuration. */
struct ClusterConfig
{
    int numNodes = 4;
    serving::EngineConfig engineConfig;
    RoutePolicy policy = RoutePolicy::RoundRobin;
    std::vector<WorkloadSpec> mix;
    /** Offered cluster-wide load (Poisson; Constant arrivals). */
    double qps = 1.0;
    /** Time-varying arrival shape (Diurnal ignores `qps`). */
    ArrivalPattern arrival;
    int numRequests = 200;
    std::uint64_t seed = 1;

    /** Chaos knobs (node crashes, stalls, tool faults). */
    sim::FaultConfig faults;
    /** Planned churn: rolling restarts through crash or drain. */
    sim::MaintenanceConfig maintenance;
    /** Per-node health EWMAs + circuit breakers for routing. */
    HealthConfig health;
    /** Overload brownout (off by default). */
    BrownoutConfig brownout;
    /**
     * Elastic capacity + predictive admission control (off by
     * default). When enabled, `numNodes` is the *initial* fleet and
     * the cluster pre-builds `autoscaler.maxNodes` nodes, parking the
     * surplus in standby; the controller then scales within
     * [minNodes, maxNodes].
     */
    AutoscalerConfig autoscaler;
    /** Node-to-node KV transfer bandwidth for live migration, B/s
     *  (defaults to the disagg interconnect assumption). */
    double migrationBandwidth = 200e9;
    /** Client retry discipline for retryable failures. */
    RetryPolicy retry;
    /**
     * Episode checkpointing for agent rollouts (off by default).
     * When enabled, workflows journal resumable snapshots at
     * iteration boundaries and the retry path resumes at the last
     * completed iteration instead of replaying the episode
     * (DESIGN.md §3j). Disabled, the run is bit-identical to a build
     * without the subsystem.
     */
    serving::CheckpointPolicy checkpoint;
    /** Per-request SLO deadline for chatbot traffic, seconds (0 off). */
    double chatDeadlineSeconds = 0.0;
    /**
     * Optional cross-layer trace sink: engines emit their usual
     * tracks, and the cluster adds failover/crash instants. Must
     * outlive runCluster().
     */
    telemetry::TraceSink *traceSink = nullptr;
    /**
     * Optional metrics registry: runCluster exports cluster-wide
     * totals (retries, failovers, crashes, sheds, cancels) summed
     * across nodes. Must outlive runCluster().
     */
    telemetry::MetricsRegistry *metrics = nullptr;
    /**
     * Optional online SLO tracker attached to every node's engine:
     * one cluster-wide stream of TTFT/TBT/E2E observations with
     * burn-rate alerts (node crashes and sheds burn budget, so fault
     * injection trips alerts). Exported into `metrics` when both are
     * set. Must outlive runCluster().
     */
    telemetry::SloTracker *slo = nullptr;
    /**
     * Optional causal span collector shared by every node's engine:
     * per-request trees gain Attempt spans per retry/failover hop
     * (linked follows-from), Backoff spans for retry sleeps and
     * Migration spans for live KV moves. Blame aggregates are
     * exported into `metrics` when both are set. Must outlive
     * runCluster().
     */
    telemetry::SpanCollector *spans = nullptr;
    /**
     * Optional flight recorder: trace events and span completions tee
     * into its retroactive rings, anomaly triggers (SLO burn,
     * brownout, breaker open, autoscale, deadline-miss spikes) dump
     * incident bundles, and incident counters are exported into
     * `metrics` when both are set. Must outlive runCluster().
     */
    telemetry::FlightRecorder *recorder = nullptr;
    /**
     * Optional windowed time-series store: a read-only sampling
     * coroutine records per-node queue depth / running count / KV
     * utilization, cluster burn rates and completion counters at the
     * store's own cadence (TimeSeriesStore::Config::periodSeconds),
     * plus every registry scalar when `metrics` is set. Pure observer
     * — attaching it never changes sim outcomes. Must outlive
     * runCluster().
     */
    telemetry::TimeSeriesStore *timeseries = nullptr;
};

/** Per-node measurements. */
struct NodeResult
{
    int requests = 0;
    double cacheHitRate = 0.0;
    serving::EngineStats engineStats;
    kv::CacheStats cacheStats;
    /** Time-average / peak KV bytes over the run. */
    double kvAvgBytes = 0.0;
    double kvMaxBytes = 0.0;
    /** Node GPU energy over the run (busy and idle), Wh. */
    double energyWh = 0.0;
};

/** Cluster experiment measurements. */
struct ClusterResult
{
    stats::SampleSet e2eSeconds;
    /** Latencies split by workload-mix component (same order). */
    std::vector<stats::SampleSet> perWorkloadSeconds;
    /** Requests that finished successfully (goodput numerator). */
    int completed = 0;
    /** Completed agent rollouts that solved their task, plus every
     *  completed chat request. */
    int solved = 0;
    /** Per-turn generation latencies (multi-turn sessions only). */
    stats::SampleSet turnSeconds;
    /** Time-to-first-token of every chat generation that completed. */
    stats::SampleSet ttftSeconds;
    /** Requests abandoned after exhausting retries or missing SLOs. */
    int failed = 0;
    /** Requests abandoned specifically on deadline expiry. */
    int timedOut = 0;
    /** Client-side retry attempts across all requests. */
    int retries = 0;
    /** Retries split by failure cause (crash = node failure/offline,
     *  shed = engine admission shed, admission = predictive
     *  admission reject-fast). Sums to `retries`. */
    int retriesCrash = 0;
    int retriesShed = 0;
    int retriesAdmission = 0;
    /** Retries that re-routed to a different node (cold cache). */
    int failovers = 0;
    /** Failovers split by why the previous node was avoided: it was
     *  offline (crashed/draining), its breaker was open, or the
     *  router simply preferred a less-loaded peer. Sums to
     *  `failovers`. */
    int failoversOffline = 0;
    int failoversBreaker = 0;
    int failoversRebalance = 0;
    double makespanSeconds = 0.0;
    std::vector<NodeResult> nodes;
    /** What the injector actually did (crashes, stalls, downtime). */
    sim::FaultStats faultStats;
    /** What the rolling-restart schedule did. */
    sim::MaintenanceStats maintenanceStats;
    /** SLO burn-rate alerts fired during the run (0 without a
     *  ClusterConfig::slo tracker). */
    std::int64_t sloAlerts = 0;
    /** Incident bundles dumped by the flight recorder (0 without a
     *  ClusterConfig::recorder). */
    std::int64_t incidentBundles = 0;

    /** Circuit-breaker transitions and fail-open routing picks. */
    std::int64_t breakerOpens = 0;
    std::int64_t breakerCloses = 0;
    std::int64_t failOpenPicks = 0;
    /** Brownout controller activity (0 when disabled). */
    std::int64_t brownoutEscalations = 0;
    std::int64_t brownoutRestorations = 0;
    std::int64_t brownoutDegradedRollouts = 0;
    int brownoutMaxLevel = 0;
    /** Graceful drains and live migrations, summed over nodes. */
    std::int64_t drains = 0;
    std::int64_t migratedRequests = 0;
    std::int64_t migrationFallbacks = 0;
    /** Interconnect+PCIe seconds spent moving KV between nodes. */
    double migrationSeconds = 0.0;
    /** Prefill GPU-s thrown away by crash-cancelled requests. */
    double lostPrefillSeconds = 0.0;

    /**
     * Episode checkpoint/recovery accounting. With checkpointing off
     * everything is zero except lostGpuSeconds, which still prices
     * the work each retry recomputed (pure observation — tracking it
     * draws nothing and schedules nothing).
     */
    serving::RecoveryStats recovery;
    /** Attributed cost summed over completed agent episodes (feeds
     *  CostReport rows in recovery benches). */
    serving::CostLedger episodeCost;
    /** Attributed cost summed over every chat generation that
     *  reached an engine. */
    serving::CostLedger chatCost;

    /** Autoscaler activity (0 unless ClusterConfig::autoscaler is
     *  enabled). */
    std::int64_t scaleOuts = 0;
    std::int64_t scaleIns = 0;
    /** Requests reject-fast'd by predictive admission control
     *  (attempts, not unique requests). */
    std::int64_t admissionRejects = 0;
    /** Node-seconds paid for over the run (busy or idle, warm-up
     *  included). Static runs report numNodes x run duration. */
    double provisionedNodeSeconds = 0.0;
    /** provisionedNodeSeconds x GPUs per node. */
    double provisionedGpuSeconds = 0.0;
    /** Warm-up seconds charged to scaled-out nodes. */
    double warmupSecondsTotal = 0.0;
    /** Most nodes simultaneously serving traffic. */
    int peakActiveNodes = 0;

    /** Simulator self-timing (host wall clock, see sim::Simulation). */
    double simWallSeconds = 0.0;
    double simEventsProcessed = 0.0;
    double simEventsPerSecond = 0.0;

    double p50() const { return e2eSeconds.percentile(50.0); }
    double p95() const { return e2eSeconds.percentile(95.0); }
    double p99() const { return e2eSeconds.percentile(99.0); }

    double
    throughputQps() const
    {
        return makespanSeconds > 0 ? completed / makespanSeconds : 0.0;
    }

    /** Successfully served fraction of the offered load. */
    double
    goodputFraction() const
    {
        const int offered = completed + failed;
        return offered > 0
                   ? static_cast<double>(completed) / offered
                   : 0.0;
    }

    /** Request-weighted mean prefix-cache hit rate across nodes. */
    double aggregateHitRate() const;
};

/**
 * Sanity-check a configuration before the run starts, with a fatal
 * for every nonsensical combination (minNodes > maxNodes, autoscaler
 * with a 0-node floor, inverted brownout watermarks, a burst window
 * that overruns its period, ...) — a clear message up front instead
 * of undefined behaviour mid-run. runCluster() calls this first;
 * exposed so tests and tools can validate configs directly.
 */
void validateClusterConfig(const ClusterConfig &config);

/** Run one cluster experiment. */
ClusterResult runCluster(const ClusterConfig &config);

namespace detail
{

/**
 * How an entry point drives the one request path that runServing and
 * runCluster share. Not a configuration: each entry point names its
 * own arrival stream, and only runServing sets the other fields.
 */
struct RequestPathModes
{
    /** Name of the arrival RNG stream. */
    const char *arrivalStream = nullptr;
    /** Issue each request only after the previous one completes. */
    bool closedLoop = false;
    /** Chat requests are multi-turn sessions. */
    bool multiTurn = false;
    /**
     * runServing's end-of-run export, called on the drained fleet
     * before it is torn down. When set it replaces runCluster's
     * fleet-wide counters (retries, failovers, breakers, brownout,
     * autoscaler); the observer exports both entry points share run
     * either way.
     */
    std::function<void(const sim::Simulation &,
                       const serving::LlmEngine &,
                       const ClusterResult &)>
        servingExport;
};

/** Run @p config through the shared driver, workers, completion
 *  accounting and observers. The caller validates @p config. */
ClusterResult runRequestPath(const ClusterConfig &config,
                             const RequestPathModes &modes);

} // namespace detail

} // namespace agentsim::core

#endif // AGENTSIM_CORE_CLUSTER_HH
